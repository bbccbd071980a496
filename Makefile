# CI gate and developer conveniences. `make check` is the gate:
# vet plus staticcheck plus the full test suite under the race
# detector, plus the reliable-over-TCP repair test across scheduler
# parallelism, plus the description/code single-flight tests across
# scheduler parallelism, plus vet and race tests of the tripbench
# harness.
# `make soak` runs the fabric churn scenario long-form on the virtual
# clock, and `make bench-json` emits the committed bench baseline
# BENCH.json (whose gates `make bench-check` applies to a fresh run).
# `make help` lists everything.

GO ?= go

# Output artifact of `make bench-json`: the rows and gates of every
# gated ptibench experiment (override to write elsewhere).
BENCH_OUT ?= BENCH.json

# Scratch artifact `make bench-check` regenerates and evaluates
# against the committed BENCH.json. Deliberately NOT the baseline:
# the gate must never overwrite the baseline and then evaluate it
# against itself.
BENCH_CHECK_OUT ?= /tmp/pti-bench-check.json

# Coverage profile location and the ratcheting floor `make cover`
# enforces via cmd/covercheck. Raise the floor as coverage grows;
# never lower it.
COVER_PROFILE ?= cover.out
COVER_MIN ?= 82.0

# Pinned staticcheck build, fetched on demand by `go run`.
STATICCHECK ?= honnef.co/go/tools/cmd/staticcheck@2025.1.1

.PHONY: help check vet lint test test-race test-tcp-repair test-singleflight test-tripbench cover bench bench-plan bench-wire bench-json bench-check soak churn scale build loc

help:
	@echo "Targets:"
	@echo "  check       CI gate: vet + lint + full test suite under -race"
	@echo "              + test-tcp-repair + test-singleflight + test-tripbench"
	@echo "  build       go build ./..."
	@echo "  loc         production and test Go line counts of the tracked"
	@echo "              files of the main module (tripbench/ excluded)"
	@echo "  vet         go vet ./..."
	@echo "  lint        staticcheck ./... (pinned via go run; skipped when offline)"
	@echo "  test        go test ./..."
	@echo "  test-race   go test -race ./..."
	@echo "  test-tcp-repair  reliable stream over loopback TCP must never"
	@echo "              NACK or fast-retransmit, must batch writes and acks,"
	@echo "              and first sends must reach the wire in seq order,"
	@echo "              at -cpu 1,2,4 -count 5"
	@echo "  test-singleflight  concurrent description and code misses must"
	@echo "              coalesce onto one fetch (flash crowd, warm restart,"
	@echo "              forced miss-then-claim interleaving) at -cpu 1,2,4 -count 5"
	@echo "  test-tripbench  go vet + go test -race of the tripbench harness"
	@echo "              (its own module, a client of the library's internals)"
	@echo "  cover       go test -coverprofile across packages, enforce the"
	@echo "              COVER_MIN=$(COVER_MIN) ratchet via cmd/covercheck"
	@echo "  soak        long-form fabric soak under -race on the virtual clock"
	@echo "              (seed printed; replay with PTI_SEED=n; PTI_REALCLOCK=1"
	@echo "              for wall-clock; PTI_PROFILE=lan|wan|chaos|slow and"
	@echo "              PTI_RELIABLE=0 sweep the nightly matrix)"
	@echo "  bench       full paper-table benchmark run"
	@echo "  bench-plan  compiled-plan vs reflective dispatch + cache numbers"
	@echo "  bench-wire  compiled vs reflective wire codecs + SendObject end-to-end"
	@echo "  bench-json  one ptibench run of the gated experiments (scenario,"
	@echo "              fanout, invoke, recv, churn, scale, registry): rows and"
	@echo "              gates -> $(BENCH_OUT) (override with BENCH_OUT=file)"
	@echo "  bench-check regenerate the gated metrics into $(BENCH_CHECK_OUT)"
	@echo "              (never the baseline) and apply the gates of the"
	@echo "              committed BENCH.json via cmd/benchdiff"
	@echo "  churn       the churn convergence scenario long-form under -race"
	@echo "              (PTI_SOAK scales it; PTI_SEED=n replays a failure)"
	@echo "  scale       500-peer fabric convergence under -race on the virtual"
	@echo "              clock at -cpu 1,2 (PTI_SCALE_PEERS=n overrides the"
	@echo "              fleet size; PTI_SEED=n replays a failure)"

check: vet lint test-race test-tcp-repair test-singleflight test-tripbench

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# The line counts a simplifying change is measured by: tracked Go
# files of the main module (tripbench/ is its own module), split into
# production and test code.
loc:
	@git ls-files '*.go' ':!tripbench/' ':!*_test.go' | xargs cat | wc -l | awk '{print "production", $$1}'
	@git ls-files '*_test.go' ':!tripbench/' | xargs cat | wc -l | awk '{print "test      ", $$1}'

# staticcheck runs from a pinned module via `go run`, so nothing is
# installed into the repo. The version probe separates "tool
# unavailable" (offline sandbox: skip, keep the gate usable) from
# "tool found problems" (fail).
lint:
	@if $(GO) run $(STATICCHECK) -version >/dev/null 2>&1; then \
		$(GO) run $(STATICCHECK) ./... ; \
	else \
		echo "lint: staticcheck unavailable (offline?); skipping"; \
	fi

test:
	$(GO) test ./...

test-race:
	$(GO) test -race ./...

# TCP cannot reorder, so a reliable stream over it must never repair a
# frame. A sender that puts seqs on the wire out of order, or a
# receiver that mistakes goroutine scheduling for loss, shows up more
# or less often depending on scheduler parallelism, so the tests run
# at several GOMAXPROCS settings and repeat. The batched-writes test
# also checks that a back-to-back stream goes out several frames per
# write and comes back with fewer acks than objects.
test-tcp-repair:
	$(GO) test -race -run '^(TestReliableTCPNoSpuriousRepair|TestReliableTCPBatchedWrites|TestReliableFirstSendsInSeqOrder)$$' -cpu 1,2,4 -count 5 ./internal/transport

# Concurrent misses for one description or one type's code must cost
# one fetch. A second fetch slips through only when a handler misses,
# is descheduled while another fetches and releases, and claims after
# it, so the flash-crowd and warm-restart scenarios run at several
# GOMAXPROCS settings and repeat, beside the test that forces that
# interleaving directly.
test-singleflight:
	$(GO) test -race -run '^(TestFabricFlashCrowdSingleFetch|TestFabricWarmRestartZeroFetch|TestSingleFlightRecheckAfterClaim)$$' -cpu 1,2,4 -count 5 ./internal/transport

# tripbench is its own module but calls the library's internal
# packages, so a library change can break it without failing any test
# of the main module.
test-tripbench:
	cd tripbench && $(GO) vet ./... && $(GO) test -race ./...

# Cross-package statement coverage with the ratcheting floor. The
# profile is also the artifact the CI coverage job uploads.
cover:
	$(GO) test -coverprofile=$(COVER_PROFILE) -coverpkg=./... ./...
	$(GO) run ./cmd/covercheck -profile $(COVER_PROFILE) -min $(COVER_MIN)

# Long-form deterministic churn over the simulation fabric: five
# nodes, lossy/duplicating/reordering links, reliable publishers,
# repeated crash/restart, under the race detector — on the virtual
# clock, so injected latency and retransmit backoff cost real
# milliseconds instead of wall-clock sleeping. The fabric seed is
# printed at the start of the run; a failure replays byte-identically
# with PTI_SEED=<seed>. PTI_REALCLOCK=1 soaks against real time.
soak:
	PTI_SOAK=1 $(GO) test -race -run 'TestFabricSoak' -count=1 -v ./internal/transport

# Long-form connection-lifecycle churn: 100+ peers on managed links,
# three crash/restart waves, exactly-once lineage convergence under
# the race detector on the virtual clock (see docs/health.md).
churn:
	PTI_SOAK=1 $(GO) test -race -run 'TestFabricChurnConvergence' -count=1 -v ./internal/transport

# Fabric scalability soak: 500 subscribers (1000 nightly via
# PTI_SCALE_PEERS) fanned out from a small publisher tier with a 10%
# crash wave, on the virtual clock under the race detector, once at
# GOMAXPROCS 1 and once at 2 so the one frame scheduler and the busy
# probe run both with and without a second proc. The timeout doubles
# as the CI wall-clock budget — a busy probe or scheduler that
# regressed to O(peers·links) times out instead of grinding through.
scale:
	PTI_SCALE_PEERS=$${PTI_SCALE_PEERS:-500} $(GO) test -race -run 'TestFabricScale' -cpu 1,2 -count=1 -timeout 20m -v ./internal/transport

# Full paper-table benchmark run.
bench:
	$(GO) test -run '^$$' -bench . -benchmem .

# Just the compiled-invocation-plan vs reflective-dispatch comparison
# and the sharded conformance-cache numbers (see BENCHMARKS.md).
bench-plan:
	$(GO) test -run '^$$' -bench 'InvokerCall|CheckCached|InvocationProxy' -benchmem .

# Compiled vs reflective wire codec programs (see BENCHMARKS.md's
# wire table) plus the end-to-end SendObject paths over an in-memory
# pipe and over the simulation fabric.
bench-wire:
	$(GO) test -run '^$$' -bench '(Encode|Decode)(Binary|SOAP)' -benchmem ./internal/wire
	$(GO) test -run '^$$' -bench 'SendObject' -benchmem ./internal/transport

# The gated experiments in one seeded run: fabric fault-profile
# scenarios, broadcast fan-out, pipelined invoke, compiled receive,
# lifecycle churn, scalability and the durable registry. Each
# experiment declares its gates in cmd/ptibench beside the rows it
# emits; both land in one artifact.
bench-json:
	$(GO) run ./cmd/ptibench -exp gated -reps 2 -seed 42 -json $(BENCH_OUT)

# The bench-regression gate: fresh metrics vs the committed baseline.
bench-check:
	@if [ "$(BENCH_CHECK_OUT)" = "BENCH.json" ]; then \
		echo "bench-check: BENCH_CHECK_OUT must not be the committed baseline"; exit 2; \
	fi
	$(MAKE) bench-json BENCH_OUT=$(BENCH_CHECK_OUT)
	$(GO) run ./cmd/benchdiff -baseline BENCH.json -candidate $(BENCH_CHECK_OUT)
