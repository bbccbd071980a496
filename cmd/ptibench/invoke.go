package main

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"pti/internal/benchfmt"
	"pti/internal/registry"
	"pti/internal/transport"
)

// The invoke experiment measures the pipelined invoke path: N
// closed-loop invokers calling a remote method with a fixed virtual
// service time, through the reliable link, at capacity and at 2x
// overload. Rows report invoke-latency percentiles, goodput and shed
// counts; a separate comparison pits a pipelined client window against
// strictly serialized calls on a clean high-latency link.

// invokeWorkers/invokeQueue bound the server: 4 concurrent method
// executions plus 2 queued invokes; arrival depth beyond 6 is shed.
const (
	invokeWorkers     = 4
	invokeQueue       = 2
	invokeServiceTime = 10 * time.Millisecond
)

// invokeNoCollapseFraction is the congestion-collapse floor: goodput
// at 2x overload must be at least this fraction of goodput at
// capacity on the same profile.
const invokeNoCollapseFraction = 0.5

var (
	invokeProfiles = []string{"slow", "chaos"}
	invokeLoads    = []struct {
		name     string
		invokers int
	}{
		{"capacity", invokeWorkers},
		{"overload2x", 2 * invokeWorkers},
	}
)

// invokeRow is one measured (profile, load) cell.
type invokeRow struct {
	Invokers         int     `json:"invokers"`
	Attempts         int     `json:"attempts"`
	Completed        int     `json:"completed"`
	Shed             int     `json:"shed"`
	Failures         int     `json:"failures"`
	P50Ms            float64 `json:"p50_ms"`
	P99Ms            float64 `json:"p99_ms"`
	GoodputPerSec    float64 `json:"goodput_per_sec"`
	ElapsedVirtualMs float64 `json:"elapsed_virtual_ms"`
}

// invokePipeline is the pipelined-vs-serialized comparison.
type invokePipeline struct {
	Calls        int     `json:"calls"`
	Depth        int     `json:"depth"`
	LatencyMs    float64 `json:"latency_ms"`
	SerializedMs float64 `json:"serialized_ms"`
	PipelinedMs  float64 `json:"pipelined_ms"`
}

// invokeGates: a shed is the typed, retryable backpressure contract,
// so any other failure (timeout, decode error) is a bug; load
// shedding must prevent congestion collapse, not merely rename it;
// and the pipelined window must beat serialized calls outright, or
// the pipelining isn't real.
func invokeGates() []benchfmt.Gate {
	var gates []benchfmt.Gate
	for _, p := range invokeProfiles {
		for _, l := range invokeLoads {
			gates = append(gates, benchfmt.NewGate("invoke/"+p+"/"+l.name, "non-shed failures", benchfmt.Exact, "failures", 0))
		}
		gates = append(gates, benchfmt.NewRatio("invoke/"+p+"/overload2x", "no collapse", "goodput_per_sec", ">=",
			invokeNoCollapseFraction, "invoke/"+p+"/capacity", "goodput_per_sec"))
	}
	const pl = "invoke/pipelined-vs-serial"
	return append(gates, benchfmt.NewRatio(pl, "pipelining wins", "pipelined_ms", "<", 1, pl, "serialized_ms"))
}

// invokeBenchSvc is the exported service. The service-time knob is an
// injected func field, NOT a *Peer field: typedesc fingerprints every
// field recursively, and a *Peer would drag the whole peer struct
// graph into the type description.
type invokeBenchSvc struct {
	nap     func(time.Duration)
	service time.Duration
}

// Work consumes the configured virtual service time and echoes.
func (s *invokeBenchSvc) Work(n int) int {
	if s.service > 0 {
		s.nap(s.service)
	}
	return n + 1
}

// expInvoke runs the invoke-load rows and the pipelined-vs-serialized
// comparison on the virtual clock.
func expInvoke(reps int) ([]benchfmt.Row, error) {
	attempts := 15 * reps // per invoker
	var rows []benchfmt.Row
	fmt.Printf("  fabric seed: %d (rerun with -seed %d to replay)  [virtual clock]\n", *seed, *seed)
	fmt.Printf("  server budget: %d workers + %d queued, %s service time per call\n",
		invokeWorkers, invokeQueue, invokeServiceTime)

	for _, profile := range invokeProfiles {
		for _, load := range invokeLoads {
			row, err := runInvokeLoad(profile, load.invokers, attempts)
			if err != nil {
				return nil, err
			}
			fmt.Printf("  %-7s %-10s  %d invokers  p50 %.1fms  p99 %.1fms  goodput %.0f/s  shed %d  failures %d  elapsed %.0fms\n",
				profile, load.name, row.Invokers, row.P50Ms, row.P99Ms,
				row.GoodputPerSec, row.Shed, row.Failures, row.ElapsedVirtualMs)
			rows = append(rows, benchRow("invoke", profile+"/"+load.name, row))
		}
	}

	pl, err := runInvokePipelineCompare(8*reps, 8)
	if err != nil {
		return nil, err
	}
	fmt.Printf("  %-18s %d calls at %.0fms latency: pipelined(depth %d) %.0fms vs serialized %.0fms (%.1fx faster)\n",
		"pipelined-vs-serial", pl.Calls, pl.LatencyMs, pl.Depth,
		pl.PipelinedMs, pl.SerializedMs, pl.SerializedMs/pl.PipelinedMs)
	return append(rows, benchRow("invoke", "pipelined-vs-serial", pl)), nil
}

// invokeRelOpts is the reliable-link shape both sides run: a deep
// send queue, a fast pre-sample timer (the link's SRTT estimate also
// feeds the client's pacing window), bounded backoff so chaos-profile
// rows converge in bounded virtual time.
func invokeRelOpts() []transport.ReliableOption {
	return []transport.ReliableOption{
		transport.WithSendQueue(1024),
		transport.WithWindow(32),
		transport.WithRetransmitTimeout(10 * time.Millisecond),
		transport.WithMaxBackoff(160 * time.Millisecond),
	}
}

// runInvokeLoad drives `invokers` closed-loop callers, each making
// `attempts` calls, against a server with a fixed worker/queue budget,
// and reports latency percentiles over the successful calls plus
// goodput and shed counts. Shed calls are not retried: each invoker
// spends its attempt budget, and the row records how the budget split
// between completions and sheds.
func runInvokeLoad(profile string, invokers, attempts int) (invokeRow, error) {
	prof, ok := transport.NamedProfile(profile)
	if !ok {
		return invokeRow{}, fmt.Errorf("unknown profile %q", profile)
	}
	f := transport.NewFabric(*seed, transport.WithVirtualClock())
	defer func() { _ = f.Close() }()

	srv, err := f.AddPeerWithRegistry("srv", registry.New(),
		transport.WithRequestTimeout(30*time.Second),
		transport.WithInvokeConcurrency(invokeWorkers, invokeQueue),
		transport.WithReliableLinks(invokeRelOpts()...))
	if err != nil {
		return invokeRow{}, err
	}
	cli, err := f.AddPeerWithRegistry("cli", registry.New(),
		transport.WithRequestTimeout(30*time.Second),
		transport.WithInvokePacing(32, 250*time.Millisecond),
		transport.WithReliableLinks(invokeRelOpts()...))
	if err != nil {
		return invokeRow{}, err
	}
	if _, _, err := f.Connect("srv", "cli", prof); err != nil {
		return invokeRow{}, err
	}
	conn, ok := cli.ConnTo("srv")
	if !ok {
		return invokeRow{}, fmt.Errorf("no conn to srv")
	}

	svc := &invokeBenchSvc{nap: srv.Peer().Pause, service: invokeServiceTime}
	if err := srv.Peer().Export("svc", svc); err != nil {
		return invokeRow{}, err
	}
	ref, err := cli.Peer().Remote(conn, "svc", invokeBenchSvc{})
	if err != nil {
		return invokeRow{}, err
	}

	clk := f.Clock()
	var (
		mu     sync.Mutex
		lats   []time.Duration
		shed   int
		failed int
		wg     sync.WaitGroup
	)
	start := clk.Now()
	for g := 0; g < invokers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < attempts; i++ {
				t0 := clk.Now()
				_, err := ref.Call("Work", g*attempts+i)
				d := clk.Now().Sub(t0)
				mu.Lock()
				switch {
				case err == nil:
					lats = append(lats, d)
				case errors.Is(err, transport.ErrInvokeQueueFull):
					shed++
				default:
					failed++
				}
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()
	elapsed := clk.Now().Sub(start)

	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	row := invokeRow{
		Invokers:         invokers,
		Attempts:         invokers * attempts,
		Completed:        len(lats),
		Shed:             shed,
		Failures:         failed,
		P50Ms:            durMs(invokePct(lats, 0.50)),
		P99Ms:            durMs(invokePct(lats, 0.99)),
		ElapsedVirtualMs: durMs(elapsed),
	}
	if elapsed > 0 {
		row.GoodputPerSec = float64(len(lats)) / elapsed.Seconds()
	}
	return row, nil
}

// runInvokePipelineCompare times the same call burst twice over a
// clean 50ms-latency link: strictly serialized (Call, one in flight)
// vs pipelined (CallAsync behind a client window of `depth`). The
// method is instant, so the measured gap is pure round-trip overlap.
func runInvokePipelineCompare(calls, depth int) (invokePipeline, error) {
	const latency = 50 * time.Millisecond
	run := func(pipelined bool) (time.Duration, error) {
		f := transport.NewFabric(*seed, transport.WithVirtualClock())
		defer func() { _ = f.Close() }()

		srv, err := f.AddPeerWithRegistry("srv", registry.New(),
			transport.WithRequestTimeout(30*time.Second),
			transport.WithReliableLinks(invokeRelOpts()...))
		if err != nil {
			return 0, err
		}
		cliOpts := []transport.PeerOption{
			transport.WithRequestTimeout(30 * time.Second),
			transport.WithReliableLinks(invokeRelOpts()...),
		}
		if pipelined {
			cliOpts = append(cliOpts, transport.WithInvokePacing(depth, 0))
		}
		cli, err := f.AddPeerWithRegistry("cli", registry.New(), cliOpts...)
		if err != nil {
			return 0, err
		}
		if _, _, err := f.Connect("srv", "cli", transport.FaultProfile{Latency: latency}); err != nil {
			return 0, err
		}
		conn, ok := cli.ConnTo("srv")
		if !ok {
			return 0, fmt.Errorf("no conn to srv")
		}
		if err := srv.Peer().Export("svc", &invokeBenchSvc{}); err != nil {
			return 0, err
		}
		ref, err := cli.Peer().Remote(conn, "svc", invokeBenchSvc{})
		if err != nil {
			return 0, err
		}

		clk := f.Clock()
		start := clk.Now()
		if pipelined {
			pending := make([]*transport.PendingCall, 0, calls)
			for i := 0; i < calls; i++ {
				pc, err := ref.CallAsync("Work", i)
				if err != nil {
					return 0, err
				}
				pending = append(pending, pc)
			}
			for _, pc := range pending {
				if _, err := pc.Wait(); err != nil {
					return 0, err
				}
			}
		} else {
			for i := 0; i < calls; i++ {
				if _, err := ref.Call("Work", i); err != nil {
					return 0, err
				}
			}
		}
		return clk.Now().Sub(start), nil
	}

	serialized, err := run(false)
	if err != nil {
		return invokePipeline{}, fmt.Errorf("serialized run: %w", err)
	}
	pipelined, err := run(true)
	if err != nil {
		return invokePipeline{}, fmt.Errorf("pipelined run: %w", err)
	}
	return invokePipeline{
		Calls:        calls,
		Depth:        depth,
		LatencyMs:    durMs(latency),
		SerializedMs: durMs(serialized),
		PipelinedMs:  durMs(pipelined),
	}, nil
}

// invokePct returns the q-quantile of an ascending latency slice
// (nearest rank).
func invokePct(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted)-1) + 0.5)
	return sorted[i]
}

func durMs(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
