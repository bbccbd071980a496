package main

import (
	"path/filepath"
	"reflect"
	"testing"

	"pti/internal/benchfmt"
)

// The gates are the CI bench gate. Each experiment's fixture below
// carries the same gates ptibench declares for it; every case
// evaluates the fixture as baseline against one mutated candidate and
// names the one check that must fail, so a gate that silently stops
// failing shows up as a unit-test break rather than a green pipeline.

type gateCase struct {
	name   string
	mutate func(d *benchfmt.Doc)
	fails  string // the one failing check; "" for a healthy candidate
}

func runCases(t *testing.T, fixture func() benchfmt.Doc, cases []gateCase) {
	t.Helper()
	base := fixture()
	for _, c := range cases {
		cand := fixture()
		if c.mutate != nil {
			c.mutate(&cand)
		}
		results := benchfmt.Evaluate(base, cand)
		var failed []string
		for _, r := range results {
			if !r.OK {
				failed = append(failed, r.Name)
			}
		}
		var want []string
		if c.fails != "" {
			want = []string{c.fails}
		}
		if !reflect.DeepEqual(failed, want) {
			t.Errorf("%s: failed %v, want %v", c.name, failed, want)
		}
		if n := report(results); n != len(failed) {
			t.Errorf("%s: report counted %d failures, want %d", c.name, n, len(failed))
		}
	}
}

func doc(rows []benchfmt.Row, gates ...benchfmt.Gate) benchfmt.Doc {
	return benchfmt.Doc{Seed: 42, Rows: rows, Gates: gates}
}

func row(exp, name string, metrics map[string]float64) benchfmt.Row {
	return benchfmt.Row{Experiment: exp, Name: name, Metrics: metrics}
}

// set returns a mutation that sets one metric of the row with key.
func set(key, metric string, v float64) func(d *benchfmt.Doc) {
	return func(d *benchfmt.Doc) {
		for _, r := range d.Rows {
			if r.Key() == key {
				r.Metrics[metric] = v
			}
		}
	}
}

func scenarioDoc() benchfmt.Doc {
	return doc([]benchfmt.Row{
		row("scenario", "lan+rel", map[string]float64{"match_rate": 1}),
		row("scenario", "chaos", map[string]float64{"match_rate": 0.8}),
	},
		benchfmt.NewGate("scenario/lan+rel", "exactly once", benchfmt.Exact, "match_rate", 1),
		benchfmt.NewGate("scenario/chaos", "match drift", benchfmt.Drift, "match_rate", 0.10))
}

func TestDiffScenariosPassAndFail(t *testing.T) {
	runCases(t, scenarioDoc, []gateCase{
		{"healthy", nil, ""},
		{"reliable drift", set("scenario/lan+rel", "match_rate", 0.999), "scenario/lan+rel exactly once"},
		{"unreliable drift", set("scenario/chaos", "match_rate", 0.5), "scenario/chaos match drift"},
		{"unreliable within tolerance", set("scenario/chaos", "match_rate", 0.85), ""},
		{"candidate-only row", func(d *benchfmt.Doc) {
			d.Rows = append(d.Rows, row("scenario", "wan+rel", map[string]float64{"match_rate": 1}))
		}, "rows"},
		{"empty candidate", func(d *benchfmt.Doc) { d.Rows = nil }, "rows"},
	})
}

func fanoutDoc() benchfmt.Doc {
	const bh, sl = "fanout/fanout-blackhole", "fanout/single-loss-recovery"
	return doc([]benchfmt.Row{
		row("fanout", "fanout-blackhole", map[string]float64{"match_rate": 1, "elapsed_virtual_ms": 100}),
		row("fanout", "single-loss-recovery", map[string]float64{"nack_recovery_ms": 30, "backoff_recovery_ms": 200}),
	},
		benchfmt.NewGate(bh, "exactly once", benchfmt.Exact, "match_rate", 1),
		benchfmt.NewGate(bh, "stall budget", benchfmt.Max, "elapsed_virtual_ms", 500),
		benchfmt.NewRatio(sl, "nack beats backoff", "nack_recovery_ms", "<", 1, sl, "backoff_recovery_ms"))
}

func TestDiffFanoutPassAndFail(t *testing.T) {
	runCases(t, fanoutDoc, []gateCase{
		{"healthy", nil, ""},
		{"stall budget", set("fanout/fanout-blackhole", "elapsed_virtual_ms", 9000), "fanout/fanout-blackhole stall budget"},
		{"nack regression", set("fanout/single-loss-recovery", "nack_recovery_ms", 300), "fanout/single-loss-recovery nack beats backoff"},
		{"degenerate backoff", set("fanout/single-loss-recovery", "backoff_recovery_ms", 0), "fanout/single-loss-recovery nack beats backoff"},
	})
}

func invokeDoc() benchfmt.Doc {
	const capRow, overRow, pl = "invoke/slow/capacity", "invoke/slow/overload2x", "invoke/pipelined-vs-serial"
	return doc([]benchfmt.Row{
		row("invoke", "slow/capacity", map[string]float64{"failures": 0, "goodput_per_sec": 50}),
		row("invoke", "slow/overload2x", map[string]float64{"failures": 0, "goodput_per_sec": 40}),
		row("invoke", "pipelined-vs-serial", map[string]float64{"serialized_ms": 100, "pipelined_ms": 20}),
	},
		benchfmt.NewGate(capRow, "non-shed failures", benchfmt.Exact, "failures", 0),
		benchfmt.NewGate(overRow, "non-shed failures", benchfmt.Exact, "failures", 0),
		benchfmt.NewRatio(overRow, "no collapse", "goodput_per_sec", ">=", 0.5, capRow, "goodput_per_sec"),
		benchfmt.NewRatio(pl, "pipelining wins", "pipelined_ms", "<", 1, pl, "serialized_ms"))
}

func TestDiffInvokePassAndFail(t *testing.T) {
	runCases(t, invokeDoc, []gateCase{
		{"healthy", nil, ""},
		{"goodput collapse", set("invoke/slow/overload2x", "goodput_per_sec", 10), "invoke/slow/overload2x no collapse"},
		{"non-shed failures", set("invoke/slow/capacity", "failures", 3), "invoke/slow/capacity non-shed failures"},
		{"pipelining regression", set("invoke/pipelined-vs-serial", "pipelined_ms", 150), "invoke/pipelined-vs-serial pipelining wins"},
	})
}

func recvDoc() benchfmt.Doc {
	const soap, bin = "recv/soap-decode", "recv/binary-decode"
	allocs := benchfmt.NewRatio(bin, "allocs within baseline", "allocs_per_op", "<=", 1, bin, "allocs_per_op")
	allocs.Of.Baseline = true
	return doc([]benchfmt.Row{
		row("recv", "soap-decode", map[string]float64{"compiled_ns": 100, "reflective_ns": 300}),
		row("recv", "binary-decode", map[string]float64{"compiled_ns": 100, "reflective_ns": 150, "allocs_per_op": 5}),
	},
		benchfmt.NewRatio(soap, "compiled floor", "reflective_ns", ">=", 2, soap, "compiled_ns"),
		benchfmt.NewRatio(bin, "compiled wins", "reflective_ns", ">=", 1, bin, "compiled_ns"),
		allocs)
}

func TestDiffRecvPassAndFail(t *testing.T) {
	runCases(t, recvDoc, []gateCase{
		{"healthy", nil, ""},
		{"soap floor", set("recv/soap-decode", "compiled_ns", 200), "recv/soap-decode compiled floor"},
		{"alloc budget", set("recv/binary-decode", "allocs_per_op", 50), "recv/binary-decode allocs within baseline"},
		{"fewer allocs", set("recv/binary-decode", "allocs_per_op", 0), ""},
	})
}

func churnDoc() benchfmt.Doc {
	const c = "churn/churn-waves"
	return doc([]benchfmt.Row{
		row("churn", "churn-waves", map[string]float64{"churned": 30, "match_rate": 1, "sessions_recovered": 30,
			"redials": 50, "queue_abandoned": 0, "elapsed_virtual_ms": 1000}),
	},
		benchfmt.NewGate(c, "lineage match", benchfmt.Exact, "match_rate", 1),
		benchfmt.NewRatio(c, "sessions cover churned links", "sessions_recovered", ">=", 1, c, "churned"),
		benchfmt.NewGate(c, "abandoned frames", benchfmt.Exact, "queue_abandoned", 0),
		benchfmt.NewGate(c, "redial budget", benchfmt.Max, "redials", 400),
		benchfmt.NewGate(c, "stall budget", benchfmt.Max, "elapsed_virtual_ms", 30000))
}

func TestDiffChurnPassAndFail(t *testing.T) {
	runCases(t, churnDoc, []gateCase{
		{"healthy", nil, ""},
		{"lineage match", set("churn/churn-waves", "match_rate", 0.97), "churn/churn-waves lineage match"},
		{"redial budget", set("churn/churn-waves", "redials", 500), "churn/churn-waves redial budget"},
		{"abandoned frames", set("churn/churn-waves", "queue_abandoned", 4), "churn/churn-waves abandoned frames"},
		{"sessions reset", set("churn/churn-waves", "sessions_recovered", 20), "churn/churn-waves sessions cover churned links"},
	})
}

func registryDoc() benchfmt.Doc {
	const cold, warm = "registry/registry-cold", "registry/registry-warm"
	return doc([]benchfmt.Row{
		row("registry", "registry-cold", map[string]float64{"messages": 10, "delivered": 10, "desc_fetches": 3, "ttfd_ms": 50}),
		row("registry", "registry-warm", map[string]float64{"messages": 10, "delivered": 10, "desc_fetches": 0,
			"desc_warm_loaded": 3, "ttfd_ms": 5}),
	},
		benchfmt.NewRatio(cold, "delivers every message", "delivered", "==", 1, cold, "messages"),
		benchfmt.NewRatio(warm, "delivers every message", "delivered", "==", 1, warm, "messages"),
		benchfmt.NewGate(warm, "zero description fetches", benchfmt.Exact, "desc_fetches", 0),
		benchfmt.NewRatio(warm, "preloads what cold fetched", "desc_warm_loaded", ">=", 1, cold, "desc_fetches"),
		benchfmt.NewRatio(warm, "ttfd beats cold", "ttfd_ms", "<", 1, cold, "ttfd_ms"))
}

func TestDiffRegistryPassAndFail(t *testing.T) {
	runCases(t, registryDoc, []gateCase{
		{"healthy", nil, ""},
		{"warm fetches", set("registry/registry-warm", "desc_fetches", 2), "registry/registry-warm zero description fetches"},
		{"warm ttfd", set("registry/registry-warm", "ttfd_ms", 80), "registry/registry-warm ttfd beats cold"},
		{"dropped delivery", set("registry/registry-cold", "delivered", 9), "registry/registry-cold delivers every message"},
		{"cold not cold", set("registry/registry-cold", "desc_fetches", 0), "registry/registry-warm preloads what cold fetched"},
	})
}

func scaleDoc() benchfmt.Doc {
	var gates []benchfmt.Gate
	for _, r := range []string{"scale/scale-150", "scale/scale-600"} {
		ops := benchfmt.NewGate(r, "sched ops per frame", benchfmt.Range, "sched_ops_per_frame", 1)
		ops.Hi = 2.25
		gates = append(gates,
			benchfmt.NewGate(r, "exactly once", benchfmt.Exact, "match_rate", 1),
			benchfmt.NewGate(r, "duplicates", benchfmt.Exact, "duplicates", 0),
			benchfmt.NewGate(r, "wall budget", benchfmt.Max, "elapsed_wall_ms", 120000),
			ops)
	}
	gates = append(gates, benchfmt.NewRatio("scale/scale-600", "goroutines per peer sublinear", "goroutines_per_peer", "<=",
		1.3, "scale/scale-150", "goroutines_per_peer"))
	return doc([]benchfmt.Row{
		row("scale", "scale-150", map[string]float64{"match_rate": 1, "duplicates": 0, "elapsed_wall_ms": 200,
			"sched_ops_per_frame": 2, "goroutines_per_peer": 950.0 / 152}),
		row("scale", "scale-600", map[string]float64{"match_rate": 1, "duplicates": 0, "elapsed_wall_ms": 700,
			"sched_ops_per_frame": 2, "goroutines_per_peer": 3300.0 / 605}),
	}, gates...)
}

func TestDiffScalePassAndFail(t *testing.T) {
	runCases(t, scaleDoc, []gateCase{
		{"healthy", nil, ""},
		{"match rate", set("scale/scale-150", "match_rate", 0.999), "scale/scale-150 exactly once"},
		{"duplicates", set("scale/scale-600", "duplicates", 2), "scale/scale-600 duplicates"},
		{"wall budget", set("scale/scale-600", "elapsed_wall_ms", 130000), "scale/scale-600 wall budget"},
		{"ops per frame", set("scale/scale-150", "sched_ops_per_frame", 3.5), "scale/scale-150 sched ops per frame"},
		{"ops per frame floor", set("scale/scale-600", "sched_ops_per_frame", 0.5), "scale/scale-600 sched ops per frame"},
		// Per-peer cost at the larger fleet beyond the smaller
		// fleet's times the slack factor is superlinear growth.
		{"sublinearity", set("scale/scale-600", "goroutines_per_peer", 20), "scale/scale-600 goroutines per peer sublinear"},
		// Flat growth inside the slack passes even when the per-peer
		// cost rises: 6.9/peer vs 6.25/peer is < 1.3x.
		{"within slack", set("scale/scale-600", "goroutines_per_peer", 4200.0/605), ""},
		{"missing row", func(d *benchfmt.Doc) { d.Rows = d.Rows[:1] }, "rows"},
		{"candidate-only row", func(d *benchfmt.Doc) {
			d.Rows = append(d.Rows, row("scale", "scale-900", map[string]float64{"match_rate": 1}))
		}, "rows"},
	})
}

func TestDiffSeedAndGateSet(t *testing.T) {
	runCases(t, scaleDoc, []gateCase{
		{"seed mismatch", func(d *benchfmt.Doc) { d.Seed = 7 }, "seed"},
		{"gate dropped", func(d *benchfmt.Doc) { d.Gates = d.Gates[1:] }, "gate set"},
		{"gate loosened", func(d *benchfmt.Doc) { d.Gates[2].Value = 1e9 }, "gate set"},
	})
	// A gate whose metric the candidate lacks fails by name.
	runCases(t, scaleDoc, []gateCase{
		{"metric missing", func(d *benchfmt.Doc) { delete(d.Rows[0].Metrics, "duplicates") }, "scale/scale-150 duplicates"},
	})
	// So does a gate on a row neither file has: it would otherwise
	// never be evaluated.
	typo := func() benchfmt.Doc {
		d := scaleDoc()
		d.Gates = append(d.Gates, benchfmt.NewGate("scale/scale-60", "duplicates", benchfmt.Exact, "duplicates", 0))
		return d
	}
	runCases(t, typo, []gateCase{{"unknown row", nil, "scale/scale-60 duplicates"}})
}

func TestLoad(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := scaleDoc().Write(path); err != nil {
		t.Fatal(err)
	}
	d, err := benchfmt.Load(path)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if len(d.Rows) != 2 || len(d.Gates) != 9 || d.Seed != 42 {
		t.Fatalf("load: got %d rows, %d gates, seed %d", len(d.Rows), len(d.Gates), d.Seed)
	}
	if diff := benchfmt.DiffGates(d.Gates, scaleDoc().Gates); diff != nil {
		t.Fatalf("gates changed in the round trip: %v", diff)
	}

	// A doc without gates would pass any candidate: an authoring
	// error, not an empty-but-valid artifact.
	empty := filepath.Join(t.TempDir(), "empty.json")
	if err := doc(scaleDoc().Rows).Write(empty); err != nil {
		t.Fatal(err)
	}
	if _, err := benchfmt.Load(empty); err == nil {
		t.Fatal("load accepted a doc without gates")
	}
	if _, err := benchfmt.Load(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("load accepted a missing file")
	}
}
