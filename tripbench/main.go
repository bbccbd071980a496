// Command tripbench is the repository's benchmark: one object's trip
// between two peers over loopback TCP, cold (first contact with a new
// type), warm (a stream of an already-known type) and by reference
// (remote calls), measured end to end and, in a separate traced run,
// layer by layer. See README.md in this directory.
//
//	tripbench --workload stream-warm --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"
)

// metricSpec names one reported metric. BENCHMARK.json at the
// repository root lists the same names, units and directions, plus
// the bound each end-to-end metric may worsen by.
type metricSpec struct{ name, unit, better string }

// endToEnd are the metrics an untraced run reports.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"lat_p50_us", "us", "lower"},
	{"lat_p90_us", "us", "lower"},
	{"ok_ratio", "ratio", "higher"},
	{"wire_bytes_per_op", "B", "lower"},
	{"alloc_bytes_per_op", "B", "lower"},
	{"allocs_per_op", "count", "lower"},
	{"heap_live_mb", "MB", "lower"},
}

// perLayer are the metrics a traced run reports, named by module.
var perLayer = []metricSpec{
	{"transport.send_us", "us", "lower"},
	{"transport.link_us", "us", "lower"},
	{"transport.resolve_us", "us", "lower"},
	{"transport.bind_us", "us", "lower"},
	{"transport.handler_us", "us", "lower"},
	{"transport.unattributed_us", "us", "lower"},
	{"transport.request_us", "us", "lower"},
	{"transport.reply_us", "us", "lower"},
	{"transport.retransmits_per_op", "count", "lower"},
	{"transport.fast_retransmits_per_op", "count", "lower"},
	{"transport.nacks_per_op", "count", "lower"},
	{"transport.dedup_per_op", "count", "lower"},
	{"transport.acks_per_op", "count", "lower"},
	{"transport.srtt_us", "us", "lower"},
	{"transport.queue_peak", "count", "lower"},
	{"transport.typeinfo_requests_per_op", "count", "lower"},
	{"transport.code_requests_per_op", "count", "lower"},
	{"transport.compiled_delivery_ratio", "ratio", "higher"},
	{"transport.drops_per_op", "count", "lower"},
	{"transport.invokes_shed_per_op", "count", "lower"},
	{"wire.encode_ns", "ns", "lower"},
	{"wire.decode_ns", "ns", "lower"},
	{"wire.soap_encode_ns", "ns", "lower"},
	{"wire.soap_decode_ns", "ns", "lower"},
	{"wire.generic_decode_ns", "ns", "lower"},
	{"xmlenc.envelope_append_ns", "ns", "lower"},
	{"xmlenc.envelope_read_ns", "ns", "lower"},
	{"xmlenc.desc_marshal_us", "us", "lower"},
	{"xmlenc.desc_unmarshal_us", "us", "lower"},
	{"conform.check_cold_us", "us", "lower"},
	{"conform.checks_per_op", "count", "lower"},
	{"conform.check_cached_ns", "ns", "lower"},
	{"proxy.call_ns", "ns", "lower"},
	{"proxy.invoker_ns", "ns", "lower"},
	{"registry.register_us", "us", "lower"},
	{"registry.compile_us", "us", "lower"},
	{"typedesc.describe_us", "us", "lower"},
	{"trace.overhead_ratio", "ratio", "lower"},
}

// setupRepeats is how many times a timed run sets its workload up;
// it reports the median and runs the loop on the last set-up.
const setupRepeats = 21

// window is the length of one measurement window of the timed loop.
const window = time.Second

type options struct {
	workload string
	seed     int64
	duration time.Duration
	trace    bool
}

// result is one run's verdict and metrics, in spec order.
type result struct {
	correct   bool
	attempted int64
	failed    int64
	values    map[string]float64
	specs     []metricSpec
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// MarshalJSON renders the result line the benchmark contract asks for.
func (r *result) MarshalJSON() ([]byte, error) {
	metrics := make(map[string]metricJSON, len(r.specs))
	for _, s := range r.specs {
		metrics[s.name] = metricJSON{Value: r.values[s.name], Unit: s.unit}
	}
	return json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int64                 `json:"attempted"`
		Failed    int64                 `json:"failed"`
		Metrics   map[string]metricJSON `json:"metrics"`
	}{r.correct, r.attempted, r.failed, metrics})
}

func main() {
	var (
		o       options
		seconds int
		trace   int
	)
	flag.StringVar(&o.workload, "workload", "stream-warm", "workload: stream-warm, first-contact or invoke-soap")
	flag.Int64Var(&o.seed, "seed", 1, "seed every generated input derives from")
	flag.IntVar(&seconds, "seconds", 10, "measured seconds per run")
	flag.IntVar(&trace, "trace", 0, "1: traced run reporting the per-layer metrics")
	flag.Parse()
	if seconds < 1 || (trace != 0 && trace != 1) || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "tripbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	o.duration = time.Duration(seconds) * time.Second
	o.trace = trace == 1
	if err := run(os.Stdout, o); err != nil {
		fmt.Fprintln(os.Stderr, "tripbench:", err)
		os.Exit(1)
	}
}

// run executes one run and prints its report, ending with the JSON
// result line.
func run(w io.Writer, o options) error {
	wl, err := findWorkload(o.workload)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "tripbench: workload=%s seed=%d seconds=%g trace=%v\n",
		wl.name, o.seed, o.duration.Seconds(), o.trace)
	ctx, _ := json.Marshal(runContext(o.seed))
	fmt.Fprintf(w, "context: %s\n", ctx)
	var r *result
	if o.trace {
		r, err = runTraced(w, wl, o.seed, o.duration)
	} else {
		r, err = runTimed(w, wl, o.seed, o.duration)
	}
	if err != nil {
		return err
	}
	for _, s := range r.specs {
		fmt.Fprintf(w, "%-38s %14.4f %s\n", s.name, r.values[s.name], s.unit)
	}
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", line)
	return nil
}

// runContext names the machine and settings a run's numbers belong to.
func runContext(seed int64) map[string]interface{} {
	return map[string]interface{}{
		"seed":       seed,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"cpu":        cpuModel(),
		"go":         runtime.Version(),
		"network":    "loopback TCP",
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// runTimed is the untraced run: repeated set-up, then the closed loop
// at the workload's ops in flight for d.
func runTimed(w io.Writer, wl workload, seed int64, d time.Duration) (*result, error) {
	var setups []float64
	var e env
	for i := 0; i < setupRepeats; i++ {
		start := time.Now()
		ne, err := wl.setup(seed, nil)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		if i < setupRepeats-1 {
			ne.close()
		} else {
			e = ne
		}
	}
	defer e.close()

	// The loop runs in windows; latency and throughput are medians
	// over the windows, which keeps a burst of load from outside the
	// benchmark from dragging a whole run.
	windows := int(d / window)
	if windows < 1 {
		windows = 1
	}
	m := newMeter(seed, nil)
	before := e.counters()
	var p50s, p90s, rates []float64
	samples := 0
	var ms0, ms1, ms2 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	for i := 0; i < windows; i++ {
		ws, ok0 := time.Now(), m.attempted.Load()-m.failed.Load()
		e.loop(m, ws.Add(d/time.Duration(windows)), wl.inflight)
		ok := m.attempted.Load() - m.failed.Load() - ok0
		rates = append(rates, float64(ok)/time.Since(ws).Seconds())
		p50, p90, n := m.lat.drain()
		p50s, p90s, samples = append(p50s, p50), append(p90s, p90), samples+n
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&ms1)
	runtime.GC()
	runtime.ReadMemStats(&ms2)
	delta := statsSum(e.counters(), before, -1)

	attempted, failed := m.attempted.Load(), m.failed.Load()
	ops := float64(attempted)
	r := &result{
		attempted: attempted,
		failed:    failed,
		specs:     endToEnd,
		values: map[string]float64{
			"setup_s":            median(setups),
			"ops_per_s":          median(rates),
			"lat_p50_us":         median(p50s),
			"lat_p90_us":         median(p90s),
			"ok_ratio":           ratio(float64(attempted-failed), ops),
			"wire_bytes_per_op":  ratio(float64(delta.BytesSent), ops),
			"alloc_bytes_per_op": ratio(float64(ms1.TotalAlloc-ms0.TotalAlloc), ops),
			"allocs_per_op":      ratio(float64(ms1.Mallocs-ms0.Mallocs), ops),
			"heap_live_mb":       float64(ms2.HeapAlloc) / (1 << 20),
		},
	}
	fmt.Fprintf(w, "set-up: median of %d set-ups\n", len(setups))
	fmt.Fprintf(w, "latency and throughput: medians over %d windows of %v; %d ops timed over %.3fs, about %d per window beyond its p90\n",
		windows, d/time.Duration(windows), samples, elapsed.Seconds(), samples/windows/10)
	fmt.Fprintf(w, "per-window ops/s: %.0f\n", rates)
	fmt.Fprintf(w, "fail_ratio: %g (%d of %d ops failed)\n", ratio(float64(failed), ops), failed, attempted)
	r.correct = verdict(w, attempted, failed, e.check())
	return r, nil
}

// verdict prints and returns whether a run's outputs were all correct.
func verdict(w io.Writer, attempted, failed int64, check error) bool {
	if check != nil {
		fmt.Fprintf(w, "accounting: %v\n", check)
	}
	return attempted > 0 && failed == 0 && check == nil
}

// runTraced is the per-layer run. Phase A runs the loop untraced with
// one op in flight, phase B runs it with observers on every peer and
// one op in flight, phase C times each module's public entry points
// on the workload's inputs. Each phase gets a share of d.
func runTraced(w io.Writer, wl workload, seed int64, d time.Duration) (*result, error) {
	phase := d * 3 / 10

	e, err := wl.setup(seed, nil)
	if err != nil {
		return nil, err
	}
	mA := newMeter(seed, nil)
	e.loop(mA, time.Now().Add(phase), 1)
	checkA := e.check()
	e.close()
	untracedP50, _, _ := mA.lat.drain()

	tr := newTracer()
	if e, err = wl.setup(seed, tr.observe); err != nil {
		return nil, err
	}
	mB := newMeter(seed, tr)
	before := e.counters()
	e.loop(mB, time.Now().Add(phase), 1)
	delta := statsSum(e.counters(), before, -1)
	rel, _ := e.reliable()
	checkB := e.check()
	e.close()
	rep := tr.report()

	layers, err := layerTimings(wl.layers(seed), (d-2*phase)/time.Duration(len(perLayer)/2))
	if err != nil {
		return nil, err
	}

	ops := float64(mB.attempted.Load())
	perOp := func(n uint64) float64 { return ratio(float64(n), ops) }
	values := map[string]float64{
		"transport.send_us":                  rep.p50["send"],
		"transport.link_us":                  rep.p50["link"],
		"transport.resolve_us":               rep.p50["resolve"],
		"transport.bind_us":                  rep.p50["bind"],
		"transport.handler_us":               rep.p50["handler"],
		"transport.unattributed_us":          rep.unattributed,
		"transport.request_us":               rep.p50["request"],
		"transport.reply_us":                 rep.p50["reply"],
		"transport.retransmits_per_op":       perOp(delta.RelRetransmits),
		"transport.fast_retransmits_per_op":  perOp(delta.RelFastRetransmits),
		"transport.nacks_per_op":             perOp(delta.RelNacksSent),
		"transport.dedup_per_op":             perOp(delta.RelDeduped),
		"transport.acks_per_op":              perOp(delta.RelAcksReceived),
		"transport.srtt_us":                  usOf(rel.SRTT),
		"transport.queue_peak":               float64(rel.QueuePeak),
		"transport.typeinfo_requests_per_op": perOp(delta.TypeInfoRequests),
		"transport.code_requests_per_op":     perOp(delta.CodeRequests),
		"transport.compiled_delivery_ratio":  ratio(float64(delta.CompiledDeliveries), float64(delta.ObjectsDelivered)),
		"transport.drops_per_op":             perOp(delta.ObjectsDropped),
		"transport.invokes_shed_per_op":      perOp(delta.InvokesShed),
		"conform.checks_per_op":              ratio(float64(rep.checks), float64(rep.n)),
		"trace.overhead_ratio":               ratio(rep.e2eP50, untracedP50),
	}
	for k, v := range layers {
		values[k] = v
	}

	fmt.Fprintf(w, "stage reconciliation (traced, one op in flight, %d ops):\n", rep.n)
	for _, s := range stageNames {
		fmt.Fprintf(w, "  %-10s p50 %10.3f us\n", s, rep.p50[s])
	}
	fmt.Fprintf(w, "  sum of stage p50s   %10.3f us\n", rep.sum)
	fmt.Fprintf(w, "  traced e2e p50      %10.3f us\n", rep.e2eP50)
	fmt.Fprintf(w, "  unattributed        %10.3f us (transport.unattributed_us)\n", rep.unattributed)
	fmt.Fprintf(w, "  untraced e2e p50    %10.3f us (%d ops)\n", untracedP50, mA.attempted.Load())
	fmt.Fprintf(w, "  trace.overhead_ratio %9.4f\n", values["trace.overhead_ratio"])

	attempted := mA.attempted.Load() + mB.attempted.Load()
	failed := mA.failed.Load() + mB.failed.Load()
	check := checkA
	if check == nil {
		check = checkB
	}
	return &result{
		correct:   verdict(w, attempted, failed, check),
		attempted: attempted,
		failed:    failed,
		specs:     perLayer,
		values:    values,
	}, nil
}
