// Command ptibench regenerates every experiment of the paper's
// evaluation (Section 7) plus design-choice ablations, printing
// paper-reported values next to measured ones. Absolute numbers
// differ (the paper ran .NET on a Pentium 3 laptop); the shape — who
// is slower, by roughly what factor — is the claim under
// reproduction.
//
// Usage:
//
//	ptibench                 # run everything
//	ptibench -exp 7.1        # invocation time
//	ptibench -exp 7.2        # type description (de)serialization
//	ptibench -exp 7.3        # object (de)serialization
//	ptibench -exp 7.4        # conformance testing
//	ptibench -exp transport  # Figure 1 protocol + optimistic vs eager
//	ptibench -exp ablations  # cache, permutations, name-only, descriptors
//	ptibench -exp scale      # one experiment by id (see run)
//	ptibench -exp gated -reps 2 -seed 42 -json BENCH.json
//	                         # the gated experiments' rows and gates,
//	                         # evaluated by cmd/benchdiff (make bench-check)
package main

import (
	"flag"
	"fmt"
	"os"
	"reflect"
	"runtime/pprof"
	"strings"
	"time"

	"pti/internal/benchfmt"
)

var (
	seed    = flag.Int64("seed", 1, "fabric seed for the fabric experiments (replays the fault schedule)")
	jsonOut = flag.String("json", "", "write the rows and gates of the gated experiments run to this JSON file")
)

func main() {
	exp := flag.String("exp", "all", "experiment to run: all, gated, or one id (7.1, 7.2, 7.3, 7.4, transport, scenario, fanout, invoke, recv, churn, scale, registry, match, ablations)")
	reps := flag.Int("reps", 5, "repetitions per measurement (averaged)")
	flag.Parse()

	if err := run(*exp, *reps); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// experiment is one ptibench experiment. A gated experiment returns
// rows and declares the gates cmd/benchdiff holds them to.
type experiment struct {
	id, name string
	fn       func(reps int) ([]benchfmt.Row, error)
	gates    []benchfmt.Gate
}

var experiments = []experiment{
	{"7.1", "Invocation time (direct vs dynamic proxy)", ungated(exp71), nil},
	{"7.2", "Type description creation + (de)serialization", ungated(exp72), nil},
	{"7.3", "Object (de)serialization (SOAP and binary)", ungated(exp73), nil},
	{"7.4", "Conformance testing", ungated(exp74), nil},
	{"transport", "Figure 1 protocol + optimistic vs eager", ungated(expTransport), nil},
	{"scenario", "Fabric fault-profile scenarios (delivery + match rate)", expScenario, scenarioGates()},
	{"fanout", "Broadcast fan-out over the async send pipeline (queue/RTO/NACK)", expFanout, fanoutGates()},
	{"invoke", "Pipelined invoke path under load (latency/goodput/shedding)", expInvoke, invokeGates()},
	{"recv", "Compiled receive path (decode + end-to-end unmarshal)", expRecv, recvGates()},
	{"churn", "Connection-lifecycle churn (crash/restart waves, session resume)", expChurn, churnGates()},
	{"scale", "Fabric scalability (fan-out + crash wave at two fleet sizes)", expScale, scaleGates()},
	{"registry", "Durable registry store (cold vs warm restart)", expRegistry, registryGates()},
	{"match", "Conformance relation match rates (Section 2 comparisons)", ungated(expMatchRate), nil},
	{"ablations", "Design-choice ablations", ungated(expAblations), nil},
}

func ungated(fn func(reps int) error) func(int) ([]benchfmt.Row, error) {
	return func(reps int) ([]benchfmt.Row, error) { return nil, fn(reps) }
}

// experimentDeadline bounds one experiment's wall time. The gated
// experiments take about 10 s together on a 2-vCPU machine, and the
// slowest legitimate run, scale, stays inside two 120 s wall budgets,
// so an experiment past the deadline is hung: the watchdog reports it
// instead of letting it run into a CI job timeout.
const experimentDeadline = 5 * time.Minute

func run(exp string, reps int) error {
	doc := benchfmt.Doc{Seed: *seed, Env: benchfmt.CurrentEnv()}
	ran := false
	for _, e := range experiments {
		if exp != "all" && exp != e.id && (exp != "gated" || e.gates == nil) {
			continue
		}
		ran = true
		fmt.Printf("\n=== Experiment %s: %s ===\n", e.id, e.name)
		stop := watchdog(e.id, experimentDeadline)
		rows, err := e.fn(reps)
		stop()
		if err != nil {
			return fmt.Errorf("experiment %s: %w", e.id, err)
		}
		doc.Rows = append(doc.Rows, rows...)
		doc.Gates = append(doc.Gates, e.gates...)
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q", exp)
	}
	if *jsonOut != "" {
		if err := doc.Write(*jsonOut); err != nil {
			return err
		}
		fmt.Printf("  wrote %s\n", *jsonOut)
	}
	fmt.Println()
	return nil
}

// watchdog exits the process with status 3 if it is not stopped
// within d, after printing the experiment, the seed and every
// goroutine's stack to stderr.
func watchdog(id string, d time.Duration) (stop func()) {
	t := time.AfterFunc(d, func() {
		fmt.Fprintf(os.Stderr, "ptibench: experiment %s (seed %d) still running after %s; goroutine stacks:\n", id, *seed, d)
		_ = pprof.Lookup("goroutine").WriteTo(os.Stderr, 2)
		os.Exit(3)
	})
	return func() { t.Stop() }
}

// benchRow turns an experiment's result struct into a bench row: each
// numeric field becomes a metric under its JSON name, skipping zero
// values tagged omitempty.
func benchRow(exp, name string, v any) benchfmt.Row {
	rv := reflect.Indirect(reflect.ValueOf(v))
	metrics := make(map[string]float64, rv.NumField())
	for i := 0; i < rv.NumField(); i++ {
		key, opts, _ := strings.Cut(rv.Type().Field(i).Tag.Get("json"), ",")
		f := rv.Field(i)
		switch {
		case f.IsZero() && opts == "omitempty":
		case f.CanInt():
			metrics[key] = float64(f.Int())
		case f.CanUint():
			metrics[key] = float64(f.Uint())
		case f.CanFloat():
			metrics[key] = f.Float()
		}
	}
	return benchfmt.Row{Experiment: exp, Name: name, Metrics: metrics}
}

// measure runs f iters times per repetition, reps repetitions, and
// returns the average time per operation.
func measure(reps, iters int, f func()) time.Duration {
	if reps < 1 {
		reps = 1
	}
	var total time.Duration
	for r := 0; r < reps; r++ {
		start := time.Now()
		for i := 0; i < iters; i++ {
			f()
		}
		total += time.Since(start)
	}
	return total / time.Duration(reps*iters)
}

// row prints one aligned result row.
func row(label string, paper string, measured string, note string) {
	fmt.Printf("  %-44s paper: %-14s measured: %-14s %s\n", label, paper, measured, note)
}

func fmtDur(d time.Duration) string {
	switch {
	case d < time.Microsecond:
		return fmt.Sprintf("%dns", d.Nanoseconds())
	case d < time.Millisecond:
		return fmt.Sprintf("%.2fµs", float64(d.Nanoseconds())/1e3)
	default:
		return fmt.Sprintf("%.2fms", float64(d.Nanoseconds())/1e6)
	}
}

// ratio prints slow/fast as a multiplier: whole numbers from 10 up,
// two significant digits below, so a shape below 1 (0.6x) does not
// round to "1x".
func ratio(slow, fast time.Duration) string {
	if fast <= 0 {
		return "n/a"
	}
	r := float64(slow) / float64(fast)
	if r < 10 {
		return fmt.Sprintf("%.2gx", r)
	}
	return fmt.Sprintf("%.0fx", r)
}
