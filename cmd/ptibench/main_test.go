package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"

	"pti/internal/benchfmt"
)

// TestMeasure verifies the timing helper's basic arithmetic.
func TestMeasure(t *testing.T) {
	calls := 0
	perOp := measure(2, 5, func() { calls++ })
	if calls != 10 {
		t.Errorf("calls = %d, want 10", calls)
	}
	if perOp < 0 {
		t.Errorf("perOp = %v", perOp)
	}
	// reps < 1 is clamped.
	calls = 0
	measure(0, 3, func() { calls++ })
	if calls != 3 {
		t.Errorf("clamped calls = %d", calls)
	}
}

func TestFmtDur(t *testing.T) {
	tests := []struct {
		d    time.Duration
		want string
	}{
		{500 * time.Nanosecond, "500ns"},
		{1500 * time.Nanosecond, "1.50µs"},
		{2 * time.Millisecond, "2.00ms"},
	}
	for _, tt := range tests {
		if got := fmtDur(tt.d); got != tt.want {
			t.Errorf("fmtDur(%v) = %q, want %q", tt.d, got, tt.want)
		}
	}
}

func TestRatio(t *testing.T) {
	if got := ratio(200*time.Nanosecond, 100*time.Nanosecond); got != "2x" {
		t.Errorf("ratio = %q", got)
	}
	if got := ratio(600*time.Nanosecond, time.Microsecond); got != "0.6x" {
		t.Errorf("sub-1 ratio = %q, want 0.6x", got)
	}
	if got := ratio(time.Second, 0); got != "n/a" {
		t.Errorf("zero ratio = %q", got)
	}
}

// TestRunMatchExperiment smoke-tests the cheapest full experiment.
func TestRunMatchExperiment(t *testing.T) {
	if err := run("match", 1); err != nil {
		t.Fatal(err)
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := run("nonsense", 1); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestPermutedPair(t *testing.T) {
	cand, exp := permutedPair(3)
	if len(cand.Methods[0].Params) != 3 || len(exp.Methods[0].Params) != 3 {
		t.Fatalf("arity wrong: %+v %+v", cand, exp)
	}
	// Reversed orders.
	for i := 0; i < 3; i++ {
		if cand.Methods[0].Params[i] != exp.Methods[0].Params[2-i] {
			t.Errorf("param %d not reversed", i)
		}
	}
}

// TestRunAllExperiments smoke-tests every experiment with minimal
// repetitions so the harness cannot bit-rot unnoticed.
func TestRunAllExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("full harness run in -short mode")
	}
	if err := run("all", 1); err != nil {
		t.Fatal(err)
	}
}

// TestBaselineMatchesDeclaredGates fails when a gate is edited here
// without regenerating the committed baseline with `make bench-json`,
// and when the baseline does not pass its own gates.
func TestBaselineMatchesDeclaredGates(t *testing.T) {
	base, err := benchfmt.Load("../../BENCH.json")
	if err != nil {
		t.Fatal(err)
	}
	var declared []benchfmt.Gate
	names := make(map[string]bool)
	for _, e := range experiments {
		for _, g := range e.gates {
			if names[g.Name] {
				t.Errorf("gate %q declared twice", g.Name)
			}
			names[g.Name] = true
		}
		declared = append(declared, e.gates...)
	}
	if diff := benchfmt.DiffGates(declared, base.Gates); diff != nil {
		t.Errorf("gates declared in ptibench differ from BENCH.json: %v (regenerate with make bench-json)", diff)
	}
	for _, r := range benchfmt.Evaluate(base, base) {
		if !r.OK {
			t.Errorf("BENCH.json fails its own check %s: %s", r.Name, r.Detail)
		}
	}
}

// TestWatchdogReportsHang runs a hung experiment in a child process
// and expects the watchdog to name it, print the stacks and exit 3.
func TestWatchdogReportsHang(t *testing.T) {
	if os.Getenv("PTIBENCH_WATCHDOG_CHILD") == "1" {
		watchdog("hung", 10*time.Millisecond)
		time.Sleep(time.Minute)
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestWatchdogReportsHang$")
	cmd.Env = append(os.Environ(), "PTIBENCH_WATCHDOG_CHILD=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 3 {
		t.Fatalf("child exited with %v, want status 3; output:\n%s", err, out)
	}
	for _, want := range []string{"experiment hung (seed 1)", "goroutine stacks", "TestWatchdogReportsHang"} {
		if !strings.Contains(string(out), want) {
			t.Errorf("watchdog output lacks %q:\n%s", want, out)
		}
	}
}
