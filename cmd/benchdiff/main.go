// Command benchdiff is the bench-regression gate. It applies the
// gates of a committed baseline (BENCH.json, written by `make
// bench-json`) to a freshly generated candidate and prints one
// `ok` or `FAIL` line per gate. The gates themselves are declared in
// cmd/ptibench beside the experiments that emit the rows; see
// internal/benchfmt for the gate kinds.
//
// It fails when the seeds differ, when a row is missing from or new
// in the candidate, when the two files declare different gate sets
// (regenerate and commit the baseline), or when any gate fails.
//
// Usage:
//
//	benchdiff -baseline BENCH.json -candidate /tmp/bench.json
package main

import (
	"flag"
	"fmt"
	"os"

	"pti/internal/benchfmt"
)

func main() {
	baseline := flag.String("baseline", "BENCH.json", "committed bench artifact whose gates apply")
	candidate := flag.String("candidate", "", "freshly generated bench artifact")
	flag.Parse()
	if *candidate == "" {
		fmt.Fprintln(os.Stderr, "benchdiff: -candidate is required")
		os.Exit(2)
	}
	base, err := benchfmt.Load(*baseline)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	cand, err := benchfmt.Load(*candidate)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	results := benchfmt.Evaluate(base, cand)
	if failed := report(results); failed > 0 {
		fmt.Printf("benchdiff: %d of %d checks failed against %s\n", failed, len(results), *baseline)
		os.Exit(1)
	}
	fmt.Printf("benchdiff: %d checks pass against %s\n", len(results), *baseline)
}

// report prints one line per result and returns the number failed.
func report(results []benchfmt.Result) int {
	failed := 0
	for _, r := range results {
		status := "ok  "
		if !r.OK {
			status = "FAIL"
			failed++
		}
		fmt.Printf("%s %-50s %s\n", status, r.Name, r.Detail)
	}
	return failed
}
