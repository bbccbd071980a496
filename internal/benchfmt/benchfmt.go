// Package benchfmt is the one bench artifact format: the rows the
// gated ptibench experiments emit, the gates declared beside them,
// and the evaluator cmd/benchdiff applies to a fresh run.
//
// A gate is data. It checks an exact value, a budget, a range, a
// ratio between two metrics of the same run, or the drift from the
// committed baseline. Timings are compared only as ratios within one
// run, never as raw numbers across machines.
package benchfmt

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"strings"
)

// Doc is one seeded run of the gated experiments.
type Doc struct {
	Seed  int64  `json:"seed"`
	Env   Env    `json:"env"`
	Rows  []Row  `json:"rows"`
	Gates []Gate `json:"gates"`
}

// Env names the machine a Doc was measured on. No gate reads it.
type Env struct {
	Go         string `json:"go"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

// Row is one measured cell of an experiment.
type Row struct {
	Experiment string             `json:"experiment"`
	Name       string             `json:"name"`
	Metrics    map[string]float64 `json:"metrics"`
}

// Key identifies a row across runs as "experiment/name".
func (r Row) Key() string { return r.Experiment + "/" + r.Name }

// Ref names one metric of the row with key Row, read from the
// candidate unless Baseline is set.
type Ref struct {
	Row      string `json:"row"`
	Metric   string `json:"metric"`
	Baseline bool   `json:"baseline,omitempty"`
}

// Kind selects how a gate judges the value v of its Ref.
type Kind string

// The gate kinds.
const (
	Exact Kind = "exact" // v == Value
	Max   Kind = "max"   // v <= Value
	Range Kind = "range" // Value <= v <= Hi
	Ratio Kind = "ratio" // v Op Value × (value of Of), and Of > 0
	Drift Kind = "drift" // |v - the baseline's v| <= Value
)

// Gate is one named invariant on a run's rows. Op is one of "<",
// "<=", "==" and ">=".
type Gate struct {
	Name  string  `json:"name"`
	Kind  Kind    `json:"kind"`
	Ref   Ref     `json:"ref"`
	Op    string  `json:"op,omitempty"`
	Value float64 `json:"value"`
	Hi    float64 `json:"hi,omitempty"`
	Of    *Ref    `json:"of,omitempty"`
}

// NewGate declares the gate "<row> <what>" on one metric of the row
// with key row.
func NewGate(row, what string, kind Kind, metric string, value float64) Gate {
	return Gate{Name: row + " " + what, Kind: kind, Ref: Ref{Row: row, Metric: metric}, Value: value}
}

// NewRatio declares the ratio gate "<row> <what>":
// row.metric op factor × ofRow.ofMetric.
func NewRatio(row, what, metric, op string, factor float64, ofRow, ofMetric string) Gate {
	g := NewGate(row, what, Ratio, metric, factor)
	g.Op, g.Of = op, &Ref{Row: ofRow, Metric: ofMetric}
	return g
}

// Result is the verdict on one gate or one structural check.
type Result struct {
	Name   string
	OK     bool
	Detail string
}

// CurrentEnv describes the running machine.
func CurrentEnv() Env {
	return Env{
		Go:         runtime.Version(),
		OS:         runtime.GOOS,
		Arch:       runtime.GOARCH,
		CPU:        cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
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

// Load reads a Doc. It rejects a doc without rows or gates: a
// baseline without gates would pass any candidate.
func Load(path string) (Doc, error) {
	var d Doc
	data, err := os.ReadFile(path)
	if err != nil {
		return d, err
	}
	if err := json.Unmarshal(data, &d); err != nil {
		return d, fmt.Errorf("%s: %w", path, err)
	}
	if len(d.Rows) == 0 || len(d.Gates) == 0 {
		return d, fmt.Errorf("%s: %d rows and %d gates, want both nonzero", path, len(d.Rows), len(d.Gates))
	}
	return d, nil
}

// Write stores d as indented JSON.
func (d Doc) Write(path string) error {
	data, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Evaluate applies base's gates to cand. It first checks that the
// two runs are comparable: the same seed, the same gate set and the
// same row keys. A gate that reads a baseline row missing from cand
// is not evaluated, because the rows check already fails on that row.
func Evaluate(base, cand Doc) []Result {
	baseRows, candRows := index(base.Rows), index(cand.Rows)
	missing, extra := missingKeys(baseRows, candRows), missingKeys(candRows, baseRows)
	differing := DiffGates(base.Gates, cand.Gates)
	res := []Result{
		{"seed", base.Seed == cand.Seed, fmt.Sprintf("baseline %d, candidate %d", base.Seed, cand.Seed)},
		{"gate set", len(differing) == 0, fmt.Sprintf("%d gates, differing %v", len(base.Gates), differing)},
		{"rows", len(missing)+len(extra) == 0,
			fmt.Sprintf("%d rows, missing from candidate %v, not in baseline %v", len(base.Rows), missing, extra)},
	}
	dropped := func(r Ref) bool {
		_, inBase := baseRows[r.Row]
		_, inCand := candRows[r.Row]
		return inBase && !inCand && !r.Baseline
	}
	for _, g := range base.Gates {
		if dropped(g.Ref) || g.Of != nil && dropped(*g.Of) {
			continue
		}
		res = append(res, g.eval(baseRows, candRows))
	}
	return res
}

func (g Gate) eval(base, cand map[string]Row) Result {
	fail := func(err error) Result { return Result{g.Name, false, err.Error()} }
	v, err := lookup(g.Ref, base, cand)
	if err != nil {
		return fail(err)
	}
	var ok bool
	var want string
	switch g.Kind {
	case Exact:
		ok, want = v == g.Value, fmt.Sprintf("== %g", g.Value)
	case Max:
		ok, want = v <= g.Value, fmt.Sprintf("<= %g", g.Value)
	case Range:
		ok, want = g.Value <= v && v <= g.Hi, fmt.Sprintf("in [%g, %g]", g.Value, g.Hi)
	case Drift:
		b, err := lookup(Ref{Row: g.Ref.Row, Metric: g.Ref.Metric, Baseline: true}, base, cand)
		if err != nil {
			return fail(err)
		}
		ok, want = math.Abs(v-b) <= g.Value, fmt.Sprintf("within %g of baseline %g", g.Value, b)
	case Ratio:
		if g.Of == nil {
			return fail(errors.New("ratio gate has no of"))
		}
		o, err := lookup(*g.Of, base, cand)
		if err != nil {
			return fail(err)
		}
		ok = o > 0 && compare(v, g.Op, g.Value*o)
		want = fmt.Sprintf("%s %g × %s %g", g.Op, g.Value, g.Of.Metric, o)
	default:
		return fail(fmt.Errorf("unknown gate kind %q", g.Kind))
	}
	return Result{g.Name, ok, fmt.Sprintf("%s %g, want %s", g.Ref.Metric, v, want)}
}

func compare(v float64, op string, bound float64) bool {
	switch op {
	case "<":
		return v < bound
	case "<=":
		return v <= bound
	case "==":
		return v == bound
	case ">=":
		return v >= bound
	}
	return false
}

func lookup(r Ref, base, cand map[string]Row) (float64, error) {
	rows, side := cand, "candidate"
	if r.Baseline {
		rows, side = base, "baseline"
	}
	v, ok := rows[r.Row].Metrics[r.Metric]
	if !ok {
		return 0, fmt.Errorf("%s has no metric %s of row %s", side, r.Metric, r.Row)
	}
	return v, nil
}

// DiffGates returns the sorted names of the gates that only one of a
// and b defines, counting a changed definition as one on each side.
// It returns nil when the two sets are equal.
func DiffGates(a, b []Gate) []string {
	count := make(map[string]int)
	for _, g := range a {
		count[g.String()]++
	}
	for _, g := range b {
		count[g.String()]--
	}
	var names []string
	for _, g := range append(a[:len(a):len(a)], b...) {
		if count[g.String()] != 0 {
			names = append(names, g.Name)
		}
	}
	slices.Sort(names)
	return slices.Compact(names)
}

// String renders the whole definition, so equal strings mean equal gates.
func (g Gate) String() string {
	var of Ref
	if g.Of != nil {
		of = *g.Of
	}
	type plain Gate // drops the String method
	p := plain(g)
	p.Of = nil
	return fmt.Sprintf("%+v of %+v", p, of)
}

func index(rows []Row) map[string]Row {
	m := make(map[string]Row, len(rows))
	for _, r := range rows {
		m[r.Key()] = r
	}
	return m
}

// missingKeys returns the sorted keys of want that got lacks.
func missingKeys(want, got map[string]Row) []string {
	var keys []string
	for k := range want {
		if _, ok := got[k]; !ok {
			keys = append(keys, k)
		}
	}
	slices.Sort(keys)
	return keys
}
