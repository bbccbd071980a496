package main

import (
	"sort"
	"sync"
	"time"

	"pti/internal/transport"
)

// The traced run timestamps the protocol events both peers publish
// through the public WithObserver hook and cuts each op into stages at
// those layer boundaries. Events carry no op identity, so the traced
// run keeps one op in flight: every event between an op's begin and
// its completion belongs to it.

// Stage names, in the order an op passes them. A delivery runs
// send → link → resolve → bind → handler; an invocation runs
// request → reply. Each stage ends where the next begins, so the
// stages of one op add up to its end-to-end time exactly.
var stageNames = []string{"send", "link", "resolve", "bind", "handler", "request", "reply"}

type traceEvent struct {
	kind transport.EventKind
	at   time.Time
}

// tracer records events into memory and folds each finished op into
// per-stage duration samples (microseconds).
type tracer struct {
	mu     sync.Mutex
	events []traceEvent

	stages map[string][]float64
	e2e    []float64
	checks int // conformance-checked events over all finished ops
}

func newTracer() *tracer {
	return &tracer{events: make([]traceEvent, 0, 64), stages: make(map[string][]float64)}
}

// observe is the transport.Observer both peers run.
func (t *tracer) observe(ev transport.Event) {
	at := time.Now()
	t.mu.Lock()
	t.events = append(t.events, traceEvent{ev.Kind, at})
	t.mu.Unlock()
}

// begin starts a new op: events recorded so far are discarded.
func (t *tracer) begin() {
	t.mu.Lock()
	t.events = t.events[:0]
	t.mu.Unlock()
}

// find returns the first (or last) recorded event of kind.
func find(evs []traceEvent, kind transport.EventKind, last bool) (time.Time, bool) {
	var at time.Time
	found := false
	for _, e := range evs {
		if e.kind == kind {
			at, found = e.at, true
			if !last {
				break
			}
		}
	}
	return at, found
}

// finishObject folds a delivery sent at t0 whose handler returned at
// end. It reports false when a boundary event is missing.
func (t *tracer) finishObject(t0, end time.Time) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	sent, ok1 := find(t.events, transport.EventObjectSent, false)
	recv, ok2 := find(t.events, transport.EventObjectReceived, false)
	checked, ok3 := find(t.events, transport.EventConformanceChecked, true)
	delivered, ok4 := find(t.events, transport.EventDelivered, false)
	if !(ok1 && ok2 && ok3 && ok4) {
		return false
	}
	for _, e := range t.events {
		if e.kind == transport.EventConformanceChecked {
			t.checks++
		}
	}
	t.add("send", sent.Sub(t0))
	t.add("link", recv.Sub(sent))
	t.add("resolve", checked.Sub(recv))
	t.add("bind", delivered.Sub(checked))
	t.add("handler", end.Sub(delivered))
	t.e2e = append(t.e2e, usOf(end.Sub(t0)))
	return true
}

// finishCall folds an invocation started at t0 that returned at end.
func (t *tracer) finishCall(t0, end time.Time) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	invoked, ok := find(t.events, transport.EventInvoked, false)
	if !ok {
		return false
	}
	t.add("request", invoked.Sub(t0))
	t.add("reply", end.Sub(invoked))
	t.e2e = append(t.e2e, usOf(end.Sub(t0)))
	return true
}

func (t *tracer) add(stage string, d time.Duration) {
	t.stages[stage] = append(t.stages[stage], usOf(d))
}

// stageReport is the reconciliation of one traced run.
type stageReport struct {
	p50          map[string]float64 // per stage, 0 for stages the workload never passes
	n            int                // traced ops
	e2eP50       float64
	sum          float64 // sum of the stage p50s
	unattributed float64 // e2eP50 - sum
	checks       int
}

func (t *tracer) report() stageReport {
	t.mu.Lock()
	defer t.mu.Unlock()
	r := stageReport{p50: make(map[string]float64), n: len(t.e2e), checks: t.checks}
	for _, name := range stageNames {
		s := append([]float64(nil), t.stages[name]...)
		sort.Float64s(s)
		r.p50[name] = percentile(s, 0.5)
		r.sum += r.p50[name]
	}
	e := append([]float64(nil), t.e2e...)
	sort.Float64s(e)
	r.e2eP50 = percentile(e, 0.5)
	r.unattributed = r.e2eP50 - r.sum
	return r
}
