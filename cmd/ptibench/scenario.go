package main

import (
	"fmt"
	"time"

	"pti/internal/benchfmt"
	"pti/internal/fixtures"
	"pti/internal/registry"
	"pti/internal/transport"
)

// scenarioResult is one (profile, mode) row of the scenario
// experiment.
type scenarioResult struct {
	Profile      string  `json:"profile"`
	Reliable     bool    `json:"reliable"`
	Sent         uint64  `json:"sent"`
	Received     uint64  `json:"received"`
	Delivered    uint64  `json:"delivered"`
	Dropped      uint64  `json:"dropped"`
	MatchRate    float64 `json:"match_rate"`
	TypeInfoReqs uint64  `json:"type_info_requests"`
	CodeReqs     uint64  `json:"code_requests"`
	FramesLost   uint64  `json:"frames_lost"`
	FramesDuped  uint64  `json:"frames_duplicated"`
	Retransmits  uint64  `json:"retransmits"`      // timer resends
	FastRetrans  uint64  `json:"fast_retransmits"` // resends on NACK
	Nacks        uint64  `json:"nacks"`
	Deduped      uint64  `json:"deduped"`
	ElapsedMs    float64 `json:"elapsed_ms"`
}

var scenarioProfiles = []struct {
	name string
	prof transport.FaultProfile
	note string
}{
	{"perfect", transport.FaultProfile{},
		"baseline: every object must land"},
	{"latency-2ms", transport.FaultProfile{
		Latency: 2 * time.Millisecond, Jitter: time.Millisecond},
		"pure delay: at-most-once regime, zero loss"},
	{"lossy-10pct", transport.FaultProfile{
		Latency: 200 * time.Microsecond, DropRate: 0.10},
		"drops hit objects and protocol round trips alike"},
	{"lossy-30pct", transport.FaultProfile{
		Latency: 200 * time.Microsecond, DropRate: 0.30},
		"heavy loss: match rate collapses without retry"},
	{"dup-reorder", transport.FaultProfile{
		Latency: 200 * time.Microsecond, DupRate: 0.10, ReorderRate: 0.25},
		"duplicates re-check against the cache; reorder delays only"},
	{"bandwidth-256KBps", transport.FaultProfile{
		Bandwidth: 256 * 1024},
		"shaped link: delivery spread over transmission time"},
}

// scenarioGates: with the reliable layer on, every profile must
// deliver exactly once — the guarantee is binary, so any drift from
// 1.0 is a dedup or retransmit bug. Without it, the match rate
// follows the seeded fault schedule, and protocol-retry timing moves
// it a little. A lossless link never loses a frame and the sender
// writes first transmissions in seq order, so perfect+rel must never
// report a gap or repair one.
func scenarioGates() []benchfmt.Gate {
	var gates []benchfmt.Gate
	for _, p := range scenarioProfiles {
		gates = append(gates,
			benchfmt.NewGate("scenario/"+p.name, "match drift", benchfmt.Drift, "match_rate", 0.10),
			benchfmt.NewGate("scenario/"+p.name+"+rel", "exactly once", benchfmt.Exact, "match_rate", 1))
	}
	return append(gates,
		benchfmt.NewGate("scenario/perfect+rel", "no gap reports", benchfmt.Exact, "nacks", 0),
		benchfmt.NewGate("scenario/perfect+rel", "no fast retransmits", benchfmt.Exact, "fast_retransmits", 0))
}

// expScenario drives the optimistic protocol across the simulation
// fabric's fault profiles on the virtual clock and reports delivery
// counts and match rate (delivered/published) under each, with the
// reliable delivery layer off and then on. All randomness derives
// from -seed; a surprising result replays exactly by re-running with
// the printed seed.
func expScenario(reps int) ([]benchfmt.Row, error) {
	objects := 50 * reps
	var rows []benchfmt.Row
	fmt.Printf("  fabric seed: %d (rerun with -seed %d to replay)  [virtual clock]\n", *seed, *seed)
	fmt.Printf("  %-24s %8s %9s %10s %8s %8s %8s %8s %8s %8s\n",
		"profile", "sent", "received", "delivered", "match", "retrans", "fast", "nacks", "deduped", "elapsed")
	for _, pr := range scenarioProfiles {
		for _, rel := range []bool{false, true} {
			res, err := runScenario(pr.name, pr.prof, rel, objects)
			if err != nil {
				return nil, err
			}
			name := pr.name
			if rel {
				name += "+rel"
			}
			fmt.Printf("  %-24s %8d %9d %10d %7.0f%% %8d %8d %8d %8d %8s  %s\n",
				name, res.Sent, res.Received, res.Delivered, res.MatchRate*100,
				res.Retransmits, res.FastRetrans, res.Nacks, res.Deduped,
				fmtDur(time.Duration(res.ElapsedMs*1e6)), pr.note)
			rows = append(rows, benchRow("scenario", name, res))
		}
	}
	return rows, nil
}

// runScenario runs one (profile, reliability) cell: a publisher and a
// subscriber with divergent registries, `objects` publications, then
// quiesce and account.
func runScenario(name string, prof transport.FaultProfile, rel bool, objects int) (scenarioResult, error) {
	f := transport.NewFabric(*seed, transport.WithVirtualClock())
	defer func() { _ = f.Close() }()

	peerOpts := []transport.PeerOption{transport.WithRequestTimeout(250 * time.Millisecond)}
	if rel {
		// Reliability needs room for retransmit round trips before the
		// request-timeout failsafe fires.
		peerOpts = []transport.PeerOption{
			transport.WithRequestTimeout(2 * time.Second),
			transport.WithReliableLinks(transport.WithRetransmitTimeout(5 * time.Millisecond)),
		}
	}
	regA := registry.New()
	if _, err := regA.Register(fixtures.PersonB{},
		registry.WithConstructor("NewPersonB", fixtures.NewPersonB)); err != nil {
		return scenarioResult{}, err
	}
	regB := registry.New()
	if _, err := regB.Register(fixtures.PersonA{},
		registry.WithConstructor("NewPersonA", fixtures.NewPersonA)); err != nil {
		return scenarioResult{}, err
	}
	na, err := f.AddPeerWithRegistry("pub", regA, peerOpts...)
	if err != nil {
		return scenarioResult{}, err
	}
	nb, err := f.AddPeerWithRegistry("sub", regB, peerOpts...)
	if err != nil {
		return scenarioResult{}, err
	}
	if _, _, err := f.Connect("pub", "sub", prof); err != nil {
		return scenarioResult{}, err
	}
	// Delivery counts come from the peer's Stats; the handler only
	// has to exist for the interest to match.
	if err := nb.Peer().OnReceive(fixtures.PersonA{}, func(transport.Delivery) {}); err != nil {
		return scenarioResult{}, err
	}
	conn, _ := na.ConnTo("sub")

	start := time.Now()
	for i := 0; i < objects; i++ {
		if err := na.Peer().SendObject(conn, fixtures.PersonB{
			PersonName: "bench", PersonAge: i,
		}); err != nil {
			return scenarioResult{}, err
		}
	}
	// Quiesce: receptions resolve to delivered or dropped. With
	// reliability on, wait for the retransmit machinery to land every
	// object.
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		st := nb.Peer().Stats().Snapshot()
		if rel && st.ObjectsDelivered+st.ObjectsDropped < uint64(objects) {
			time.Sleep(5 * time.Millisecond)
			continue
		}
		if st.ObjectsReceived > 0 && st.ObjectsReceived == st.ObjectsDelivered+st.ObjectsDropped {
			// One extra settle pass for frames still in flight.
			time.Sleep(20 * time.Millisecond)
			st2 := nb.Peer().Stats().Snapshot()
			if st2.ObjectsReceived == st.ObjectsReceived {
				break
			}
			continue
		}
		time.Sleep(5 * time.Millisecond)
	}
	elapsed := time.Since(start)

	st := nb.Peer().Stats().Snapshot()
	pubSt := na.Peer().Stats().Snapshot()
	fs := f.Stats()
	return scenarioResult{
		Profile:      name,
		Reliable:     rel,
		Sent:         uint64(objects),
		Received:     st.ObjectsReceived,
		Delivered:    st.ObjectsDelivered,
		Dropped:      st.ObjectsDropped,
		MatchRate:    float64(st.ObjectsDelivered) / float64(objects),
		TypeInfoReqs: st.TypeInfoRequests,
		CodeReqs:     st.CodeRequests,
		FramesLost:   fs.FramesDropped,
		FramesDuped:  fs.FramesDuplicated,
		Retransmits:  pubSt.RelRetransmits + st.RelRetransmits,
		FastRetrans:  pubSt.RelFastRetransmits + st.RelFastRetransmits,
		Nacks:        pubSt.RelNacksSent + st.RelNacksSent,
		Deduped:      st.RelDeduped + pubSt.RelDeduped,
		ElapsedMs:    float64(elapsed.Nanoseconds()) / 1e6,
	}, nil
}
