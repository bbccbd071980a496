package main

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"pti/internal/benchfmt"
	"pti/internal/fixtures"
	"pti/internal/registry"
	"pti/internal/transport"
)

// The scale experiment measures the fabric's scalability: the one
// frame scheduler, the O(1) busy probe and the lazily spawned reliable
// loops, exercised by broadcast fan-out plus a crash wave at two fleet
// sizes.

// scaleRow is one measured fleet size. ResidentGoroutines is the
// median over rounds of the goroutines alive once a round's
// deliveries have settled and been acked, and GoroutinesPerPeer
// divides it by the fleet; PeakGoroutines, sampled during the broadcast bursts, is
// reported but not gated, because a burst's transient handler and
// sender-loop goroutines swing it from run to run. Duplicates counts
// repeat deliveries within one incarnation, which exactly-once
// forbids; MaxRedelivered is the largest number of messages any
// subscriber got again in a later incarnation, the documented
// at-least-once across a crash.
type scaleRow struct {
	Peers              int     `json:"peers"`
	Messages           int     `json:"messages"`
	MatchRate          float64 `json:"match_rate"`
	Duplicates         int     `json:"duplicates"`
	MaxRedelivered     int     `json:"max_redelivered"`
	PeakGoroutines     int     `json:"peak_goroutines"`
	ResidentGoroutines int     `json:"resident_goroutines"`
	GoroutinesPerPeer  float64 `json:"goroutines_per_peer"`
	SchedFrames        uint64  `json:"sched_frames"`
	SchedOpsPerFrame   float64 `json:"sched_ops_per_frame"`
	PeersPerVirtualS   float64 `json:"peers_per_virtual_sec"`
	ElapsedVirtualMs   float64 `json:"elapsed_virtual_ms"`
	ElapsedWallMs      float64 `json:"elapsed_wall_ms"`
}

// scaleFleets are the subscriber counts, smallest first.
var scaleFleets = []int{150, 600}

// scaleWallBudgetMs is the committed CI-viability budget per run:
// generous against machine variance, tight against complexity
// regressions — a scheduler or busy probe that went O(peers·links)
// again blows it by an order of magnitude.
const scaleWallBudgetMs = 120000

// scaleOpsCeiling bounds scheduler heap ops per delivered frame. The
// steady state is exactly 2 (one push, one pop); modest headroom
// covers frames abandoned in the heap at teardown, while a scheduler
// that re-sorts or thrashes overshoots immediately.
const scaleOpsCeiling = 2.25

// scaleRedeliveryCeiling bounds one subscriber's cross-incarnation
// overlap: a crash can only lose the acks of frames its publisher
// still had in flight, at most the reliable window (default 32).
const scaleRedeliveryCeiling = 32

// scaleGoroutineSlack bounds the per-peer goroutine cost at the
// larger fleet as a multiple of the smaller fleet's: headroom for
// runtime background goroutines, while per-link parked goroutines
// creeping back would roughly double the per-peer cost.
const scaleGoroutineSlack = 1.3

// scaleGates: scale must not cost the exactly-once contract within an
// incarnation, and a crash may redeliver at most one window; each run
// must finish inside the CI wall-clock budget; the scheduler must stay
// at ~2 heap ops per frame; and resident goroutines must grow
// sublinearly in peers, because the fabric runs one scheduler
// goroutine and idle reliable links hold none.
func scaleGates() []benchfmt.Gate {
	var gates []benchfmt.Gate
	for i, n := range scaleFleets {
		r := fmt.Sprintf("scale/scale-%d", n)
		ops := benchfmt.NewGate(r, "sched ops per frame", benchfmt.Range, "sched_ops_per_frame", 1)
		ops.Hi = scaleOpsCeiling
		gates = append(gates,
			benchfmt.NewGate(r, "exactly once", benchfmt.Exact, "match_rate", 1),
			benchfmt.NewGate(r, "duplicates", benchfmt.Exact, "duplicates", 0),
			benchfmt.NewGate(r, "redelivered within window", benchfmt.Max, "max_redelivered", scaleRedeliveryCeiling),
			benchfmt.NewGate(r, "wall budget", benchfmt.Max, "elapsed_wall_ms", scaleWallBudgetMs),
			ops)
		if i > 0 {
			gates = append(gates, benchfmt.NewRatio(r, "goroutines per peer sublinear", "goroutines_per_peer", "<=",
				scaleGoroutineSlack, fmt.Sprintf("scale/scale-%d", scaleFleets[i-1]), "goroutines_per_peer"))
		}
	}
	return gates
}

// expScale runs the broadcast fan-out + crash wave soak at each fleet
// size on the virtual clock and reports delivery, goroutine and
// scheduler-cost metrics.
func expScale(reps int) ([]benchfmt.Row, error) {
	fmt.Printf("  fabric seed: %d (rerun with -seed %d to replay)  [virtual clock]\n", *seed, *seed)
	var rows []benchfmt.Row
	for _, subs := range scaleFleets {
		r, err := runScale(subs)
		if err != nil {
			return nil, err
		}
		name := fmt.Sprintf("scale-%d", subs)
		fmt.Printf("  %-12s match %.0f%%  dups %d  maxRedelivered %d  residentGoroutines %d (%.2f/peer)  peak %d  schedOps/frame %.2f  virtual %.0fms  wall %.0fms (budget %.0fms)\n",
			name, r.MatchRate*100, r.Duplicates, r.MaxRedelivered, r.ResidentGoroutines,
			r.GoroutinesPerPeer, r.PeakGoroutines, r.SchedOpsPerFrame,
			r.ElapsedVirtualMs, r.ElapsedWallMs, float64(scaleWallBudgetMs))
		rows = append(rows, benchRow("scale", name, r))
	}
	return rows, nil
}

// runScale is one full scale run: nSubs subscribers split across
// publishers (≤125 managed links each), four rounds of broadcast
// fan-out with a 10% crash wave between rounds one and three. After
// each round but the first it waits until every running subscriber
// holds every message published so far and has acked it, then
// samples the resident goroutines.
func runScale(nSubs int) (scaleRow, error) {
	nPubs := (nSubs + 124) / 125
	if nPubs < 2 {
		nPubs = 2
	}
	rounds, perRound := 4, 4
	total := rounds * perRound
	wallStart := time.Now()

	f := transport.NewFabric(*seed, transport.WithVirtualClock())
	defer func() { _ = f.Close() }()
	lan, _ := transport.NamedProfile("lan")

	pubs := make([]string, nPubs)
	for i := range pubs {
		pubs[i] = fmt.Sprintf("pub%02d", i)
		regPub := registry.New()
		if _, err := regPub.Register(fixtures.PersonB{},
			registry.WithConstructor("NewPersonB", fixtures.NewPersonB)); err != nil {
			return scaleRow{}, err
		}
		if _, err := f.AddPeerWithRegistry(pubs[i], regPub,
			transport.WithReliableLinks(
				transport.WithSendQueue(4*total),
				transport.WithOverflowPolicy(transport.OverflowError)),
			transport.WithHeartbeat(50*time.Millisecond),
			transport.WithSuspectAfter(250*time.Millisecond),
			transport.WithRedialBackoff(10*time.Millisecond, 100*time.Millisecond),
			transport.WithRequestTimeout(2*time.Second)); err != nil {
			return scaleRow{}, err
		}
	}

	var logMu sync.Mutex
	seenByNode := make(map[string][]map[int]int)
	names := make([]string, nSubs)
	for i := 0; i < nSubs; i++ {
		name := fmt.Sprintf("sub%04d", i)
		names[i] = name
		reg := registry.New()
		if _, err := reg.Register(fixtures.PersonA{},
			registry.WithConstructor("NewPersonA", fixtures.NewPersonA)); err != nil {
			return scaleRow{}, err
		}
		record := func(name string) transport.PeerOption {
			return func(p *transport.Peer) {
				seen := make(map[int]int)
				logMu.Lock()
				seenByNode[name] = append(seenByNode[name], seen)
				logMu.Unlock()
				_ = p.OnReceive(fixtures.PersonA{}, func(d transport.Delivery) {
					logMu.Lock()
					seen[d.Bound.(*fixtures.PersonA).Age]++
					logMu.Unlock()
				})
			}
		}(name)
		if _, err := f.AddPeerWithRegistry(name, reg,
			transport.WithRequestTimeout(2*time.Second), record); err != nil {
			return scaleRow{}, err
		}
		if _, err := f.ConnectManaged(pubs[i%nPubs], name, lan); err != nil {
			return scaleRow{}, err
		}
	}

	var wave []string
	for i := 0; i < nSubs && len(wave) < nSubs/10; i += 10 {
		wave = append(wave, names[i])
	}
	down := make(map[string]bool) // the crashed part of the wave

	peak := runtime.NumGoroutine()
	sample := func() {
		if n := runtime.NumGoroutine(); n > peak {
			peak = n
		}
	}

	virtualStart := f.Clock().Now()
	publish := func(round int) error {
		var wg sync.WaitGroup
		errs := make(chan error, nPubs)
		for i, p := range pubs {
			wg.Add(1)
			go func(i int, p string) {
				defer wg.Done()
				peer := f.Node(p).Peer()
				for m := 0; m < perRound; m++ {
					if _, err := peer.Broadcast(fixtures.PersonB{
						PersonName: p, PersonAge: round*perRound + m}); err != nil {
						errs <- fmt.Errorf("%s round %d msg %d: %w", p, round, m, err)
						return
					}
				}
			}(i, p)
		}
		wg.Wait()
		close(errs)
		sample()
		return <-errs
	}
	// coverage reports the distinct ids a subscriber holds over all
	// its incarnations, the repeats within any one incarnation, and
	// the ids a later incarnation got again after a crash.
	coverage := func(name string) (distinct, dups, redelivered int) {
		logMu.Lock()
		defer logMu.Unlock()
		union := make(map[int]bool)
		for _, seen := range seenByNode[name] {
			for id, n := range seen {
				dups += n - 1
				if union[id] {
					redelivered++
				}
				union[id] = true
			}
		}
		return len(union), dups, redelivered
	}
	deadline := time.Now().Add(240 * time.Second)
	// settled reports whether every running subscriber holds the first
	// want messages (ids are published in order, so coverage counts
	// them) and its publisher holds no unacked frame toward it, so the
	// link's sender loop has gone idle.
	settled := func(want int) bool {
		for i, name := range names {
			if down[name] {
				continue
			}
			if got, _, _ := coverage(name); got < want {
				return false
			}
			c, ok := f.Node(pubs[i%nPubs]).ConnTo(name)
			if !ok {
				return false
			}
			if s, _ := c.ReliableSnapshot(); s.InFlight > 0 {
				return false
			}
		}
		return true
	}
	settle := func(want int) bool {
		for time.Now().Before(deadline) {
			sample()
			if settled(want) {
				return true
			}
			time.Sleep(2 * time.Millisecond)
		}
		return false
	}
	var resident []int
	for round := 0; round < rounds; round++ {
		switch round {
		case 1:
			for _, n := range wave {
				if err := f.Crash(n); err != nil {
					return scaleRow{}, err
				}
				down[n] = true
			}
		case 2:
			for _, n := range wave {
				if _, err := f.Restart(n); err != nil {
					return scaleRow{}, err
				}
				delete(down, n)
			}
		}
		if err := publish(round); err != nil {
			return scaleRow{}, err
		}
		// Round 0 is not settled: the crash wave lands while its
		// frames are still in flight, which is what the wave tests.
		if round > 0 && settle((round+1)*perRound) {
			resident = append(resident, runtime.NumGoroutine())
		}
	}
	elapsedVirtual := f.Clock().Now().Sub(virtualStart)
	elapsedWall := time.Since(wallStart)

	covered, dups, maxRedelivered := 0, 0, 0
	for _, name := range names {
		got, d, re := coverage(name)
		covered += got
		dups += d
		maxRedelivered = max(maxRedelivered, re)
	}
	frames, heapOps := f.SchedulerStats()
	opsPerFrame := 0.0
	if frames > 0 {
		opsPerFrame = float64(heapOps) / float64(frames)
	}
	perVirtualS := 0.0
	if elapsedVirtual > 0 {
		perVirtualS = float64(nSubs+nPubs) / elapsedVirtual.Seconds()
	}
	return scaleRow{
		Peers:              nSubs + nPubs,
		Messages:           total,
		MatchRate:          float64(covered) / float64(total*nSubs),
		Duplicates:         dups,
		MaxRedelivered:     maxRedelivered,
		PeakGoroutines:     peak,
		ResidentGoroutines: medianInt(resident),
		GoroutinesPerPeer:  float64(medianInt(resident)) / float64(nSubs+nPubs),
		SchedFrames:        frames,
		SchedOpsPerFrame:   opsPerFrame,
		PeersPerVirtualS:   perVirtualS,
		ElapsedVirtualMs:   float64(elapsedVirtual.Nanoseconds()) / 1e6,
		ElapsedWallMs:      float64(elapsedWall.Nanoseconds()) / 1e6,
	}, nil
}

// medianInt returns the middle of xs (the lower middle for an even
// count), or 0 for none.
func medianInt(xs []int) int {
	if len(xs) == 0 {
		return 0
	}
	s := append([]int(nil), xs...)
	sort.Ints(s)
	return s[(len(s)-1)/2]
}
