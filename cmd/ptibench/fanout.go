package main

import (
	"errors"
	"fmt"
	"time"

	"pti/internal/benchfmt"
	"pti/internal/fixtures"
	"pti/internal/registry"
	"pti/internal/transport"
)

// The fan-out experiment measures the async send pipeline: a
// publisher broadcasting to N subscribers through per-connection send
// queues, with one subscriber blackholed mid-run, plus the
// NACK-vs-pure-backoff single-loss recovery comparison.

// fanoutRow is one measured fan-out cell.
type fanoutRow struct {
	MatchRate        float64 `json:"match_rate"`
	ElapsedVirtualMs float64 `json:"elapsed_virtual_ms"`
	QueuePeak        int     `json:"queue_peak"`
	RTOMs            float64 `json:"rto_ms"`
	Retransmits      uint64  `json:"retransmits"`
	FastRetransmits  uint64  `json:"fast_retransmits"`
	NacksSent        uint64  `json:"nacks_sent"`
	QueueAbandoned   uint64  `json:"queue_abandoned"`
}

// singleLossResult is the NACK-vs-backoff recovery comparison.
type singleLossResult struct {
	NackMs          float64 `json:"nack_recovery_ms"`
	BackoffMs       float64 `json:"backoff_recovery_ms"`
	NackRetransmits uint64  `json:"nack_mode_retransmits"`
	FastRetransmits uint64  `json:"nack_mode_fast_retransmits"`
	BackoffRetrans  uint64  `json:"backoff_mode_retransmits"`
}

// fanoutStallBudgetMs bounds the blackhole row's virtual elapsed
// time: the send queues converge the healthy subscribers in tens of
// virtual milliseconds, while a broadcast serialized behind the
// blackholed window would sit out whole backoff intervals.
const fanoutStallBudgetMs = 2000

// fanoutGates: a dead sibling must neither cost the healthy
// subscribers a delivery nor stall the pipeline, and a receiver's gap
// report must recover a loss faster than the sender's backoff timer.
func fanoutGates() []benchfmt.Gate {
	const bh, sl = "fanout/fanout-blackhole", "fanout/single-loss-recovery"
	return []benchfmt.Gate{
		benchfmt.NewGate(bh, "exactly once", benchfmt.Exact, "match_rate", 1),
		benchfmt.NewGate(bh, "stall budget", benchfmt.Max, "elapsed_virtual_ms", fanoutStallBudgetMs),
		benchfmt.NewRatio(sl, "nack beats backoff", "nack_recovery_ms", "<", 1, sl, "backoff_recovery_ms"),
	}
}

// expFanout runs the broadcast fan-out rows and the single-loss
// recovery comparison on the virtual clock.
func expFanout(reps int) ([]benchfmt.Row, error) {
	objects := 20 * reps
	const subs = 4 // 3 healthy + 1 blackholed

	fmt.Printf("  fabric seed: %d (rerun with -seed %d to replay)  [virtual clock]\n", *seed, *seed)

	row, err := runFanoutBlackhole(objects, subs)
	if err != nil {
		return nil, err
	}
	fmt.Printf("  %-24s match %.0f%%  elapsed %.0fms (budget %.0fms)  queue-peak %d  rto %.1fms  retrans %d  fast %d  nacks %d\n",
		"fanout-blackhole", row.MatchRate*100, row.ElapsedVirtualMs, float64(fanoutStallBudgetMs),
		row.QueuePeak, row.RTOMs, row.Retransmits, row.FastRetransmits, row.NacksSent)

	sl, err := runSingleLossComparison(objects)
	if err != nil {
		return nil, err
	}
	fmt.Printf("  %-24s nack %.0fms vs pure backoff %.0fms (%.1fx faster; fast-retransmits %d)\n",
		"single-loss-recovery", sl.NackMs, sl.BackoffMs, sl.BackoffMs/sl.NackMs, sl.FastRetransmits)

	return []benchfmt.Row{benchRow("fanout", "fanout-blackhole", row),
		benchRow("fanout", "single-loss-recovery", sl)}, nil
}

// runFanoutBlackhole broadcasts to subs subscribers with one
// blackholed from the start, and reports the healthy-side match rate
// plus the pipeline's queue/RTO/NACK metrics.
func runFanoutBlackhole(objects, subs int) (fanoutRow, error) {
	f := transport.NewFabric(*seed, transport.WithVirtualClock())
	defer func() { _ = f.Close() }()

	regPub := registry.New()
	if _, err := regPub.Register(fixtures.PersonB{},
		registry.WithConstructor("NewPersonB", fixtures.NewPersonB)); err != nil {
		return fanoutRow{}, err
	}
	pub, err := f.AddPeerWithRegistry("pub", regPub,
		transport.WithRequestTimeout(2*time.Second),
		transport.WithReliableLinks(
			transport.WithSendQueue(4*objects),
			transport.WithWindow(8),
			transport.WithRetransmitTimeout(10*time.Millisecond),
			transport.WithMaxBackoff(80*time.Millisecond),
			transport.WithMaxAttempts(8)))
	if err != nil {
		return fanoutRow{}, err
	}
	lan, _ := transport.NamedProfile("lan")
	names := make([]string, 0, subs)
	nodes := make(map[string]*transport.Node, subs)
	for i := 0; i < subs; i++ {
		name := fmt.Sprintf("sub%d", i+1)
		reg := registry.New()
		if _, err := reg.Register(fixtures.PersonA{},
			registry.WithConstructor("NewPersonA", fixtures.NewPersonA)); err != nil {
			return fanoutRow{}, err
		}
		n, err := f.AddPeerWithRegistry(name, reg, transport.WithRequestTimeout(2*time.Second))
		if err != nil {
			return fanoutRow{}, err
		}
		if err := n.Peer().OnReceive(fixtures.PersonA{}, func(transport.Delivery) {}); err != nil {
			return fanoutRow{}, err
		}
		if _, _, err := f.Connect("pub", name, lan); err != nil {
			return fanoutRow{}, err
		}
		names = append(names, name)
		nodes[name] = n
	}
	blackholed := names[len(names)-1]
	if err := f.PartitionOneWay("pub", blackholed, true); err != nil {
		return fanoutRow{}, err
	}
	if err := f.PartitionOneWay(blackholed, "pub", true); err != nil {
		return fanoutRow{}, err
	}

	healthy := names[:len(names)-1]
	virtualStart := f.Clock().Now()
	for i := 0; i < objects; i++ {
		if _, err := pub.Peer().Broadcast(fixtures.PersonB{PersonName: "fan", PersonAge: i}); err != nil &&
			!errors.Is(err, transport.ErrPeerUnreachable) {
			return fanoutRow{}, err
		}
	}
	// Quiesce: every healthy subscriber resolves every object.
	wantPerSub := uint64(objects)
	deadline := time.Now().Add(30 * time.Second)
	converged := func() bool {
		for _, name := range healthy {
			st := nodes[name].Peer().Stats().Snapshot()
			if st.ObjectsDelivered+st.ObjectsDropped < wantPerSub {
				return false
			}
		}
		return true
	}
	for time.Now().Before(deadline) && !converged() {
		time.Sleep(2 * time.Millisecond)
	}
	elapsedVirtual := f.Clock().Now().Sub(virtualStart)

	// Let the blackholed link reach its MaxAttempts give-up so the row
	// records the abandoned-queue accounting (the "reported, never
	// silent" half of the overflow contract).
	giveUpDeadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(giveUpDeadline) {
		if pub.Peer().Stats().Snapshot().RelQueueAbandoned > 0 {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}

	var delivered uint64
	for _, name := range healthy {
		delivered += nodes[name].Peer().Stats().Snapshot().ObjectsDelivered
	}
	row := fanoutRow{
		MatchRate:        float64(delivered) / float64(objects*len(healthy)),
		ElapsedVirtualMs: float64(elapsedVirtual.Nanoseconds()) / 1e6,
	}
	pubStats := pub.Peer().Stats().Snapshot()
	row.Retransmits = pubStats.RelRetransmits
	row.FastRetransmits = pubStats.RelFastRetransmits
	row.QueueAbandoned = pubStats.RelQueueAbandoned
	for _, name := range healthy {
		row.NacksSent += nodes[name].Peer().Stats().Snapshot().RelNacksSent
		if conn, ok := pub.ConnTo(name); ok {
			if snap, ok := conn.ReliableSnapshot(); ok {
				if snap.QueuePeak > row.QueuePeak {
					row.QueuePeak = snap.QueuePeak
				}
				row.RTOMs = float64(snap.RTO.Nanoseconds()) / 1e6
			}
		}
	}
	return row, nil
}

// runSingleLossComparison measures full-delivery time over a lossy
// link twice — NACK fast-retransmit on, then off — under identical
// seeds, so the only recovery-path difference is who notices a lost
// frame first: the receiver's gap report or the sender's backoff
// timer. The link is asymmetric (data direction drops, ack/NACK
// direction is clean) and the lossy burst is chased by one frame on a
// healed profile, so every loss is interior — a gap some later frame
// exposes — rather than a tail loss only the timer could ever see.
func runSingleLossComparison(objects int) (*singleLossResult, error) {
	run := func(fastRetransmit bool) (time.Duration, uint64, uint64, error) {
		// MinRTO pins every frame's timer at the 250ms pre-sample value:
		// the link measures a ~4ms round trip, and a timer estimated
		// from it would recover a loss almost as fast as a NACK, so the
		// comparison would stop isolating the repair path.
		relOpts := []transport.ReliableOption{
			transport.WithSendQueue(4 * objects),
			transport.WithWindow(64),
			transport.WithRetransmitTimeout(250 * time.Millisecond),
			transport.WithMinRTO(250 * time.Millisecond),
			transport.WithMaxBackoff(500 * time.Millisecond),
		}
		if !fastRetransmit {
			relOpts = append(relOpts, transport.WithoutFastRetransmit())
		}
		f := transport.NewFabric(*seed, transport.WithVirtualClock())
		defer func() { _ = f.Close() }()
		regA := registry.New()
		if _, err := regA.Register(fixtures.PersonB{},
			registry.WithConstructor("NewPersonB", fixtures.NewPersonB)); err != nil {
			return 0, 0, 0, err
		}
		regB := registry.New()
		if _, err := regB.Register(fixtures.PersonA{},
			registry.WithConstructor("NewPersonA", fixtures.NewPersonA)); err != nil {
			return 0, 0, 0, err
		}
		pub, err := f.AddPeerWithRegistry("pub", regA,
			transport.WithRequestTimeout(5*time.Second),
			transport.WithReliableLinks(relOpts...))
		if err != nil {
			return 0, 0, 0, err
		}
		sub, err := f.AddPeerWithRegistry("sub", regB,
			transport.WithRequestTimeout(5*time.Second))
		if err != nil {
			return 0, 0, 0, err
		}
		if _, _, err := f.ConnectAsymmetric("pub", "sub",
			transport.FaultProfile{Latency: 2 * time.Millisecond, DropRate: 0.10},
			transport.FaultProfile{Latency: 2 * time.Millisecond}); err != nil {
			return 0, 0, 0, err
		}
		if err := sub.Peer().OnReceive(fixtures.PersonA{}, func(transport.Delivery) {}); err != nil {
			return 0, 0, 0, err
		}
		conn, _ := pub.ConnTo("sub")

		virtualStart := f.Clock().Now()
		for i := 0; i < objects; i++ {
			if err := pub.Peer().SendObject(conn, fixtures.PersonB{
				PersonName: "loss", PersonAge: i,
			}); err != nil {
				return 0, 0, 0, err
			}
		}
		// Heal on the virtual timeline, not the wall clock. A send
		// queue with an admittable head holds the virtual clock, so
		// the burst leaves at virtualStart; the earliest gap report
		// reaches the sender one round trip (2×2ms) later. A virtual
		// timer 1ms in heals the data direction between the two and
		// chases the burst with one clean frame, so every repair
		// travels the healed link and even a loss at the burst's tail
		// shows up as a gap the receiver can report.
		healTimer := f.Clock().NewTimer(virtualStart.Add(time.Millisecond).Sub(f.Clock().Now()))
		defer healTimer.Stop()
		healed := make(chan error, 1)
		stop := make(chan struct{})
		defer close(stop)
		go func() {
			select {
			case <-healTimer.C():
			case <-stop:
				return
			}
			err := f.SetProfile("pub", "sub", transport.FaultProfile{Latency: 2 * time.Millisecond})
			if err == nil {
				err = pub.Peer().SendObject(conn, fixtures.PersonB{PersonName: "tail", PersonAge: objects})
			}
			healed <- err
		}()
		want := uint64(objects) + 1
		deadline := time.Now().Add(60 * time.Second)
		for time.Now().Before(deadline) {
			st := sub.Peer().Stats().Snapshot()
			if st.ObjectsDelivered+st.ObjectsDropped >= want {
				break
			}
			time.Sleep(2 * time.Millisecond)
		}
		elapsed := f.Clock().Now().Sub(virtualStart)
		st := sub.Peer().Stats().Snapshot()
		if got := st.ObjectsDelivered; got != want {
			return 0, 0, 0, fmt.Errorf("single-loss run delivered %d/%d (fastRetransmit=%v)",
				got, want, fastRetransmit)
		}
		if err := <-healed; err != nil {
			return 0, 0, 0, err
		}
		ps := pub.Peer().Stats().Snapshot()
		return elapsed, ps.RelRetransmits, ps.RelFastRetransmits, nil
	}

	nackElapsed, nackRetrans, fastRetrans, err := run(true)
	if err != nil {
		return nil, err
	}
	backoffElapsed, backoffRetrans, _, err := run(false)
	if err != nil {
		return nil, err
	}
	return &singleLossResult{
		NackMs:          float64(nackElapsed.Nanoseconds()) / 1e6,
		BackoffMs:       float64(backoffElapsed.Nanoseconds()) / 1e6,
		NackRetransmits: nackRetrans,
		FastRetransmits: fastRetrans,
		BackoffRetrans:  backoffRetrans,
	}, nil
}
