package main

import (
	"fmt"
	"sync"
	"time"

	"pti/internal/benchfmt"
	"pti/internal/fixtures"
	"pti/internal/registry"
	"pti/internal/transport"
)

// The churn experiment measures the connection-lifecycle subsystem:
// publishers on managed links keep broadcasting through send queues
// while waves of subscribers crash and restart.

// churnRow is the measured churn cell.
type churnRow struct {
	Subscribers       int     `json:"subscribers"`
	Churned           int     `json:"churned"`
	Rounds            int     `json:"rounds"`
	Messages          int     `json:"messages"`
	MatchRate         float64 `json:"match_rate"`
	Duplicates        int     `json:"duplicates"`
	SessionsResumed   uint64  `json:"sessions_resumed"`
	SessionsFresh     uint64  `json:"sessions_fresh"`
	SessionsRecovered uint64  `json:"sessions_recovered"`
	FramesReplayed    uint64  `json:"frames_replayed"`
	Redials           uint64  `json:"redials"`
	Suspects          uint64  `json:"suspects"`
	Recoveries        uint64  `json:"recoveries"`
	QueueAbandoned    uint64  `json:"queue_abandoned"`
	ElapsedVirtualMs  float64 `json:"elapsed_virtual_ms"`
}

// churnStallBudgetMs bounds the run's virtual elapsed time: with the
// async queues absorbing each outage, the run costs retransmit and
// redial backoff intervals, not request-timeout stalls. A publisher
// serialized behind a crashed subscriber blows this by an order of
// magnitude.
const churnStallBudgetMs = 30000

// churnRedialBudget caps total dial attempts across the run. Each
// churned link needs a handful of probes to notice the restart;
// dozens per outage means the backoff schedule regressed.
const churnRedialBudget = 400

// churnGates: every subscriber lineage (the union of its
// incarnations) must reach a 1.0 match rate; every churned link must
// come back with a session — same-epoch resume or fresh-epoch replay
// — with no abandoned queue frames; a backoff or failure-detector
// regression shows up as a redial storm long before it breaks
// delivery.
func churnGates() []benchfmt.Gate {
	const c = "churn/churn-waves"
	return []benchfmt.Gate{
		benchfmt.NewGate(c, "lineage match", benchfmt.Exact, "match_rate", 1),
		benchfmt.NewRatio(c, "sessions cover churned links", "sessions_recovered", ">=", 1, c, "churned"),
		benchfmt.NewGate(c, "abandoned frames", benchfmt.Exact, "queue_abandoned", 0),
		benchfmt.NewGate(c, "redial budget", benchfmt.Max, "redials", churnRedialBudget),
		benchfmt.NewGate(c, "stall budget", benchfmt.Max, "elapsed_virtual_ms", churnStallBudgetMs),
	}
}

// expChurn runs the crash/restart waves on the virtual clock and
// reports lineage coverage plus the lifecycle counters.
func expChurn(reps int) ([]benchfmt.Row, error) {
	subs := 10 * reps
	churned := subs / 3
	rounds, perRound := 4, 5*reps

	fmt.Printf("  fabric seed: %d (rerun with -seed %d to replay)  [virtual clock]\n", *seed, *seed)
	row, err := runChurn(subs, churned, rounds, perRound)
	if err != nil {
		return nil, err
	}
	fmt.Printf("  %-24s match %.0f%%  dups %d  resumed+fresh %d+%d/%d  redials %d (budget %d)  elapsed %.0fms (budget %.0fms)\n",
		"churn-waves", row.MatchRate*100, row.Duplicates, row.SessionsResumed, row.SessionsFresh,
		row.Churned, row.Redials, churnRedialBudget, row.ElapsedVirtualMs, float64(churnStallBudgetMs))
	return []benchfmt.Row{benchRow("churn", "churn-waves", row)}, nil
}

// runChurn is one full churn run: subs subscribers on managed links,
// the first `churned` of them crash/restarting in two waves while the
// publisher broadcasts `rounds` rounds of perRound objects.
func runChurn(subs, churned, rounds, perRound int) (churnRow, error) {
	total := rounds * perRound
	f := transport.NewFabric(*seed, transport.WithVirtualClock())
	defer func() { _ = f.Close() }()

	regPub := registry.New()
	if _, err := regPub.Register(fixtures.PersonB{},
		registry.WithConstructor("NewPersonB", fixtures.NewPersonB)); err != nil {
		return churnRow{}, err
	}
	pub, err := f.AddPeerWithRegistry("pub", regPub,
		transport.WithReliableLinks(
			transport.WithSendQueue(4*total),
			transport.WithOverflowPolicy(transport.OverflowError)),
		transport.WithHeartbeat(50*time.Millisecond),
		transport.WithSuspectAfter(200*time.Millisecond),
		transport.WithRedialBackoff(10*time.Millisecond, 100*time.Millisecond),
		transport.WithRequestTimeout(2*time.Second))
	if err != nil {
		return churnRow{}, err
	}
	lan, _ := transport.NamedProfile("lan")

	// Lineage logs: every incarnation of a subscriber appends to the
	// same per-name slice, so coverage is the union across restarts.
	var logMu sync.Mutex
	seenByNode := make(map[string][]map[int]int)
	names := make([]string, subs)
	for i := 0; i < subs; i++ {
		name := fmt.Sprintf("sub%02d", i)
		names[i] = name
		reg := registry.New()
		if _, err := reg.Register(fixtures.PersonA{},
			registry.WithConstructor("NewPersonA", fixtures.NewPersonA)); err != nil {
			return churnRow{}, err
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
			return churnRow{}, err
		}
		if _, err := f.ConnectManaged("pub", name, lan); err != nil {
			return churnRow{}, err
		}
	}
	waves := [][]string{names[:churned/2], names[churned/2 : churned]}

	virtualStart := f.Clock().Now()
	publish := func(round int) error {
		for i := 0; i < perRound; i++ {
			if _, err := pub.Peer().Broadcast(fixtures.PersonB{
				PersonName: "churn", PersonAge: round*perRound + i,
			}); err != nil {
				return fmt.Errorf("round %d msg %d: %w", round, i, err)
			}
		}
		return nil
	}
	for round := 0; round < rounds; round++ {
		switch round {
		case 1:
			for _, n := range waves[0] {
				if err := f.Crash(n); err != nil {
					return churnRow{}, err
				}
			}
		case 2:
			for _, n := range waves[0] {
				if _, err := f.Restart(n); err != nil {
					return churnRow{}, err
				}
			}
			for _, n := range waves[1] {
				if err := f.Crash(n); err != nil {
					return churnRow{}, err
				}
			}
		case 3:
			for _, n := range waves[1] {
				if _, err := f.Restart(n); err != nil {
					return churnRow{}, err
				}
			}
		}
		if err := publish(round); err != nil {
			return churnRow{}, err
		}
	}

	coverage := func(name string) (distinct, dups int) {
		logMu.Lock()
		defer logMu.Unlock()
		union := make(map[int]int)
		for _, seen := range seenByNode[name] {
			for id, n := range seen {
				union[id] += n
			}
		}
		for _, n := range union {
			if n > 1 {
				dups += n - 1
			}
		}
		return len(union), dups
	}
	deadline := time.Now().Add(120 * time.Second)
	converged := func() bool {
		for _, name := range names {
			if got, _ := coverage(name); got != total {
				return false
			}
		}
		return true
	}
	for time.Now().Before(deadline) && !converged() {
		time.Sleep(2 * time.Millisecond)
	}
	elapsedVirtual := f.Clock().Now().Sub(virtualStart)

	covered, dups := 0, 0
	for _, name := range names {
		got, d := coverage(name)
		covered += got
		dups += d
	}
	st := pub.Peer().Stats().Snapshot()
	return churnRow{
		Subscribers:       subs,
		Churned:           churned,
		Rounds:            rounds,
		Messages:          total,
		MatchRate:         float64(covered) / float64(total*subs),
		Duplicates:        dups,
		SessionsResumed:   st.RelSessionsResumed,
		SessionsFresh:     st.RelSessionsFresh,
		SessionsRecovered: st.RelSessionsResumed + st.RelSessionsFresh,
		FramesReplayed:    st.RelFramesReplayed,
		Redials:           st.PeerRedials,
		Suspects:          st.PeerSuspects,
		Recoveries:        st.PeerRecoveries,
		QueueAbandoned:    st.RelQueueAbandoned,
		ElapsedVirtualMs:  float64(elapsedVirtual.Nanoseconds()) / 1e6,
	}, nil
}
