package transport

import (
	"fmt"
	"os"
	"sync"
	"testing"
	"time"

	"pti/internal/fixtures"
	"pti/internal/registry"
)

// TestFabricChurnConvergence is the lifecycle acceptance scenario
// (docs/health.md): 100+ fabric peers on the virtual clock, ~30% of
// the subscribers crash/restarting in waves while send-queue
// publishers keep broadcasting through managed links. The claims
// under test:
//
//   - zero publisher stalls: the send queues run OverflowError, so a
//     publisher that would have blocked fails the test instead;
//   - exactly-once in-order per incarnation, and 100% coverage per
//     subscriber lineage (the union of a churned subscriber's
//     incarnations sees every published message, overlap bounded by
//     the in-flight window);
//   - sessions resume rather than reset: the resumed-session counter
//     covers every churned link and no queued frame is abandoned;
//   - no goroutine leaks once the fabric closes.
//
// PTI_SOAK=1 scales the run up; PTI_SEED replays a failure.
func TestFabricChurnConvergence(t *testing.T) {
	if testing.Short() {
		t.Skip("churn scenario skipped in -short mode")
	}
	seed := scenarioSeed(t, 8001)
	defer func() {
		if t.Failed() {
			t.Logf("replay with PTI_SEED=%d", seed)
		}
	}()
	baseLoops := healthLoopGoroutines() + reliableLoopGoroutines()

	const nSubs = 100
	pubs := []string{"pub1", "pub2"}
	rounds, perRound := 6, 8
	if os.Getenv("PTI_SOAK") != "" {
		rounds, perRound = 12, 25
	}
	total := rounds * perRound

	f := NewFabric(seed, WithVirtualClock())
	defer f.Close()
	prof, _ := NamedProfile("lan")

	newReg := func(v interface{}, name string, ctor interface{}) *registry.Registry {
		reg := registry.New()
		if _, err := reg.Register(v, registry.WithConstructor(name, ctor)); err != nil {
			t.Fatal(err)
		}
		return reg
	}
	for _, p := range pubs {
		if _, err := f.AddPeerWithRegistry(p,
			newReg(fixtures.PersonB{}, "NewPersonB", fixtures.NewPersonB),
			WithReliableLinks(WithSendQueue(512), WithOverflowPolicy(OverflowError)),
			WithHeartbeat(50*time.Millisecond),
			WithSuspectAfter(200*time.Millisecond),
			WithRedialBackoff(10*time.Millisecond, 100*time.Millisecond),
			WithRequestTimeout(2*time.Second)); err != nil {
			t.Fatal(err)
		}
	}

	var logMu sync.Mutex
	logsByNode := make(map[string][]*incarnationLog)
	subNames := make([]string, nSubs)
	pubOf := make(map[string]string)
	for i := 0; i < nSubs; i++ {
		name := fmt.Sprintf("sub%03d", i)
		subNames[i] = name
		pubOf[name] = pubs[i*len(pubs)/nSubs]
		subOpt := func(name string) PeerOption {
			return func(p *Peer) {
				l := &incarnationLog{}
				logMu.Lock()
				logsByNode[name] = append(logsByNode[name], l)
				logMu.Unlock()
				_ = p.OnReceive(fixtures.PersonA{}, func(d Delivery) {
					l.add(d.Bound.(*fixtures.PersonA).Age)
				})
			}
		}(name)
		if _, err := f.AddPeerWithRegistry(name,
			newReg(fixtures.PersonA{}, "NewPersonA", fixtures.NewPersonA),
			WithRequestTimeout(2*time.Second), subOpt); err != nil {
			t.Fatal(err)
		}
		if _, err := f.ConnectManaged(pubOf[name], name, prof); err != nil {
			t.Fatal(err)
		}
	}

	// 31 of the 102 peers (>30%) churn, in three waves spread across
	// both publishers' halves.
	var churn []string
	for i := 0; i < nSubs && len(churn) < 31; i += 3 {
		churn = append(churn, subNames[i])
	}
	waves := [][]string{churn[:11], churn[11:21], churn[21:]}
	churned := make(map[string]bool)
	for _, name := range churn {
		churned[name] = true
	}

	crash := func(wave []string) {
		for _, name := range wave {
			if err := f.Crash(name); err != nil {
				t.Fatalf("crash %s: %v", name, err)
			}
		}
	}
	restart := func(wave []string) {
		for _, name := range wave {
			if _, err := f.Restart(name); err != nil {
				t.Fatalf("restart %s: %v", name, err)
			}
		}
	}

	var broadcastErrs []error
	var errMu sync.Mutex
	publishRound := func(round int) {
		var wg sync.WaitGroup
		for _, p := range pubs {
			wg.Add(1)
			go func(p string) {
				defer wg.Done()
				peer := f.Node(p).Peer()
				for i := 0; i < perRound; i++ {
					if _, err := peer.Broadcast(fixtures.PersonB{
						PersonName: p, PersonAge: round*perRound + i}); err != nil {
						errMu.Lock()
						broadcastErrs = append(broadcastErrs, fmt.Errorf("%s round %d msg %d: %w", p, round, i, err))
						errMu.Unlock()
					}
				}
			}(p)
		}
		wg.Wait()
	}

	// Wave w crashes before round 2w+1 publishes (a full round of
	// messages queues into the outage) and restarts before round 2w+2.
	for round := 0; round < rounds; round++ {
		switch round {
		case 1:
			crash(waves[0])
		case 2:
			restart(waves[0])
			crash(waves[1])
		case 3:
			restart(waves[1])
			crash(waves[2])
		case 4:
			restart(waves[2])
		}
		publishRound(round)
	}

	// Zero publisher stalls: with OverflowError queues, any stall
	// surfaces as a broadcast error — and none may occur.
	errMu.Lock()
	bErrs := append([]error(nil), broadcastErrs...)
	errMu.Unlock()
	if len(bErrs) != 0 {
		t.Fatalf("publisher stalled or failed %d times; first: %v", len(bErrs), bErrs[0])
	}

	// Convergence: every subscriber lineage reaches 100% coverage.
	coverageOf := func(name string) map[int]int {
		logMu.Lock()
		ls := append([]*incarnationLog(nil), logsByNode[name]...)
		logMu.Unlock()
		seen := make(map[int]int)
		for _, l := range ls {
			for _, id := range l.snapshot() {
				seen[id]++
			}
		}
		return seen
	}
	converged := func() bool {
		for _, name := range subNames {
			if len(coverageOf(name)) != total {
				return false
			}
		}
		return true
	}
	if !waitUntil(120*time.Second, converged) {
		for _, name := range subNames {
			if got := len(coverageOf(name)); got != total {
				t.Errorf("%s (churned=%v): coverage %d/%d", name, churned[name], got, total)
				seen := coverageOf(name)
				var missing []int
				for id := 0; id < total; id++ {
					if seen[id] == 0 {
						missing = append(missing, id)
					}
				}
				t.Logf("  missing ids: %v", missing)
				pub := pubOf[name]
				if rm := f.Node(pub).Peer().ManagedRemote(name); rm != nil {
					if rel := rm.Reliable(); rel != nil {
						rel.mu.Lock()
						t.Logf("  pub rm state=%v rel epoch=%d nextSeq=%d acked=%d queue=%d inflight=%d detached=%v closed=%v err=%v",
							rm.State(), rel.epoch, rel.nextSeq, rel.acked, len(rel.queue), len(rel.inflight), rel.detached, rel.closed, rel.err)
						rel.mu.Unlock()
					} else {
						t.Logf("  pub rm state=%v rel=nil", rm.State())
					}
				}
				f.mu.Lock()
				var cb *Conn
				if n := f.nodes[name]; n != nil {
					cb = n.conns[pub]
				}
				f.mu.Unlock()
				if cb != nil {
					rr := cb.rrecv
					rr.mu.Lock()
					t.Logf("  sub rr epoch=%d next=%d resumeCum=%d buf=%d", rr.epoch, rr.next, rr.resumeCum, len(rr.buf))
					rr.mu.Unlock()
				} else {
					t.Logf("  sub has no conn from %s", pub)
				}
			}
		}
		t.Fatalf("churn fabric did not converge to 100%% coverage")
	}

	// Exactly-once in-order per incarnation; bounded overlap across a
	// lineage (only the delivered-but-unacked window may be replayed
	// to a fresh incarnation).
	for _, name := range subNames {
		logMu.Lock()
		ls := append([]*incarnationLog(nil), logsByNode[name]...)
		logMu.Unlock()
		if !churned[name] && len(ls) != 1 {
			t.Fatalf("surviving %s has %d incarnations", name, len(ls))
		}
		dup := 0
		for _, l := range ls {
			ids := l.snapshot()
			assertStrictlyIncreasing(t, name, ids)
			dup += len(ids)
		}
		dup -= len(coverageOf(name))
		if !churned[name] && dup != 0 {
			t.Fatalf("surviving %s saw %d duplicate deliveries", name, dup)
		}
		if dup > 32 {
			t.Fatalf("%s: cross-incarnation overlap %d exceeds the in-flight window", name, dup)
		}
	}

	// Lifecycle accounting on the publishers: every churned link came
	// back with a session — same-epoch resume when the receiver
	// survived, fresh-epoch replay after a process restart — and
	// nothing queued was abandoned.
	var resumed, fresh, replayed, abandoned, redials, suspects uint64
	for _, p := range pubs {
		st := f.Node(p).Peer().Stats().Snapshot()
		resumed += st.RelSessionsResumed
		fresh += st.RelSessionsFresh
		replayed += st.RelFramesReplayed
		abandoned += st.RelQueueAbandoned
		redials += st.PeerRedials
		suspects += st.PeerSuspects
	}
	if resumed+fresh < uint64(len(churn)) {
		t.Fatalf("sessions resumed+fresh = %d+%d, want >= %d (one per churned link)",
			resumed, fresh, len(churn))
	}
	if abandoned != 0 {
		t.Fatalf("RelQueueAbandoned = %d across clean restarts, want 0", abandoned)
	}
	if redials == 0 || suspects == 0 {
		t.Fatalf("lifecycle counters flat: redials=%d suspects=%d", redials, suspects)
	}
	t.Logf("churn converged: %d peers, %d churned, %d msgs/pub, resumed=%d fresh=%d replayed=%d redials=%d suspects=%d",
		nSubs+len(pubs), len(churn), total, resumed, fresh, replayed, redials, suspects)

	// Receive-side accounting balance on every surviving subscriber.
	if !waitUntil(30*time.Second, func() bool {
		for _, name := range subNames {
			p := f.Node(name).Peer()
			if p == nil {
				continue
			}
			st := p.Stats().Snapshot()
			if !receptionsSettled(st) {
				return false
			}
		}
		return true
	}) {
		t.Fatalf("subscriber accounting did not balance")
	}

	if err := f.Close(); err != nil {
		t.Fatalf("fabric close: %v", err)
	}
	if !waitUntil(20*time.Second, func() bool {
		return healthLoopGoroutines()+reliableLoopGoroutines() <= baseLoops
	}) {
		t.Fatalf("lifecycle goroutines leaked after churn: %d > %d",
			healthLoopGoroutines()+reliableLoopGoroutines(), baseLoops)
	}
}
