package transport

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	"pti/internal/fixtures"
	"pti/internal/registry"
)

// The scale suite is what the sharded frame scheduler, the O(1) busy
// probe and the lazily spawned reliable loops buy: a single fabric
// carrying hundreds of simulated peers in CI-viable time. The per-PR
// gate runs TestFabricScaleConvergence at 500 peers (make scale); the
// nightly matrix raises it to 1000 across three seeds.

// scalePeerCount picks the subscriber count: the in-repo default is
// small enough for tier-1, PTI_SCALE_PEERS pins it exactly, and
// PTI_SOAK raises the default to the 500-peer acceptance bar.
func scalePeerCount(t *testing.T) int {
	t.Helper()
	if s := os.Getenv("PTI_SCALE_PEERS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 10 {
			t.Fatalf("bad PTI_SCALE_PEERS %q", s)
		}
		return n
	}
	if os.Getenv("PTI_SOAK") != "" {
		return 500
	}
	return 120
}

// TestFabricScaleConvergence is the scale acceptance scenario:
// hundreds of subscribers fed by broadcast fan-out over managed
// reliable links on the virtual clock, with a 10% crash wave
// mid-stream. The claims under test:
//
//   - match rate exactly 1.0: every subscriber lineage sees every
//     message its publisher broadcast — no loss, despite the wave;
//   - exactly-once in-order per incarnation, cross-incarnation
//     overlap bounded by the in-flight window;
//   - the goroutine floor is scale-friendly: scheduler goroutines
//     stay capped at the shard pool regardless of peer count, and
//     once traffic drains the lazily spawned reliable loops exit on
//     their own — before the fabric closes, not because of it.
//
// PTI_SCALE_PEERS sets the subscriber count (nightly runs 1000);
// PTI_SEED replays a failure.
func TestFabricScaleConvergence(t *testing.T) {
	if testing.Short() {
		t.Skip("scale scenario skipped in -short mode")
	}
	seed := scenarioSeed(t, 96027)
	defer func() {
		if t.Failed() {
			t.Logf("replay with PTI_SEED=%d", seed)
		}
	}()
	baseLoops := reliableLoopGoroutines()

	nSubs := scalePeerCount(t)
	nPubs := (nSubs + 124) / 125 // ≤125 managed links per publisher
	if nPubs < 2 {
		nPubs = 2
	}
	rounds, perRound := 4, 4
	total := rounds * perRound
	start := time.Now()

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
	pubs := make([]string, nPubs)
	for i := range pubs {
		pubs[i] = fmt.Sprintf("pub%02d", i)
		if _, err := f.AddPeerWithRegistry(pubs[i],
			newReg(fixtures.PersonB{}, "NewPersonB", fixtures.NewPersonB),
			WithReliableLinks(WithSendQueue(4*total), WithOverflowPolicy(OverflowError)),
			WithHeartbeat(50*time.Millisecond),
			WithSuspectAfter(250*time.Millisecond),
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
		name := fmt.Sprintf("sub%04d", i)
		subNames[i] = name
		pubOf[name] = pubs[i%nPubs]
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

	// 10% of the subscribers crash after the first round (a full round
	// of messages queues into the outage) and restart one round later.
	var wave []string
	for i := 0; i < nSubs && len(wave) < nSubs/10; i += 10 {
		wave = append(wave, subNames[i])
	}
	churned := make(map[string]bool)
	for _, name := range wave {
		churned[name] = true
	}

	peak := runtime.NumGoroutine()
	sample := func() {
		if n := runtime.NumGoroutine(); n > peak {
			peak = n
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
		sample()
	}

	for round := 0; round < rounds; round++ {
		switch round {
		case 1:
			for _, name := range wave {
				if err := f.Crash(name); err != nil {
					t.Fatalf("crash %s: %v", name, err)
				}
			}
		case 2:
			for _, name := range wave {
				if _, err := f.Restart(name); err != nil {
					t.Fatalf("restart %s: %v", name, err)
				}
			}
		}
		publishRound(round)
	}

	errMu.Lock()
	bErrs := append([]error(nil), broadcastErrs...)
	errMu.Unlock()
	if len(bErrs) != 0 {
		t.Fatalf("publisher stalled or failed %d times; first: %v", len(bErrs), bErrs[0])
	}

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
		sample()
		for _, name := range subNames {
			if len(coverageOf(name)) != total {
				return false
			}
		}
		return true
	}
	if !waitUntil(240*time.Second, converged) {
		short := 0
		for _, name := range subNames {
			if got := len(coverageOf(name)); got != total {
				if short < 5 {
					t.Errorf("%s (churned=%v): coverage %d/%d", name, churned[name], got, total)
					pub := pubOf[name]
					if rm := f.Node(pub).Peer().ManagedRemote(name); rm != nil {
						if rel := rm.Reliable(); rel != nil {
							rel.mu.Lock()
							t.Logf("  pub rm state=%v rel epoch=%d nextSeq=%d acked=%d queue=%d inflight=%d unsent=%d due=%d detached=%v closed=%v active=%v writing=%v runnable=%v err=%v",
								rm.State(), rel.epoch, rel.nextSeq, rel.acked, len(rel.queue), len(rel.inflight), len(rel.unsent), len(rel.due),
								rel.detached, rel.closed, rel.active, rel.writing, rel.runnableLocked(), rel.err)
							rel.mu.Unlock()
						}
					}
				}
				short++
			}
		}
		t.Logf("busy: frames=%d handlers=%d pipelines=%d",
			f.fb.frames.Load(), f.fb.handlers.Load(), f.fb.pipelines.Load())
		t.Fatalf("scale fabric did not converge: %d/%d subscribers short of %d messages", short, nSubs, total)
	}

	// Match rate must be exactly 1.0: coverage counted every id once
	// per lineage above; now pin exactly-once in-order per incarnation
	// and the bounded cross-incarnation overlap.
	delivered, expected := 0, nSubs*total
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
		delivered += len(coverageOf(name))
	}
	if delivered != expected {
		t.Fatalf("match rate %d/%d != 1.0", delivered, expected)
	}

	// The scheduler pool is fixed-size no matter how many links ride
	// it — the property that replaced two goroutines per link.
	frames, heapOps, shards := f.SchedulerStats()
	if shards > maxSchedShards {
		t.Fatalf("scheduler shards = %d, want <= %d", shards, maxSchedShards)
	}
	// Every accepted frame costs one push; a pop only once delivered —
	// frames still in flight at snapshot time have their pop pending.
	if frames == 0 || heapOps < frames || heapOps > 2*frames {
		t.Fatalf("scheduler stats implausible: frames=%d heapOps=%d", frames, heapOps)
	}

	// Lazily spawned reliable loops drain once traffic stops: with the
	// fabric still open, the sender/retransmit goroutine count must
	// fall back to the pre-test floor — idle links hold no goroutines.
	if !waitUntil(60*time.Second, func() bool {
		return reliableLoopGoroutines() <= baseLoops
	}) {
		t.Fatalf("idle reliable loops leaked: %d > %d", reliableLoopGoroutines(), baseLoops)
	}

	t.Logf("scale converged: peers=%d msgs=%d wall=%s peakGoroutines=%d schedFrames=%d schedOpsPerFrame=%.2f shards=%d",
		nSubs+nPubs, total, time.Since(start).Round(time.Millisecond), peak,
		frames, float64(heapOps)/float64(frames), shards)
}

// TestFabricScaleSeedReplay is the determinism bar at scale: a
// 500-peer fabric (250 disjoint eager sender/receiver pairs over a
// lossy, duplicating, reordering profile) must produce a
// byte-identical fault schedule when replayed under the same seed —
// the sharded scheduler changes where frames are *delivered* from,
// never what the per-direction PRNGs decide. A different seed must
// diverge.
func TestFabricScaleSeedReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("scale replay skipped in -short mode")
	}
	const pairs = 250
	const msgs = 6
	prof := FaultProfile{
		Latency:     200 * time.Microsecond,
		Jitter:      200 * time.Microsecond,
		DropRate:    0.3,
		DupRate:     0.1,
		ReorderRate: 0.2,
	}
	run := func(seed int64) []byte {
		f := NewFabric(seed, WithVirtualClock())
		defer f.Close()
		type pair struct{ a, b *Node }
		ps := make([]pair, pairs)
		for i := 0; i < pairs; i++ {
			regA := registry.New()
			if _, err := regA.Register(fixtures.PersonB{},
				registry.WithConstructor("NewPersonB", fixtures.NewPersonB)); err != nil {
				t.Fatal(err)
			}
			na, err := f.AddPeerWithRegistry(fmt.Sprintf("snd%03d", i), regA, Eager())
			if err != nil {
				t.Fatal(err)
			}
			nb, err := f.AddPeerWithRegistry(fmt.Sprintf("rcv%03d", i), registry.New())
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := f.Connect(na.Name(), nb.Name(), prof); err != nil {
				t.Fatal(err)
			}
			ps[i] = pair{na, nb}
		}
		for i, p := range ps {
			ca, ok := p.a.ConnTo(p.b.Name())
			if !ok {
				t.Fatalf("pair %d: no conn", i)
			}
			for m := 0; m < msgs; m++ {
				if err := p.a.Peer().SendObject(ca, fixtures.PersonB{PersonName: "x", PersonAge: m}); err != nil {
					t.Fatal(err)
				}
			}
		}
		// Every scheduling decision is drawn synchronously inside the
		// send, so the dump is complete once the sends return; quiesce
		// only so teardown does not race in-flight frames.
		waitUntil(30*time.Second, func() bool {
			s := f.Stats()
			return s.FramesDelivered == s.FramesSent-s.FramesDropped-s.PartitionDrops+s.FramesDuplicated
		})
		return f.ScheduleDump()
	}

	d1 := run(1700)
	d2 := run(1700)
	if len(d1) == 0 {
		t.Fatal("empty schedule recorded")
	}
	if !bytes.Equal(d1, d2) {
		i := 0
		for i < len(d1) && i < len(d2) && d1[i] == d2[i] {
			i++
		}
		t.Fatalf("same seed diverged at byte %d of %d/%d", i, len(d1), len(d2))
	}
	if bytes.Equal(d1, run(1701)) {
		t.Error("different seeds produced identical fault schedules")
	}
}
