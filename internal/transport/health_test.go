package transport

import (
	"errors"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"pti/internal/fixtures"
	"pti/internal/registry"
	"pti/internal/typedesc"
)

// The connection-lifecycle suite: failure detection, reconnect with
// reliable-session resume, quarantine, and the churn scenarios of
// docs/health.md. Every fabric test prints its seed on failure for
// replay (PTI_SEED=n).

// healthLoopGoroutines counts live lifecycle goroutines — the
// monitor and redial loops — the leak probe for Close-vs-redial
// races (companion to reliableLoopGoroutines).
func healthLoopGoroutines() int {
	s := allStacks()
	return strings.Count(s, "(*Remote).monitorLoop") +
		strings.Count(s, "(*Remote).redialLoop")
}

func personRegs(t *testing.T) (pub, sub *registry.Registry) {
	t.Helper()
	pub = registry.New()
	if _, err := pub.Register(fixtures.PersonB{},
		registry.WithConstructor("NewPersonB", fixtures.NewPersonB)); err != nil {
		t.Fatal(err)
	}
	sub = registry.New()
	if _, err := sub.Register(fixtures.PersonA{},
		registry.WithConstructor("NewPersonA", fixtures.NewPersonA)); err != nil {
		t.Fatal(err)
	}
	return pub, sub
}

// incarnationLog records one subscriber incarnation's deliveries. A
// fresh log is created every time the node's peer is (re)built, so
// per-incarnation exactly-once/in-order can be asserted across
// crash/restart cycles.
type incarnationLog struct {
	mu  sync.Mutex
	ids []int
}

func (l *incarnationLog) add(id int) {
	l.mu.Lock()
	l.ids = append(l.ids, id)
	l.mu.Unlock()
}

func (l *incarnationLog) snapshot() []int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]int(nil), l.ids...)
}

// subscribeOption registers the interest at peer construction, so a
// restarted incarnation (Restart replays the node's options) is
// subscribed before its first conn exists — no delivery can race the
// resubscription. Each application appends a fresh incarnation log.
func subscribeOption(mu *sync.Mutex, logs *[]*incarnationLog) PeerOption {
	return func(p *Peer) {
		l := &incarnationLog{}
		mu.Lock()
		*logs = append(*logs, l)
		mu.Unlock()
		_ = p.OnReceive(fixtures.PersonA{}, func(d Delivery) {
			l.add(d.Bound.(*fixtures.PersonA).Age)
		})
	}
}

// assertStrictlyIncreasing: exactly-once in-order within one
// incarnation — the reliable channel's contract.
func assertStrictlyIncreasing(t *testing.T, who string, ids []int) {
	t.Helper()
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			t.Fatalf("%s: delivery order violated at %d: %v", who, i, ids)
		}
	}
}

// TestManagedResumeAfterPartition: the link is cut mid-stream (both
// directions) while the publisher keeps sending. The failure detector
// must confirm the silence, the redial must build a fresh link, and —
// because the subscriber process survived — the reliable session must
// resume under its original epoch, replaying only the unacked window.
// Every message arrives exactly once, in order.
func TestManagedResumeAfterPartition(t *testing.T) {
	seed := scenarioSeed(t, 7001)
	defer func() {
		if t.Failed() {
			t.Logf("replay with PTI_SEED=%d", seed)
		}
	}()
	f := NewFabric(seed, WithVirtualClock())
	defer f.Close()
	regPub, regSub := personRegs(t)

	if _, err := f.AddPeerWithRegistry("pub", regPub,
		WithReliableLinks(WithSendQueue(128)),
		WithHeartbeat(20*time.Millisecond),
		WithSuspectAfter(60*time.Millisecond),
		WithRedialBackoff(10*time.Millisecond, 80*time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var logs []*incarnationLog
	if _, err := f.AddPeerWithRegistry("sub", regSub, subscribeOption(&mu, &logs)); err != nil {
		t.Fatal(err)
	}
	prof, _ := NamedProfile("lan")
	rm, err := f.ConnectManaged("pub", "sub", prof)
	if err != nil {
		t.Fatal(err)
	}
	pub := f.Node("pub").Peer()

	send := func(from, to int) {
		for i := from; i < to; i++ {
			if _, err := pub.Broadcast(fixtures.PersonB{PersonName: "pub", PersonAge: i}); err != nil {
				t.Fatalf("broadcast %d: %v", i, err)
			}
		}
	}
	delivered := func(n int) func() bool {
		return func() bool {
			mu.Lock()
			defer mu.Unlock()
			total := 0
			for _, l := range logs {
				total += len(l.snapshot())
			}
			return total >= n
		}
	}

	send(0, 20)
	if !waitUntil(20*time.Second, delivered(20)) {
		t.Fatalf("pre-partition deliveries stalled")
	}

	f.Partition([]string{"pub"}, []string{"sub"})
	send(20, 40) // queues and retransmits into the cut link

	// The detector confirms, the redial replaces the link (the fresh
	// link is uncut), and the session resumes.
	if !waitUntil(30*time.Second, delivered(40)) {
		t.Fatalf("post-resume deliveries stalled: %v (state=%v lastErr=%v)",
			logs[0].snapshot(), rm.State(), rm.LastError())
	}
	ids := logs[0].snapshot()
	if len(logs) != 1 {
		t.Fatalf("subscriber restarted unexpectedly: %d incarnations", len(logs))
	}
	if len(ids) != 40 {
		t.Fatalf("want 40 exactly-once deliveries, got %d: %v", len(ids), ids)
	}
	assertStrictlyIncreasing(t, "sub", ids)
	for i, id := range ids {
		if id != i {
			t.Fatalf("gap or reorder at %d: %v", i, ids)
		}
	}

	st := pub.Stats().Snapshot()
	if st.RelSessionsResumed < 1 {
		t.Fatalf("RelSessionsResumed = %d, want >= 1", st.RelSessionsResumed)
	}
	if st.RelFramesReplayed < 1 {
		t.Fatalf("RelFramesReplayed = %d, want >= 1 (in-flight window must replay)", st.RelFramesReplayed)
	}
	if st.PeerSuspects < 1 || st.PeerRecoveries < 1 || st.PeerRedials < 1 {
		t.Fatalf("lifecycle counters: suspects=%d recoveries=%d redials=%d, all want >= 1",
			st.PeerSuspects, st.PeerQuarantines, st.PeerRedials)
	}
	if st.RelQueueAbandoned != 0 {
		t.Fatalf("RelQueueAbandoned = %d on a clean reconnect, want 0", st.RelQueueAbandoned)
	}
	if got := rm.State(); got != HealthHealthy {
		t.Fatalf("remote state after recovery = %v, want healthy", got)
	}
}

// TestManagedResumeAcrossRestart: the subscriber process crashes and
// restarts. The redial keeps failing while the node is down, then
// succeeds against the fresh incarnation — which has no saved session,
// so the sender rolls a fresh epoch and replays the unacked window
// under it. The union of both incarnations covers every published
// message; each incarnation individually is exactly-once in-order.
func TestManagedResumeAcrossRestart(t *testing.T) {
	seed := scenarioSeed(t, 7002)
	defer func() {
		if t.Failed() {
			t.Logf("replay with PTI_SEED=%d", seed)
		}
	}()
	f := NewFabric(seed, WithVirtualClock())
	defer f.Close()
	regPub, regSub := personRegs(t)

	if _, err := f.AddPeerWithRegistry("pub", regPub,
		WithReliableLinks(WithSendQueue(128)),
		WithHeartbeat(20*time.Millisecond),
		WithRedialBackoff(10*time.Millisecond, 40*time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var logs []*incarnationLog
	if _, err := f.AddPeerWithRegistry("sub", regSub, subscribeOption(&mu, &logs)); err != nil {
		t.Fatal(err)
	}
	prof, _ := NamedProfile("lan")
	rm, err := f.ConnectManaged("pub", "sub", prof)
	if err != nil {
		t.Fatal(err)
	}
	pub := f.Node("pub").Peer()

	send := func(from, to int) {
		for i := from; i < to; i++ {
			if _, err := pub.Broadcast(fixtures.PersonB{PersonName: "pub", PersonAge: i}); err != nil {
				t.Fatalf("broadcast %d: %v", i, err)
			}
		}
	}
	send(0, 15)
	if !waitUntil(20*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(logs) > 0 && len(logs[0].snapshot()) >= 15
	}) {
		t.Fatalf("pre-crash deliveries stalled")
	}

	if err := f.Crash("sub"); err != nil {
		t.Fatal(err)
	}
	send(15, 30) // buffers in the detached link's queue
	if _, err := f.Restart("sub"); err != nil {
		t.Fatal(err)
	}

	covered := func() bool {
		mu.Lock()
		ls := append([]*incarnationLog(nil), logs...)
		mu.Unlock()
		seen := make(map[int]bool)
		for _, l := range ls {
			for _, id := range l.snapshot() {
				seen[id] = true
			}
		}
		return len(seen) == 30
	}
	if !waitUntil(30*time.Second, covered) {
		mu.Lock()
		for i, l := range logs {
			t.Logf("incarnation %d: %v", i, l.snapshot())
		}
		mu.Unlock()
		t.Fatalf("union coverage incomplete after restart (state=%v lastErr=%v)",
			rm.State(), rm.LastError())
	}
	mu.Lock()
	ls := append([]*incarnationLog(nil), logs...)
	mu.Unlock()
	if len(ls) != 2 {
		t.Fatalf("want 2 incarnations, got %d", len(ls))
	}
	overlap := 0
	seen := make(map[int]bool)
	for i, l := range ls {
		ids := l.snapshot()
		assertStrictlyIncreasing(t, "incarnation", ids)
		for _, id := range ids {
			if seen[id] {
				overlap++
			}
			seen[id] = true
		}
		t.Logf("incarnation %d received %d messages", i, len(ids))
	}
	// Overlap between incarnations is bounded by the in-flight window:
	// only delivered-but-unacked frames can be replayed to the fresh
	// incarnation.
	if overlap > 32 {
		t.Fatalf("cross-incarnation overlap %d exceeds the in-flight window", overlap)
	}

	st := pub.Stats().Snapshot()
	// A restart builds a brand-new Peer, so the old receiver state is
	// gone: the handshake must come back found=false and the sender
	// must replay under a fresh epoch, never a same-epoch resume.
	if st.RelSessionsFresh < 1 {
		t.Fatalf("RelSessionsFresh = %d, want >= 1", st.RelSessionsFresh)
	}
	if st.RelSessionsResumed != 0 {
		t.Fatalf("RelSessionsResumed = %d across a restart, want 0", st.RelSessionsResumed)
	}
	if st.RelQueueAbandoned != 0 {
		t.Fatalf("RelQueueAbandoned = %d on a clean restart, want 0", st.RelQueueAbandoned)
	}
}

// TestManagedQuarantineAndRetry: the redial circuit breaker. With
// MaxRedials set and the target down, the remote must quarantine —
// killing the reliable session so sends fail fast and abandoned
// frames are counted — and stay quarantined until Retry re-arms it
// against the restarted target.
func TestManagedQuarantineAndRetry(t *testing.T) {
	seed := scenarioSeed(t, 7003)
	defer func() {
		if t.Failed() {
			t.Logf("replay with PTI_SEED=%d", seed)
		}
	}()
	f := NewFabric(seed, WithVirtualClock())
	defer f.Close()
	regPub, regSub := personRegs(t)

	var events []EventKind
	var evMu sync.Mutex
	if _, err := f.AddPeerWithRegistry("pub", regPub,
		WithReliableLinks(WithWindow(4), WithSendQueue(64)),
		WithHeartbeat(20*time.Millisecond),
		WithRedialBackoff(5*time.Millisecond, 20*time.Millisecond),
		WithMaxRedials(2),
		WithObserver(func(e Event) {
			switch e.Kind {
			case EventPeerSuspect, EventPeerQuarantined, EventPeerRecovered:
				evMu.Lock()
				events = append(events, e.Kind)
				evMu.Unlock()
			}
		})); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var logs []*incarnationLog
	if _, err := f.AddPeerWithRegistry("sub", regSub, subscribeOption(&mu, &logs)); err != nil {
		t.Fatal(err)
	}
	prof, _ := NamedProfile("lan")
	rm, err := f.ConnectManaged("pub", "sub", prof)
	if err != nil {
		t.Fatal(err)
	}
	pub := f.Node("pub").Peer()

	for i := 0; i < 5; i++ {
		if _, err := pub.Broadcast(fixtures.PersonB{PersonName: "pub", PersonAge: i}); err != nil {
			t.Fatalf("broadcast %d: %v", i, err)
		}
	}
	if !waitUntil(20*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(logs[0].snapshot()) >= 5
	}) {
		t.Fatalf("steady-state deliveries stalled")
	}

	if err := f.Crash("sub"); err != nil {
		t.Fatal(err)
	}
	// More than the window fits in flight: the remainder queues, and
	// quarantine must count it as abandoned.
	for i := 5; i < 15; i++ {
		_, _ = pub.Broadcast(fixtures.PersonB{PersonName: "pub", PersonAge: i})
	}
	if !waitUntil(20*time.Second, func() bool { return rm.State() == HealthQuarantined }) {
		t.Fatalf("remote never quarantined: state=%v lastErr=%v", rm.State(), rm.LastError())
	}

	st := pub.Stats().Snapshot()
	if st.PeerQuarantines != 1 {
		t.Fatalf("PeerQuarantines = %d, want 1", st.PeerQuarantines)
	}
	if st.RelQueueAbandoned == 0 {
		t.Fatalf("RelQueueAbandoned = 0: quarantine must count the stranded queue")
	}
	// Quarantined: the dead session fails fast instead of buffering.
	if _, err := pub.Broadcast(fixtures.PersonB{PersonName: "pub", PersonAge: 99}); err == nil {
		t.Fatalf("broadcast to quarantined remote succeeded, want fail-fast")
	} else if !errors.Is(err, ErrPeerUnreachable) {
		t.Fatalf("quarantined broadcast error = %v, want ErrPeerUnreachable", err)
	}

	if _, err := f.Restart("sub"); err != nil {
		t.Fatal(err)
	}
	if !rm.Retry() {
		t.Fatalf("Retry on a quarantined remote returned false")
	}
	if rm.Retry() {
		t.Fatalf("second Retry while redialing returned true")
	}
	if !waitUntil(20*time.Second, func() bool { return rm.State() == HealthHealthy }) {
		t.Fatalf("remote never recovered after Retry: state=%v lastErr=%v", rm.State(), rm.LastError())
	}
	for i := 100; i < 105; i++ {
		if _, err := pub.Broadcast(fixtures.PersonB{PersonName: "pub", PersonAge: i}); err != nil {
			t.Fatalf("post-recovery broadcast %d: %v", i, err)
		}
	}
	if !waitUntil(20*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		if len(logs) < 2 {
			return false
		}
		return len(logs[1].snapshot()) >= 5
	}) {
		t.Fatalf("post-recovery deliveries stalled")
	}
	mu.Lock()
	second := logs[1].snapshot()
	mu.Unlock()
	assertStrictlyIncreasing(t, "recovered incarnation", second)

	evMu.Lock()
	kinds := append([]EventKind(nil), events...)
	evMu.Unlock()
	var sawSuspect, sawQuarantine, sawRecover bool
	for _, k := range kinds {
		switch k {
		case EventPeerSuspect:
			sawSuspect = true
		case EventPeerQuarantined:
			if !sawSuspect {
				t.Fatalf("quarantine before suspect: %v", kinds)
			}
			sawQuarantine = true
		case EventPeerRecovered:
			sawRecover = true
		}
	}
	if !sawSuspect || !sawQuarantine || !sawRecover {
		t.Fatalf("missing lifecycle events: %v", kinds)
	}
}

// TestPeerCloseDuringRedialReleasesGoroutines: Peer.Close racing an
// in-flight reconnect must not leak the monitor or redial loops, and
// must stay idempotent.
func TestPeerCloseDuringRedialReleasesGoroutines(t *testing.T) {
	base := healthLoopGoroutines() + reliableLoopGoroutines()

	seed := scenarioSeed(t, 7004)
	f := NewFabric(seed, WithVirtualClock())
	defer f.Close()
	regPub, regSub := personRegs(t)
	if _, err := f.AddPeerWithRegistry("pub", regPub,
		WithReliableLinks(WithSendQueue(16)),
		WithHeartbeat(10*time.Millisecond),
		WithRedialBackoff(5*time.Millisecond, 10*time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var logs []*incarnationLog
	if _, err := f.AddPeerWithRegistry("sub", regSub, subscribeOption(&mu, &logs)); err != nil {
		t.Fatal(err)
	}
	prof, _ := NamedProfile("lan")
	rm, err := f.ConnectManaged("pub", "sub", prof)
	if err != nil {
		t.Fatal(err)
	}
	pub := f.Node("pub").Peer()
	if _, err := pub.Broadcast(fixtures.PersonB{PersonName: "pub", PersonAge: 1}); err != nil {
		t.Fatal(err)
	}

	// Kill the target so the redial loop is live when the peer closes.
	if err := f.Crash("sub"); err != nil {
		t.Fatal(err)
	}
	if !waitUntil(10*time.Second, func() bool { return rm.State() == HealthSuspect }) {
		t.Fatalf("remote never suspected after crash")
	}
	if err := pub.Close(); err != nil {
		t.Fatalf("close during redial: %v", err)
	}
	if err := pub.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
	// ManageConn on a closed peer must refuse, not spawn loops.
	if _, err := pub.ManageConn("sub", func() (conn net.Conn, err error) { return nil, ErrPeerClosed }); !errors.Is(err, ErrPeerClosed) {
		t.Fatalf("ManageConn on closed peer = %v, want ErrPeerClosed", err)
	}

	if !waitUntil(10*time.Second, func() bool {
		return healthLoopGoroutines()+reliableLoopGoroutines() <= base
	}) {
		buf := make([]byte, 1<<21)
		n := runtime.Stack(buf, true)
		t.Fatalf("lifecycle goroutines leaked after Close during redial:\n%s", buf[:n])
	}
}

// TestReliableDropBuckets: the receiver's churn drop reasons land in
// distinct buckets — stale-epoch ghosts and resume-replay duplicates
// — each surfaced through the peer's typed drop call, and neither
// counts as a dropped object.
func TestReliableDropBuckets(t *testing.T) {
	rec := &recorder{}
	p := NewPeer(registry.New(), WithObserver(rec.observe))
	defer p.Close()
	stats := p.Stats()
	var delivered []string
	rr := newRelReceiver(stats,
		func(m *Message) { delivered = append(delivered, string(m.Body)) },
		func(drain func()) { drain() },
		func(m *Message) {},
		func(epoch, cum uint64) {},
		nil,
		func(r DropReason) { p.drop(r, typedesc.TypeRef{}, nil) })

	feed := func(epoch, seq uint64, body string) {
		t.Helper()
		if err := rr.handleData(encodeRelData(epoch, seq, &Message{Type: MsgObject, Body: []byte(body)})); err != nil {
			t.Fatalf("handleData(%d,%d): %v", epoch, seq, err)
		}
	}

	feed(5, 1, "alive")
	feed(4, 1, "ghost") // pre-restart epoch: dropped as stale
	st := stats.Snapshot()
	if st.RelStaleEpoch != 1 {
		t.Fatalf("RelStaleEpoch = %d, want 1", st.RelStaleEpoch)
	}
	if reasons := rec.drops(); len(reasons) != 1 || reasons[0].Reason != DropStaleEpoch || reasons[0].Detail != "stale epoch frame" {
		t.Fatalf("drop reasons = %v, want [stale epoch frame]", reasons)
	}

	// A resume adoption at (epoch 7, next 4): seqs 1..3 are committed
	// pre-outage state; replaying them must dedup into the resume
	// bucket, not redeliver.
	rr.adopt(7, 4)
	feed(7, 2, "replayed")
	st = stats.Snapshot()
	if st.RelResumeDeduped != 1 {
		t.Fatalf("RelResumeDeduped = %d, want 1", st.RelResumeDeduped)
	}
	if reasons := rec.drops(); len(reasons) != 2 || reasons[1].Reason != DropResumeDuplicate || reasons[1].Detail != "resume replay duplicate" {
		t.Fatalf("drop reasons = %v, want resume replay duplicate second", reasons)
	}
	feed(7, 4, "fresh")
	if len(delivered) != 2 || delivered[1] != "fresh" {
		t.Fatalf("delivered = %v, want [alive fresh]", delivered)
	}
	if st := stats.Snapshot(); st.RelStaleEpoch != 1 || st.RelResumeDeduped != 1 || st.ObjectsDropped != 0 {
		t.Fatalf("buckets moved on a clean delivery: %+v", st)
	}

	// A stale adoption (older epoch, or a rewind of the same epoch)
	// must be ignored: the live session wins.
	rr.adopt(6, 99)
	if e, n := rr.session(); e != 7 || n != 5 {
		t.Fatalf("session after stale adopt = (%d,%d), want (7,5)", e, n)
	}
}

// TestSealBoundedWaitTimesOut: sealIfWithin must not wait forever on
// a wedged dispatch handler — the handler can itself be blocked on a
// reply that only the resuming conn can carry, so an unbounded wait
// deadlocks the peer. On timeout the seal rolls back: the live
// session keeps delivering, and the handshake answers found=false.
func TestSealBoundedWaitTimesOut(t *testing.T) {
	var stats Stats
	entered := make(chan struct{}, 2) // one per fed frame
	release := make(chan struct{})
	var mu sync.Mutex
	var delivered []string
	rr := newRelReceiver(&stats,
		func(m *Message) {
			entered <- struct{}{}
			<-release
			mu.Lock()
			delivered = append(delivered, string(m.Body))
			mu.Unlock()
		},
		func(drain func()) { go drain() }, // as in production: off the accepting goroutine
		func(m *Message) {},
		func(epoch, cum uint64) {},
		nil,
		func(DropReason) {})

	feed := func(seq uint64, body string) {
		t.Helper()
		if err := rr.handleData(encodeRelData(3, seq, &Message{Type: MsgObject, Body: []byte(body)})); err != nil {
			t.Fatalf("handleData(3,%d): %v", seq, err)
		}
	}
	feed(1, "a")
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("dispatch never entered the wedged handler")
	}

	if _, ok, timedOut := rr.sealIfWithin(99, realClock{}, time.Second); ok || timedOut {
		t.Fatalf("seal of a foreign epoch = ok=%v timedOut=%v, want a plain miss", ok, timedOut)
	}
	if _, ok, timedOut := rr.sealIfWithin(3, realClock{}, 50*time.Millisecond); ok || !timedOut {
		t.Fatalf("seal over a wedged handler = ok=%v timedOut=%v, want a timeout", ok, timedOut)
	}

	// The rollback must leave the session live: the next frame is
	// still accepted, and both deliver once the handler unwedges.
	feed(2, "b")
	close(release)
	if !waitUntil(10*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(delivered) == 2
	}) {
		t.Fatal("dispatch did not resume after the rolled-back seal")
	}
	if next, ok, timedOut := rr.sealIfWithin(3, realClock{}, time.Second); !ok || timedOut || next != 3 {
		t.Fatalf("seal after drain = (%d,%v,%v), want (3,true,false)", next, ok, timedOut)
	}
}

// TestResumeSessionConsumedOnHandout: a saved session may be handed
// to exactly one resuming conn — an entry left behind would let a
// later redial adopt a stale watermark and redeliver frames the
// first adopter already committed to the application.
func TestResumeSessionConsumedOnHandout(t *testing.T) {
	p := NewPeer(registry.New(), WithName("handout"))
	defer p.Close()

	p.saveRelSession(9, 42)
	if next, ok := p.resumeSessionFor(9, nil); !ok || next != 42 {
		t.Fatalf("first handout = (%d,%v), want (42,true)", next, ok)
	}
	if next, ok := p.resumeSessionFor(9, nil); ok {
		t.Fatalf("second handout = (%d,%v), want a miss (the entry must be consumed)", next, ok)
	}
	if _, ok := p.resumeSessionFor(0, nil); ok {
		t.Fatal("epoch 0 is the no-session sentinel and must never resolve")
	}
}
