package transport

import (
	"bytes"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"pti/internal/fixtures"
	"pti/internal/registry"
	"pti/internal/typedesc"
)

// fabricPair builds a two-node fabric: "a" owns PersonB (the sender
// vocabulary), "b" owns PersonA (the receiver vocabulary).
func fabricPair(t *testing.T, seed int64, prof FaultProfile, aOpts, bOpts []PeerOption) (*Fabric, *Node, *Node) {
	t.Helper()
	return fabricPairOpts(t, seed, prof, nil, aOpts, bOpts)
}

// fabricPairOpts is fabricPair with fabric-level options (virtual
// clock, default peer options).
func fabricPairOpts(t *testing.T, seed int64, prof FaultProfile, fabOpts []FabricOption, aOpts, bOpts []PeerOption) (*Fabric, *Node, *Node) {
	t.Helper()
	f := NewFabric(seed, fabOpts...)
	regA := registry.New()
	if _, err := regA.Register(fixtures.PersonB{},
		registry.WithConstructor("NewPersonB", fixtures.NewPersonB)); err != nil {
		t.Fatal(err)
	}
	regB := registry.New()
	if _, err := regB.Register(fixtures.PersonA{},
		registry.WithConstructor("NewPersonA", fixtures.NewPersonA)); err != nil {
		t.Fatal(err)
	}
	na, err := f.AddPeerWithRegistry("a", regA, aOpts...)
	if err != nil {
		t.Fatal(err)
	}
	nb, err := f.AddPeerWithRegistry("b", regB, bOpts...)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := f.Connect("a", "b", prof); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = f.Close() })
	return f, na, nb
}

// waitUntil polls cond until it holds or the deadline passes.
func waitUntil(d time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return true
		}
		time.Sleep(2 * time.Millisecond)
	}
	return cond()
}

// TestFabricRunsFigure1Unmodified proves the point of the Link
// abstraction: the full optimistic protocol — envelope, on-demand
// description fetch, conformance check, code download, bound
// delivery — runs over a simulated link with latency without a single
// change to the peer code.
func TestFabricRunsFigure1Unmodified(t *testing.T) {
	_, na, nb := fabricPair(t, 7,
		FaultProfile{Latency: time.Millisecond, Jitter: time.Millisecond}, nil, nil)

	deliveries := make(chan Delivery, 1)
	if err := nb.Peer().OnReceive(fixtures.PersonA{}, func(d Delivery) { deliveries <- d }); err != nil {
		t.Fatal(err)
	}
	ca, ok := na.ConnTo("b")
	if !ok {
		t.Fatal("node a has no conn to b")
	}
	if err := na.Peer().SendObject(ca, fixtures.PersonB{PersonName: "Hopper", PersonAge: 85}); err != nil {
		t.Fatal(err)
	}
	d := awaitDelivery(t, deliveries)
	pa, ok := d.Bound.(*fixtures.PersonA)
	if !ok {
		t.Fatalf("Bound = %T", d.Bound)
	}
	if pa.Name != "Hopper" || pa.Age != 85 {
		t.Errorf("bound = %+v", pa)
	}
	bs := nb.Peer().Stats().Snapshot()
	if bs.TypeInfoRequests != 1 || bs.CodeRequests != 1 {
		t.Errorf("cold reception cost: typeinfo=%d code=%d, want 1/1",
			bs.TypeInfoRequests, bs.CodeRequests)
	}
}

// TestFabricScheduleReplaysByteIdentically is the determinism
// acceptance test: the same seed driving the same frame sequence
// produces a byte-identical fault schedule; a different seed does
// not. Eager one-way traffic keeps the frame sequence single-sourced
// and therefore deterministic.
func TestFabricScheduleReplaysByteIdentically(t *testing.T) {
	run := func(seed int64) []byte {
		f, na, nb := fabricPair(t, seed, FaultProfile{
			Latency:     200 * time.Microsecond,
			Jitter:      200 * time.Microsecond,
			DropRate:    0.3,
			DupRate:     0.1,
			ReorderRate: 0.2,
		}, []PeerOption{Eager()}, nil)
		var delivered atomic.Uint64
		if err := nb.Peer().OnReceive(fixtures.PersonA{}, func(Delivery) { delivered.Add(1) }); err != nil {
			t.Fatal(err)
		}
		ca, _ := na.ConnTo("b")
		for i := 0; i < 40; i++ {
			if err := na.Peer().SendObject(ca, fixtures.PersonB{PersonName: "x", PersonAge: i}); err != nil {
				t.Fatal(err)
			}
		}
		// Every scheduling decision is made synchronously inside the
		// send, so the dump is complete the moment the sends return.
		// Quiesce only so teardown does not race in-flight frames.
		waitUntil(5*time.Second, func() bool {
			s := f.Stats()
			return s.FramesDelivered == s.FramesSent-s.FramesDropped-s.PartitionDrops+s.FramesDuplicated
		})
		return f.ScheduleDump()
	}

	d1 := run(42)
	d2 := run(42)
	if !bytes.Equal(d1, d2) {
		t.Fatalf("same seed produced different schedules:\n--- run 1 ---\n%s--- run 2 ---\n%s", d1, d2)
	}
	if len(d1) == 0 {
		t.Fatal("empty schedule recorded")
	}
	d3 := run(43)
	if bytes.Equal(d1, d3) {
		t.Error("different seeds produced identical fault schedules")
	}
}

// TestFabricDropRateLosesFrames: a fully lossy direction delivers
// nothing and accounts for every frame as dropped.
func TestFabricDropRateLosesFrames(t *testing.T) {
	f, na, nb := fabricPair(t, 3, FaultProfile{DropRate: 1.0},
		[]PeerOption{Eager()}, nil)
	var delivered atomic.Uint64
	if err := nb.Peer().OnReceive(fixtures.PersonA{}, func(Delivery) { delivered.Add(1) }); err != nil {
		t.Fatal(err)
	}
	ca, _ := na.ConnTo("b")
	for i := 0; i < 10; i++ {
		if err := na.Peer().SendObject(ca, fixtures.PersonB{PersonName: "gone"}); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(30 * time.Millisecond)
	if n := delivered.Load(); n != 0 {
		t.Errorf("delivered = %d over a 100%% lossy link", n)
	}
	s := f.Stats()
	if s.FramesDropped != 10 || s.FramesDelivered != 0 {
		t.Errorf("stats = %+v, want 10 dropped / 0 delivered", s)
	}
}

// TestFabricDuplicationDeliversTwice: object frames duplicated by the
// link produce duplicate receptions — which the optimistic protocol
// happily re-checks against its cache (the paper's repeated-reception
// path), so both copies deliver.
func TestFabricDuplicationDeliversTwice(t *testing.T) {
	_, na, nb := fabricPair(t, 5, FaultProfile{DupRate: 1.0},
		[]PeerOption{Eager()}, nil)
	var delivered atomic.Uint64
	if err := nb.Peer().OnReceive(fixtures.PersonA{}, func(Delivery) { delivered.Add(1) }); err != nil {
		t.Fatal(err)
	}
	ca, _ := na.ConnTo("b")
	if err := na.Peer().SendObject(ca, fixtures.PersonB{PersonName: "twice"}); err != nil {
		t.Fatal(err)
	}
	if !waitUntil(2*time.Second, func() bool { return delivered.Load() == 2 }) {
		t.Errorf("delivered = %d, want 2 (frame duplicated)", delivered.Load())
	}
	bs := nb.Peer().Stats().Snapshot()
	if bs.ObjectsReceived != 2 || bs.ObjectsDelivered != 2 {
		t.Errorf("receiver stats = %+v", bs)
	}
}

// TestFabricPartitionOneWay cuts only the reverse direction: the
// object frame arrives but the receiver's description fetch dies, so
// the optimistic protocol must drop the object — and recover on the
// next reception once the direction heals.
func TestFabricPartitionOneWay(t *testing.T) {
	f, na, nb := fabricPair(t, 11, FaultProfile{},
		nil, []PeerOption{WithRequestTimeout(100 * time.Millisecond)})
	deliveries := make(chan Delivery, 2)
	if err := nb.Peer().OnReceive(fixtures.PersonA{}, func(d Delivery) { deliveries <- d }); err != nil {
		t.Fatal(err)
	}
	if err := f.PartitionOneWay("b", "a", true); err != nil {
		t.Fatal(err)
	}
	ca, _ := na.ConnTo("b")
	if err := na.Peer().SendObject(ca, fixtures.PersonB{PersonName: "lost"}); err != nil {
		t.Fatal(err)
	}
	// The object arrives but the type-info request cannot return.
	if !waitUntil(2*time.Second, func() bool {
		return nb.Peer().Stats().Snapshot().ObjectsDropped == 1
	}) {
		t.Fatalf("object not dropped under one-way partition: %+v", nb.Peer().Stats().Snapshot())
	}
	if err := f.PartitionOneWay("b", "a", false); err != nil {
		t.Fatal(err)
	}
	if err := na.Peer().SendObject(ca, fixtures.PersonB{PersonName: "found", PersonAge: 1}); err != nil {
		t.Fatal(err)
	}
	d := awaitDelivery(t, deliveries)
	if d.Bound.(*fixtures.PersonA).Name != "found" {
		t.Errorf("delivered = %+v", d.Bound)
	}
}

// TestFabricBandwidthShapesDelivery: a narrow link spreads frame
// arrival over the transmission time.
func TestFabricBandwidthShapesDelivery(t *testing.T) {
	_, na, nb := fabricPair(t, 13, FaultProfile{Bandwidth: 16 * 1024},
		[]PeerOption{Eager()}, nil)
	var delivered atomic.Uint64
	if err := nb.Peer().OnReceive(fixtures.PersonA{}, func(Delivery) { delivered.Add(1) }); err != nil {
		t.Fatal(err)
	}
	ca, _ := na.ConnTo("b")
	start := time.Now()
	const n = 4 // 4 eager frames ≥ 4KiB (the code blob) each over a 16KiB/s link ≥ 1s
	for i := 0; i < n; i++ {
		if err := na.Peer().SendObject(ca, fixtures.PersonB{PersonName: "bulk"}); err != nil {
			t.Fatal(err)
		}
	}
	if !waitUntil(10*time.Second, func() bool { return delivered.Load() == n }) {
		t.Fatalf("delivered = %d, want %d", delivered.Load(), n)
	}
	if elapsed := time.Since(start); elapsed < 500*time.Millisecond {
		t.Errorf("bandwidth shaping had no effect: %d frames in %s", n, elapsed)
	}
}

// TestFabricReorderingKeepsDeliveryComplete: reordering delays frames
// but loses none; every object still arrives.
func TestFabricReorderingKeepsDeliveryComplete(t *testing.T) {
	f, na, nb := fabricPair(t, 17,
		FaultProfile{Latency: time.Millisecond, ReorderRate: 0.5},
		[]PeerOption{Eager()}, nil)
	var delivered atomic.Uint64
	if err := nb.Peer().OnReceive(fixtures.PersonA{}, func(Delivery) { delivered.Add(1) }); err != nil {
		t.Fatal(err)
	}
	ca, _ := na.ConnTo("b")
	const n = 30
	for i := 0; i < n; i++ {
		if err := na.Peer().SendObject(ca, fixtures.PersonB{PersonName: "r", PersonAge: i}); err != nil {
			t.Fatal(err)
		}
	}
	if !waitUntil(5*time.Second, func() bool { return delivered.Load() == n }) {
		t.Fatalf("delivered = %d, want %d", delivered.Load(), n)
	}
	if f.Stats().FramesReordered == 0 {
		t.Error("no frames recorded as reordered at rate 0.5")
	}
}

// TestPeerCloseFailsFastInFlightRequest is the satellite fix's unit
// test: a request stuck behind a one-way partition must fail with
// ErrPeerClosed the moment the peer closes — not after the 5s default
// request timeout.
func TestPeerCloseFailsFastInFlightRequest(t *testing.T) {
	f, _, nb := fabricPair(t, 19, FaultProfile{}, nil, nil)
	if err := f.PartitionOneWay("b", "a", true); err != nil {
		t.Fatal(err)
	}
	cb, _ := nb.ConnTo("a")

	errCh := make(chan error, 1)
	go func() {
		_, err := cb.Request(MsgTypeInfoRequest, encodeRef(typedesc.RefOf(reflect.TypeOf(fixtures.PersonA{}))))
		errCh <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the request get in flight
	start := time.Now()
	if err := nb.Peer().Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errCh:
		if !errors.Is(err, ErrPeerClosed) {
			t.Errorf("request error = %v, want ErrPeerClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("request did not fail after peer close")
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("close-to-failure took %s, want fast-fail", elapsed)
	}
}

// TestPeerCloseFailsFastInFlightFetchDescription drives the same fix
// through the real protocol path: an object arrives, the handler's
// description fetch hangs behind a cut reverse link, and Peer.Close
// must still return promptly because the fetch fails fast.
func TestPeerCloseFailsFastInFlightFetchDescription(t *testing.T) {
	f, na, nb := fabricPair(t, 23, FaultProfile{}, nil, nil)
	if err := nb.Peer().OnReceive(fixtures.PersonA{}, func(Delivery) {}); err != nil {
		t.Fatal(err)
	}
	if err := f.PartitionOneWay("b", "a", true); err != nil {
		t.Fatal(err)
	}
	ca, _ := na.ConnTo("b")
	if err := na.Peer().SendObject(ca, fixtures.PersonB{PersonName: "stuck"}); err != nil {
		t.Fatal(err)
	}
	// Wait for the handler to be in the description fetch.
	if !waitUntil(2*time.Second, func() bool {
		return nb.Peer().Stats().Snapshot().TypeInfoRequests == 1
	}) {
		t.Fatal("receiver never issued the type-info request")
	}
	start := time.Now()
	if err := nb.Peer().Close(); err != nil {
		t.Fatal(err)
	}
	// The default request timeout is 5s; fail-fast must beat it by a
	// wide margin.
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("Peer.Close blocked %s on an in-flight fetch", elapsed)
	}
	if dropped := nb.Peer().Stats().Snapshot().ObjectsDropped; dropped != 1 {
		t.Errorf("ObjectsDropped = %d, want 1 (fetch failed fast)", dropped)
	}
	// Registering an interest on the closed peer fails loudly instead
	// of silently never firing (the AttachNode-vs-Crash race).
	if err := nb.Peer().OnReceive(fixtures.PersonA{}, func(Delivery) {}); !errors.Is(err, ErrPeerClosed) {
		t.Errorf("OnReceive on closed peer = %v, want ErrPeerClosed", err)
	}
}

// TestFabricCrashSeversAndRestartRelinks: a crash kills the node's
// links (the remote side sees its conns die) and a restart brings the
// node back with fresh caches over the same registry.
func TestFabricCrashRestartRelinks(t *testing.T) {
	f, na, nb := fabricPair(t, 29, FaultProfile{}, nil, nil)
	deliveries := make(chan Delivery, 4)
	if err := nb.Peer().OnReceive(fixtures.PersonA{}, func(d Delivery) { deliveries <- d }); err != nil {
		t.Fatal(err)
	}
	ca, _ := na.ConnTo("b")
	if err := na.Peer().SendObject(ca, fixtures.PersonB{PersonName: "before"}); err != nil {
		t.Fatal(err)
	}
	awaitDelivery(t, deliveries)

	preCrash := f.Stats()
	if preCrash.FramesSent == 0 {
		t.Fatal("no frames accounted before crash")
	}
	if err := f.Crash("b"); err != nil {
		t.Fatal(err)
	}
	if nb.Peer() != nil {
		t.Error("crashed node still exposes a peer")
	}
	// Tearing the link down must not lose its frame accounting.
	if got := f.Stats(); got.FramesSent < preCrash.FramesSent {
		t.Errorf("crash lost frame accounting: %+v -> %+v", preCrash, got)
	}
	// The sender's conn dies with the link.
	if !waitUntil(2*time.Second, func() bool { return na.Peer().ConnCount() == 0 }) {
		t.Fatalf("sender still holds %d conns after remote crash", na.Peer().ConnCount())
	}
	if _, err := f.Restart("a"); !errors.Is(err, ErrNodeAlive) {
		t.Errorf("Restart(alive) = %v, want ErrNodeAlive", err)
	}

	nb2, err := f.Restart("b")
	if err != nil {
		t.Fatal(err)
	}
	if nb2.Peer() == nil {
		t.Fatal("restarted node has no peer")
	}
	// Fresh peer: cold caches, no interests. Re-register and re-drive.
	if err := nb2.Peer().OnReceive(fixtures.PersonA{}, func(d Delivery) { deliveries <- d }); err != nil {
		t.Fatal(err)
	}
	ca2, ok := na.ConnTo("b")
	if !ok {
		t.Fatal("restart did not relink a—b")
	}
	if err := na.Peer().SendObject(ca2, fixtures.PersonB{PersonName: "after", PersonAge: 2}); err != nil {
		t.Fatal(err)
	}
	d := awaitDelivery(t, deliveries)
	if d.Bound.(*fixtures.PersonA).Name != "after" {
		t.Errorf("post-restart delivery = %+v", d.Bound)
	}
	// The restarted peer re-learned the type from scratch.
	if got := nb2.Peer().Stats().Snapshot().TypeInfoRequests; got != 1 {
		t.Errorf("restarted peer TypeInfoRequests = %d, want 1 (cold cache)", got)
	}
}

// TestFabricManagementErrors pins the error surface of the fabric's
// management API.
func TestFabricManagementErrors(t *testing.T) {
	f := NewFabric(1)
	defer f.Close()
	if _, err := f.AddPeer("x"); !errors.Is(err, ErrNoRegistry) {
		t.Errorf("AddPeer without registry = %v, want ErrNoRegistry", err)
	}
	reg := registry.New()
	if _, err := f.AddPeerWithRegistry("a", reg); err != nil {
		t.Fatal(err)
	}
	if _, err := f.AddPeerWithRegistry("a", reg); !errors.Is(err, ErrDuplicateNode) {
		t.Errorf("duplicate AddPeer = %v, want ErrDuplicateNode", err)
	}
	if _, _, err := f.Connect("a", "ghost", FaultProfile{}); !errors.Is(err, ErrUnknownNode) {
		t.Errorf("Connect to ghost = %v, want ErrUnknownNode", err)
	}
	if err := f.Crash("ghost"); !errors.Is(err, ErrUnknownNode) {
		t.Errorf("Crash(ghost) = %v, want ErrUnknownNode", err)
	}
	if err := f.SetProfile("a", "ghost", FaultProfile{}); !errors.Is(err, ErrUnknownNode) {
		t.Errorf("SetProfile no link = %v, want ErrUnknownNode", err)
	}
	if f.Seed() != 1 {
		t.Errorf("Seed = %d", f.Seed())
	}
	_ = f.Close()
	if _, err := f.AddPeerWithRegistry("b", reg); !errors.Is(err, ErrFabricClosed) {
		t.Errorf("AddPeer after close = %v, want ErrFabricClosed", err)
	}
}
