package tps

import (
	"errors"
	"sync"
	"testing"
	"time"

	"pti/internal/fixtures"
	"pti/internal/registry"
	"pti/internal/transport"
)

// TestAttachNodeBridgesFabricIntoBroker is the distributed-TPS
// scenario over the simulation fabric: a remote publisher's objects
// cross a latency-and-duplication link into a local broker, where a
// subscriber with an independently written type receives them through
// the conformance mapping.
func TestAttachNodeBridgesFabricIntoBroker(t *testing.T) {
	f := transport.NewFabric(99)
	defer f.Close()

	regPub := registry.New()
	if _, err := regPub.Register(fixtures.StockQuoteB{}); err != nil {
		t.Fatal(err)
	}
	regSub := registry.New()
	if _, err := regSub.Register(fixtures.StockQuoteA{}); err != nil {
		t.Fatal(err)
	}
	pub, err := f.AddPeerWithRegistry("pub", regPub)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := f.AddPeerWithRegistry("sub", regSub)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := f.Connect("pub", "sub", transport.FaultProfile{
		Latency: time.Millisecond,
	}); err != nil {
		t.Fatal(err)
	}

	broker := NewBroker(regSub)
	var mu sync.Mutex
	var symbols []string
	if _, err := broker.Subscribe(fixtures.StockQuoteA{}, func(e Event) {
		mu.Lock()
		defer mu.Unlock()
		if q, ok := e.Bound.(*fixtures.StockQuoteA); ok {
			symbols = append(symbols, q.Symbol)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if err := AttachNode(broker, sub, fixtures.StockQuoteA{}); err != nil {
		t.Fatal(err)
	}

	conn, _ := pub.ConnTo("sub")
	if err := pub.Peer().SendObject(conn, fixtures.StockQuoteB{
		StockSymbol: "PTI", StockPrice: 42.0, StockVolume: 7,
	}); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		n := len(symbols)
		mu.Unlock()
		if n > 0 || time.Now().After(deadline) {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(symbols) != 1 || symbols[0] != "PTI" {
		t.Fatalf("symbols = %v, want [PTI]", symbols)
	}
	published, delivered, _ := broker.Stats()
	if published != 1 || delivered != 1 {
		t.Errorf("broker stats: published=%d delivered=%d", published, delivered)
	}
}

// TestAttachNodeRejectsCrashedNode: attaching a crashed node is an
// error, not a silent no-op — the caller must reattach after restart.
func TestAttachNodeRejectsCrashedNode(t *testing.T) {
	f := transport.NewFabric(100)
	defer f.Close()
	reg := registry.New()
	if _, err := reg.Register(fixtures.StockQuoteA{}); err != nil {
		t.Fatal(err)
	}
	n, err := f.AddPeerWithRegistry("n", reg)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Crash("n"); err != nil {
		t.Fatal(err)
	}
	broker := NewBroker(reg)
	if err := AttachNode(broker, n, fixtures.StockQuoteA{}); !errors.Is(err, transport.ErrNodeCrashed) {
		t.Errorf("AttachNode(crashed) = %v, want transport.ErrNodeCrashed", err)
	}
	// After restart the attach works again.
	if _, err := f.Restart("n"); err != nil {
		t.Fatal(err)
	}
	if err := AttachNode(broker, n, fixtures.StockQuoteA{}); err != nil {
		t.Errorf("AttachNode(restarted) = %v", err)
	}
}

// TestAttachNodeReliableLossyConvergence runs distributed TPS over a
// drop+dup+reorder link with WithReliableLinks on both ends, under
// the virtual clock: every published quote must reach the broker
// exactly once — the 100%-match-rate guarantee the reliable layer
// adds above the lossy fabric.
func TestAttachNodeReliableLossyConvergence(t *testing.T) {
	rel := transport.WithReliableLinks(
		transport.WithRetransmitTimeout(5 * time.Millisecond))
	f := transport.NewFabric(4242,
		transport.WithVirtualClock(),
		transport.WithFabricPeerOptions(rel,
			transport.WithRequestTimeout(2*time.Second)))
	defer f.Close()

	regPub := registry.New()
	if _, err := regPub.Register(fixtures.StockQuoteB{}); err != nil {
		t.Fatal(err)
	}
	regSub := registry.New()
	if _, err := regSub.Register(fixtures.StockQuoteA{}); err != nil {
		t.Fatal(err)
	}
	pub, err := f.AddPeerWithRegistry("pub", regPub)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := f.AddPeerWithRegistry("sub", regSub)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := f.Connect("pub", "sub", transport.FaultProfile{
		Latency:     500 * time.Microsecond,
		Jitter:      500 * time.Microsecond,
		DropRate:    0.25,
		DupRate:     0.15,
		ReorderRate: 0.25,
	}); err != nil {
		t.Fatal(err)
	}

	broker := NewBroker(regSub)
	var mu sync.Mutex
	volumes := make(map[int]int)
	if _, err := broker.Subscribe(fixtures.StockQuoteA{}, func(e Event) {
		mu.Lock()
		defer mu.Unlock()
		if q, ok := e.Bound.(*fixtures.StockQuoteA); ok {
			volumes[q.Volume]++
		}
	}); err != nil {
		t.Fatal(err)
	}
	if err := AttachNode(broker, sub, fixtures.StockQuoteA{}); err != nil {
		t.Fatal(err)
	}

	conn, _ := pub.ConnTo("sub")
	const n = 30
	for i := 0; i < n; i++ {
		if err := pub.Peer().SendObject(conn, fixtures.StockQuoteB{
			StockSymbol: "PTI", StockPrice: 42.0, StockVolume: i,
		}); err != nil {
			t.Fatal(err)
		}
	}

	deadline := time.Now().Add(30 * time.Second)
	for {
		mu.Lock()
		got := len(volumes)
		mu.Unlock()
		if got == n || time.Now().After(deadline) {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(volumes) != n {
		t.Fatalf("broker received %d/%d quotes over the lossy link", len(volumes), n)
	}
	for v, count := range volumes {
		if count != 1 {
			t.Errorf("quote %d delivered %d times (exactly-once violated)", v, count)
		}
	}
	published, delivered, _ := broker.Stats()
	if published != n || delivered != n {
		t.Errorf("broker stats: published=%d delivered=%d, want %d/%d", published, delivered, n, n)
	}
}

// TestAttachNodeBroadcastSurvivesBlackholedSubscriber runs the
// distributed-TPS publisher over the async send pipeline: with one
// subscriber node blackholed (partitioned both ways, connection
// alive), Broadcast keeps feeding the healthy broker without ever
// blocking on the dead link's window, and the dead link eventually
// surfaces a typed ErrPeerUnreachable through Broadcast's aggregated
// error.
func TestAttachNodeBroadcastSurvivesBlackholedSubscriber(t *testing.T) {
	f := transport.NewFabric(5150, transport.WithVirtualClock())
	defer f.Close()

	regPub := registry.New()
	if _, err := regPub.Register(fixtures.StockQuoteB{}); err != nil {
		t.Fatal(err)
	}
	pub, err := f.AddPeerWithRegistry("pub", regPub,
		transport.WithRequestTimeout(2*time.Second),
		transport.WithReliableLinks(
			transport.WithSendQueue(128),
			transport.WithWindow(8),
			transport.WithRetransmitTimeout(10*time.Millisecond),
			transport.WithMaxBackoff(80*time.Millisecond),
			transport.WithMaxAttempts(8)))
	if err != nil {
		t.Fatal(err)
	}
	newSub := func(name string) *transport.Node {
		reg := registry.New()
		if _, err := reg.Register(fixtures.StockQuoteA{}); err != nil {
			t.Fatal(err)
		}
		n, err := f.AddPeerWithRegistry(name, reg, transport.WithRequestTimeout(2*time.Second))
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := f.Connect("pub", name, transport.FaultProfile{
			Latency: 500 * time.Microsecond,
		}); err != nil {
			t.Fatal(err)
		}
		return n
	}
	healthy := newSub("healthy")
	newSub("dead")

	broker := NewBroker(healthy.Peer().Registry())
	var mu sync.Mutex
	volumes := make(map[int]int)
	if _, err := broker.Subscribe(fixtures.StockQuoteA{}, func(e Event) {
		mu.Lock()
		defer mu.Unlock()
		if q, ok := e.Bound.(*fixtures.StockQuoteA); ok {
			volumes[q.Volume]++
		}
	}); err != nil {
		t.Fatal(err)
	}
	if err := AttachNode(broker, healthy, fixtures.StockQuoteA{}); err != nil {
		t.Fatal(err)
	}

	if err := f.PartitionOneWay("pub", "dead", true); err != nil {
		t.Fatal(err)
	}
	if err := f.PartitionOneWay("dead", "pub", true); err != nil {
		t.Fatal(err)
	}

	const n = 40
	loopStart := time.Now()
	for i := 0; i < n; i++ {
		if sent, err := pub.Peer().Broadcast(fixtures.StockQuoteB{
			StockSymbol: "PTI", StockPrice: 1.0, StockVolume: i,
		}); err != nil && (!errors.Is(err, transport.ErrPeerUnreachable) || sent < 1) {
			t.Fatalf("broadcast %d: sent=%d err=%v", i, sent, err)
		}
	}
	if elapsed := time.Since(loopStart); elapsed > 5*time.Second {
		t.Fatalf("broadcast loop took %s: the pipeline stalled on the blackholed node", elapsed)
	}

	deadline := time.Now().Add(30 * time.Second)
	for {
		mu.Lock()
		got := len(volumes)
		mu.Unlock()
		if got == n || time.Now().After(deadline) {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	mu.Lock()
	if len(volumes) != n {
		t.Fatalf("healthy broker received %d/%d quotes", len(volumes), n)
	}
	for v, count := range volumes {
		if count != 1 {
			t.Errorf("quote %d delivered %d times", v, count)
		}
	}
	mu.Unlock()

	// The dead link gives up with the typed error, while broadcasts
	// keep reaching the healthy node.
	gaveUp := false
	for probeDeadline := time.Now().Add(20 * time.Second); time.Now().Before(probeDeadline); {
		sent, err := pub.Peer().Broadcast(fixtures.StockQuoteB{
			StockSymbol: "PTI", StockPrice: 1.0, StockVolume: 999,
		})
		if err != nil && errors.Is(err, transport.ErrPeerUnreachable) && sent == 1 {
			gaveUp = true
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if !gaveUp {
		t.Error("blackholed link never surfaced ErrPeerUnreachable")
	}
}

// TestAttachNodeSurvivesSubscriberChurn runs the distributed broker
// across a subscriber crash/restart cycle on a managed link: quotes
// published into the outage ride the publisher's send queue, the
// redial resumes the reliable session, and the broker — reattached on
// restart exactly like a recovering process — ends with full coverage
// and overlap bounded by the in-flight window.
func TestAttachNodeSurvivesSubscriberChurn(t *testing.T) {
	const window = 8
	f := transport.NewFabric(6161, transport.WithVirtualClock())
	defer f.Close()

	regPub := registry.New()
	if _, err := regPub.Register(fixtures.StockQuoteB{}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.AddPeerWithRegistry("pub", regPub,
		transport.WithReliableLinks(
			transport.WithWindow(window),
			transport.WithOverflowPolicy(transport.OverflowError)),
		transport.WithHeartbeat(50*time.Millisecond),
		transport.WithSuspectAfter(200*time.Millisecond),
		transport.WithRedialBackoff(10*time.Millisecond, 100*time.Millisecond),
		transport.WithRequestTimeout(2*time.Second)); err != nil {
		t.Fatal(err)
	}

	regSub := registry.New()
	if _, err := regSub.Register(fixtures.StockQuoteA{}); err != nil {
		t.Fatal(err)
	}
	broker := NewBroker(regSub)
	var mu sync.Mutex
	volumes := make(map[int]int)
	if _, err := broker.Subscribe(fixtures.StockQuoteA{}, func(e Event) {
		mu.Lock()
		defer mu.Unlock()
		if q, ok := e.Bound.(*fixtures.StockQuoteA); ok {
			volumes[q.Volume]++
		}
	}); err != nil {
		t.Fatal(err)
	}
	// Attaching through a peer option means every incarnation of the
	// subscriber re-bridges itself into the broker before its links
	// come back up — the restarted process re-running its init code.
	attach := func(p *transport.Peer) {
		if err := AttachPeer(broker, p, fixtures.StockQuoteA{}); err != nil {
			t.Errorf("reattach: %v", err)
		}
	}
	if _, err := f.AddPeerWithRegistry("sub", regSub,
		transport.WithRequestTimeout(2*time.Second), attach); err != nil {
		t.Fatal(err)
	}
	if _, err := f.ConnectManaged("pub", "sub", transport.FaultProfile{
		Latency: 500 * time.Microsecond,
	}); err != nil {
		t.Fatal(err)
	}

	pub := f.Node("pub").Peer()
	publish := func(from, to int) {
		t.Helper()
		for i := from; i < to; i++ {
			if _, err := pub.Broadcast(fixtures.StockQuoteB{
				StockSymbol: "PTI", StockPrice: 1.0, StockVolume: i,
			}); err != nil {
				t.Fatalf("publish %d: %v", i, err)
			}
		}
	}
	covered := func(n int) func() bool {
		return func() bool {
			mu.Lock()
			defer mu.Unlock()
			return len(volumes) >= n
		}
	}
	waitFor := func(cond func() bool) bool {
		deadline := time.Now().Add(60 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				return false
			}
			time.Sleep(2 * time.Millisecond)
		}
		return true
	}

	publish(0, 10)
	if !waitFor(covered(10)) {
		t.Fatalf("pre-churn batch incomplete: %d/10 volumes", len(volumes))
	}

	if err := f.Crash("sub"); err != nil {
		t.Fatal(err)
	}
	publish(10, 20) // queues into the outage; OverflowError makes a stall a failure
	if _, err := f.Restart("sub"); err != nil {
		t.Fatal(err)
	}

	if !waitFor(covered(20)) {
		mu.Lock()
		defer mu.Unlock()
		t.Fatalf("post-churn convergence failed: %d/20 volumes: %v", len(volumes), volumes)
	}
	mu.Lock()
	dups := 0
	for v, count := range volumes {
		if count > 2 {
			t.Errorf("volume %d delivered %d times", v, count)
		}
		if count > 1 {
			dups++
		}
	}
	mu.Unlock()
	// An ack raced the crash at worst once per in-flight slot; beyond
	// that a duplicate means the resume replayed delivered frames.
	if dups > window {
		t.Errorf("%d duplicated volumes, want <= window (%d)", dups, window)
	}

	st := pub.Stats().Snapshot()
	if st.RelSessionsResumed+st.RelSessionsFresh == 0 {
		t.Error("redial neither resumed the reliable session nor replayed under a fresh epoch")
	}
	if st.RelQueueAbandoned != 0 {
		t.Errorf("RelQueueAbandoned = %d, want 0", st.RelQueueAbandoned)
	}
}
