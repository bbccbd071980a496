package transport

import (
	"errors"
	"net"
	"testing"
	"time"

	"pti/internal/fixtures"
	"pti/internal/registry"
	"pti/internal/typedesc"
)

// senderPeer builds peer A: it owns PersonB and StockQuoteB.
func senderPeer(t *testing.T, opts ...PeerOption) *Peer {
	t.Helper()
	reg := registry.New()
	if _, err := reg.Register(fixtures.PersonB{},
		registry.WithConstructor("NewPersonB", fixtures.NewPersonB),
		registry.WithDownloadPaths("http://peer-a/code/PersonB")); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Register(fixtures.StockQuoteB{}); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Register(fixtures.Address{}); err != nil {
		t.Fatal(err)
	}
	return NewPeer(reg, append([]PeerOption{WithName("peer-a")}, opts...)...)
}

// receiverPeer builds peer B: it owns PersonA and StockQuoteA.
func receiverPeer(t *testing.T, opts ...PeerOption) *Peer {
	t.Helper()
	reg := registry.New()
	if _, err := reg.Register(fixtures.PersonA{},
		registry.WithConstructor("NewPersonA", fixtures.NewPersonA)); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Register(fixtures.StockQuoteA{}); err != nil {
		t.Fatal(err)
	}
	return NewPeer(reg, append([]PeerOption{WithName("peer-b")}, opts...)...)
}

func awaitDelivery(t *testing.T, ch <-chan Delivery) Delivery {
	t.Helper()
	select {
	case d := <-ch:
		return d
	case <-time.After(5 * time.Second):
		t.Fatal("timed out waiting for delivery")
		return Delivery{}
	}
}

// TestFigure1Protocol drives the full five-step exchange: an object
// of an unknown type arrives, the receiver pulls the description,
// checks conformance, pulls the code, and uses the object through a
// bound local implementation.
func TestFigure1Protocol(t *testing.T) {
	a := senderPeer(t)
	b := receiverPeer(t)
	defer a.Close()
	defer b.Close()

	deliveries := make(chan Delivery, 1)
	if err := b.OnReceive(fixtures.PersonA{}, func(d Delivery) { deliveries <- d }); err != nil {
		t.Fatal(err)
	}

	ca, _ := Connect(a, b)
	if err := a.SendObject(ca, fixtures.PersonB{PersonName: "Hopper", PersonAge: 85}); err != nil {
		t.Fatal(err)
	}

	d := awaitDelivery(t, deliveries)
	if d.TypeName != "PersonB" {
		t.Errorf("TypeName = %q", d.TypeName)
	}
	pa, ok := d.Bound.(*fixtures.PersonA)
	if !ok {
		t.Fatalf("Bound = %T", d.Bound)
	}
	if pa.Name != "Hopper" || pa.Age != 85 {
		t.Errorf("bound = %+v", pa)
	}
	// The object is usable through the proxy too.
	out, err := d.Invoker.Call("GetName")
	if err != nil || out[0] != "Hopper" {
		t.Errorf("Invoker.Call = %v, %v", out, err)
	}

	// Cold reception cost: exactly one type-info and one code
	// round trip.
	bs := b.Stats().Snapshot()
	if bs.TypeInfoRequests != 1 {
		t.Errorf("TypeInfoRequests = %d, want 1", bs.TypeInfoRequests)
	}
	if bs.CodeRequests != 1 {
		t.Errorf("CodeRequests = %d, want 1", bs.CodeRequests)
	}
	if bs.ObjectsDelivered != 1 {
		t.Errorf("ObjectsDelivered = %d", bs.ObjectsDelivered)
	}
}

func TestWarmReceiveSkipsRoundTrips(t *testing.T) {
	a := senderPeer(t)
	b := receiverPeer(t)
	defer a.Close()
	defer b.Close()

	deliveries := make(chan Delivery, 4)
	if err := b.OnReceive(fixtures.PersonA{}, func(d Delivery) { deliveries <- d }); err != nil {
		t.Fatal(err)
	}
	ca, _ := Connect(a, b)

	for i := 0; i < 3; i++ {
		if err := a.SendObject(ca, fixtures.PersonB{PersonName: "P", PersonAge: i}); err != nil {
			t.Fatal(err)
		}
		awaitDelivery(t, deliveries)
	}
	bs := b.Stats().Snapshot()
	if bs.TypeInfoRequests != 1 {
		t.Errorf("TypeInfoRequests = %d, want 1 (descriptor cached after first)", bs.TypeInfoRequests)
	}
	if bs.CodeRequests != 1 {
		t.Errorf("CodeRequests = %d, want 1 (code cached after first)", bs.CodeRequests)
	}
	if bs.DescriptorHits < 2 {
		t.Errorf("DescriptorHits = %d, want >= 2", bs.DescriptorHits)
	}
	if bs.ObjectsDelivered != 3 {
		t.Errorf("ObjectsDelivered = %d", bs.ObjectsDelivered)
	}
}

func TestProtocolOverTCP(t *testing.T) {
	a := senderPeer(t)
	b := receiverPeer(t)
	defer a.Close()
	defer b.Close()

	deliveries := make(chan Delivery, 1)
	if err := b.OnReceive(fixtures.PersonA{}, func(d Delivery) { deliveries <- d }); err != nil {
		t.Fatal(err)
	}
	if err := b.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	conn, err := a.Dial(b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if err := a.SendObject(conn, fixtures.PersonB{PersonName: "TCP", PersonAge: 1}); err != nil {
		t.Fatal(err)
	}
	d := awaitDelivery(t, deliveries)
	if d.Bound.(*fixtures.PersonA).Name != "TCP" {
		t.Errorf("bound = %+v", d.Bound)
	}
}

func TestEagerModeNoRoundTrips(t *testing.T) {
	a := senderPeer(t, Eager())
	b := receiverPeer(t)
	defer a.Close()
	defer b.Close()

	deliveries := make(chan Delivery, 1)
	if err := b.OnReceive(fixtures.PersonA{}, func(d Delivery) { deliveries <- d }); err != nil {
		t.Fatal(err)
	}
	ca, _ := Connect(a, b)
	if err := a.SendObject(ca, fixtures.PersonB{PersonName: "Eager", PersonAge: 2}); err != nil {
		t.Fatal(err)
	}
	d := awaitDelivery(t, deliveries)
	if d.Bound.(*fixtures.PersonA).Name != "Eager" {
		t.Errorf("bound = %+v", d.Bound)
	}
	bs := b.Stats().Snapshot()
	if bs.TypeInfoRequests != 0 || bs.CodeRequests != 0 {
		t.Errorf("eager mode should need no round trips: %+v", bs)
	}
}

func TestOptimisticBeatsEagerWhenWarm(t *testing.T) {
	// The paper's network-resource claim: after the first object,
	// the optimistic protocol ships only envelopes, while eager
	// re-ships description + code every time.
	const objects = 10

	run := func(eager bool) uint64 {
		var opts []PeerOption
		if eager {
			opts = append(opts, Eager())
		}
		a := senderPeer(t, opts...)
		b := receiverPeer(t)
		defer a.Close()
		defer b.Close()
		deliveries := make(chan Delivery, objects)
		if err := b.OnReceive(fixtures.PersonA{}, func(d Delivery) { deliveries <- d }); err != nil {
			t.Fatal(err)
		}
		ca, _ := Connect(a, b)
		for i := 0; i < objects; i++ {
			if err := a.SendObject(ca, fixtures.PersonB{PersonName: "N", PersonAge: i}); err != nil {
				t.Fatal(err)
			}
			awaitDelivery(t, deliveries)
		}
		return a.Stats().Snapshot().BytesSent + b.Stats().Snapshot().BytesSent
	}

	optimistic := run(false)
	eager := run(true)
	if optimistic >= eager {
		t.Errorf("optimistic (%d bytes) should beat eager (%d bytes) over %d objects",
			optimistic, eager, objects)
	}
}

func TestNonConformantObjectDropped(t *testing.T) {
	a := senderPeer(t)
	b := receiverPeer(t)
	defer a.Close()
	defer b.Close()

	if err := b.OnReceive(fixtures.PersonA{}, func(d Delivery) {
		t.Error("Address must not be delivered as PersonA")
	}); err != nil {
		t.Fatal(err)
	}
	ca, _ := Connect(a, b)
	if err := a.SendObject(ca, fixtures.Address{City: "Geneva"}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if b.Stats().Snapshot().ObjectsDropped == 1 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("object not dropped: %+v", b.Stats().Snapshot())
}

func TestInterfaceInterestGetsView(t *testing.T) {
	// The receiver declares interest in an interface it has no
	// implementation entry for: the delivery is a generic view with
	// the method mapping attached.
	a := senderPeer(t)
	reg := registry.New()
	b := NewPeer(reg, WithName("peer-b"))
	defer a.Close()
	defer b.Close()

	deliveries := make(chan Delivery, 1)
	if err := b.OnReceive((*fixtures.Person)(nil), func(d Delivery) { deliveries <- d }); err != nil {
		t.Fatal(err)
	}
	ca, _ := Connect(a, b)
	if err := a.SendObject(ca, fixtures.PersonB{PersonName: "ViewMe", PersonAge: 3}); err != nil {
		t.Fatal(err)
	}
	d := awaitDelivery(t, deliveries)
	if d.Bound != nil {
		t.Error("no local entry: Bound should be nil")
	}
	if d.View == nil {
		t.Fatal("View missing")
	}
	mm, ok := d.Mapping.MethodFor("GetName")
	if !ok || mm.Candidate != "GetPersonName" {
		t.Errorf("GetName mapping = %+v", mm)
	}
}

func TestSendUnregisteredTypeFails(t *testing.T) {
	a := senderPeer(t)
	b := receiverPeer(t)
	defer a.Close()
	defer b.Close()
	ca, _ := Connect(a, b)
	if err := a.SendObject(ca, fixtures.Employee{}); !errors.Is(err, ErrNotRegistered) {
		t.Errorf("unregistered send: %v", err)
	}
}

func TestTypeInfoRequestUnknownType(t *testing.T) {
	a := senderPeer(t)
	b := receiverPeer(t)
	defer a.Close()
	defer b.Close()
	_, cb := Connect(a, b)
	ghost := typedesc.TypeRef{Name: "Ghost"}
	if _, err := cb.request(MsgTypeInfoRequest, encodeRef(ghost)); !errors.Is(err, ErrRemote) {
		t.Errorf("unknown type info: %v", err)
	}
	if _, err := cb.request(MsgCodeRequest, encodeRef(ghost)); !errors.Is(err, ErrRemote) {
		t.Errorf("unknown code: %v", err)
	}
}

func TestRequestOnClosedConn(t *testing.T) {
	a := senderPeer(t)
	b := receiverPeer(t)
	defer a.Close()
	defer b.Close()
	ca, cb := Connect(a, b)
	_ = cb.Close()
	_ = ca.Close()
	if _, err := ca.request(MsgTypeInfoRequest, encodeRef(typedesc.TypeRef{Name: "X"})); !errors.Is(err, ErrClosed) {
		t.Errorf("closed request: %v", err)
	}
}

func TestMultipleInterestsFirstMatchWins(t *testing.T) {
	a := senderPeer(t)
	b := receiverPeer(t)
	defer a.Close()
	defer b.Close()

	got := make(chan string, 2)
	if err := b.OnReceive(fixtures.StockQuoteA{}, func(d Delivery) { got <- "quote" }); err != nil {
		t.Fatal(err)
	}
	if err := b.OnReceive(fixtures.PersonA{}, func(d Delivery) { got <- "person" }); err != nil {
		t.Fatal(err)
	}
	ca, _ := Connect(a, b)
	if err := a.SendObject(ca, fixtures.StockQuoteB{StockSymbol: "ABBN", StockPrice: 1, StockVolume: 2}); err != nil {
		t.Fatal(err)
	}
	if err := a.SendObject(ca, fixtures.PersonB{PersonName: "Q", PersonAge: 1}); err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{"quote": true, "person": true}
	for i := 0; i < 2; i++ {
		select {
		case s := <-got:
			if !want[s] {
				t.Errorf("unexpected or duplicate delivery %q", s)
			}
			delete(want, s)
		case <-time.After(5 * time.Second):
			t.Fatal("timeout")
		}
	}
}

func TestCorruptObjectBodyDropped(t *testing.T) {
	a := senderPeer(t)
	b := receiverPeer(t)
	defer a.Close()
	defer b.Close()
	ca, _ := Connect(a, b)
	if err := ca.send(&Message{Type: MsgObject, Body: []byte{flagOptimistic, 'g', 'a', 'r', 'b'}}); err != nil {
		t.Fatal(err)
	}
	if err := ca.send(&Message{Type: MsgObject, Body: nil}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if b.Stats().Snapshot().ObjectsDropped == 2 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("corrupt bodies not dropped: %+v", b.Stats().Snapshot())
}

// TestSendOnClosedConnIsErrClosed: a write that loses the race with
// teardown reports the typed ErrClosed, whether the stream was closed
// under a live conn or the conn itself was closed first.
func TestSendOnClosedConnIsErrClosed(t *testing.T) {
	a, b := senderPeer(t), receiverPeer(t)
	defer a.Close()
	defer b.Close()
	closers := map[string]func(c *Conn){
		"stream": func(c *Conn) { _ = c.rw.Close() },
		"conn":   func(c *Conn) { _ = c.Close() },
	}
	for name, closeIt := range closers {
		c, _ := Connect(a, b)
		closeIt(c)
		err := c.send(&Message{Type: MsgObject, Body: []byte{flagOptimistic}})
		if !errors.Is(err, ErrClosed) {
			t.Errorf("%s closed: send error = %v, want ErrClosed", name, err)
		}
	}
}

func TestStatsReset(t *testing.T) {
	var s Stats
	s.add(cBytesSent, 10)
	s.add(cObjectsSent, 2)
	s.Reset()
	snap := s.Snapshot()
	if snap.BytesSent != 0 || snap.ObjectsSent != 0 {
		t.Errorf("Reset left %+v", snap)
	}
}

func TestBroadcast(t *testing.T) {
	a := senderPeer(t)
	defer a.Close()

	const receivers = 3
	chans := make([]chan Delivery, receivers)
	peers := make([]*Peer, receivers)
	for i := 0; i < receivers; i++ {
		b := receiverPeer(t)
		peers[i] = b
		ch := make(chan Delivery, 1)
		chans[i] = ch
		if err := b.OnReceive(fixtures.PersonA{}, func(d Delivery) { ch <- d }); err != nil {
			t.Fatal(err)
		}
		Connect(a, b)
	}
	defer func() {
		for _, p := range peers {
			_ = p.Close()
		}
	}()
	if a.ConnCount() != receivers {
		t.Fatalf("ConnCount = %d", a.ConnCount())
	}

	sent, err := a.Broadcast(fixtures.PersonB{PersonName: "All", PersonAge: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sent != receivers {
		t.Errorf("sent = %d", sent)
	}
	for i, ch := range chans {
		select {
		case d := <-ch:
			if d.Bound.(*fixtures.PersonA).Name != "All" {
				t.Errorf("receiver %d bound = %+v", i, d.Bound)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("receiver %d timed out", i)
		}
	}
}

func TestBroadcastUnregistered(t *testing.T) {
	a := senderPeer(t)
	b := receiverPeer(t)
	defer a.Close()
	defer b.Close()
	Connect(a, b)
	if sent, err := a.Broadcast(fixtures.Employee{}); err == nil || sent != 0 {
		t.Errorf("unregistered broadcast: sent=%d err=%v", sent, err)
	}
}

func TestRequestTimeoutAgainstSilentServer(t *testing.T) {
	// A raw TCP listener that accepts and stays silent: requests
	// must fail with ErrRequestTimeout, not hang.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				buf := make([]byte, 4096)
				for {
					if _, err := conn.Read(buf); err != nil {
						return
					}
				}
			}()
		}
	}()

	p := NewPeer(registry.New(), WithRequestTimeout(300*time.Millisecond))
	defer p.Close()
	conn, err := p.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err = conn.request(MsgTypeInfoRequest, encodeRef(typedesc.TypeRef{Name: "X"}))
	if !errors.Is(err, ErrRequestTimeout) {
		t.Errorf("want timeout, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Errorf("timeout took %v", elapsed)
	}
}

// TestCorruptCompressedBodyDropped: a body carrying the retired
// compressed flag (2) over a live connection is dropped, not parsed
// as an envelope.
func TestCorruptCompressedBodyDropped(t *testing.T) {
	a := senderPeer(t)
	b := receiverPeer(t)
	defer a.Close()
	defer b.Close()
	ca, _ := Connect(a, b)
	if err := ca.send(&Message{Type: MsgObject, Body: []byte{2, 0xFF, 0x00}}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if b.Stats().Snapshot().ObjectsDropped == 1 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("body with the retired compressed flag not dropped")
}
