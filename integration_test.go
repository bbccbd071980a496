package pti_test

// End-to-end scenarios across modules, driven only through the public
// facade: relays, mixed codecs, policy asymmetry, fan-out, and the
// applications stacked on the transport.

import (
	"fmt"
	"testing"
	"time"

	"pti"
	"pti/internal/fixtures"
)

func awaitDelivery(t *testing.T, ch <-chan pti.Delivery) pti.Delivery {
	t.Helper()
	select {
	case d := <-ch:
		return d
	case <-time.After(10 * time.Second):
		t.Fatal("timed out waiting for delivery")
		return pti.Delivery{}
	}
}

// TestRelayChain forwards an object across three peers: the middle
// peer consumes it as its own type and re-publishes; conformance is
// re-evaluated at each hop.
func TestRelayChain(t *testing.T) {
	origin := pti.New()
	if err := origin.Register(fixtures.PersonB{}); err != nil {
		t.Fatal(err)
	}
	middle := pti.New()
	if err := middle.Register(fixtures.PersonA{}); err != nil {
		t.Fatal(err)
	}
	final := pti.New()
	if err := final.Register(fixtures.PersonB{}); err != nil {
		t.Fatal(err)
	}

	pOrigin := origin.NewPeer("origin")
	pMiddle := middle.NewPeer("middle")
	pFinal := final.NewPeer("final")
	defer pOrigin.Close()
	defer pMiddle.Close()
	defer pFinal.Close()

	_, connMF := pti.Connect(pMiddle, pFinal)
	_ = connMF
	got := make(chan pti.Delivery, 1)
	if err := pFinal.OnReceive(fixtures.PersonB{}, func(d pti.Delivery) { got <- d }); err != nil {
		t.Fatal(err)
	}
	// The middle hop re-publishes every received object to all its
	// connections (minus bookkeeping to avoid echo: it receives from
	// origin, broadcasts to final; origin's conn also gets a copy,
	// which origin simply drops for lack of interests). The handler
	// hands its Broadcast result to the test goroutine, which checks
	// it before teardown closes the peers under the broadcast.
	relayErr := make(chan error, 1)
	if err := pMiddle.OnReceive(fixtures.PersonA{}, func(d pti.Delivery) {
		pa := d.Bound.(*fixtures.PersonA)
		pa.Name = pa.Name + "-relayed"
		_, err := pMiddle.Broadcast(*pa)
		relayErr <- err
	}); err != nil {
		t.Fatal(err)
	}
	connOM, _ := pti.Connect(pOrigin, pMiddle)

	if err := pOrigin.SendObject(connOM, fixtures.PersonB{PersonName: "chain", PersonAge: 1}); err != nil {
		t.Fatal(err)
	}
	d := awaitDelivery(t, got)
	pb := d.Bound.(*fixtures.PersonB)
	if pb.PersonName != "chain-relayed" {
		t.Errorf("final delivery = %+v", pb)
	}
	if d.TypeName != "PersonA" {
		t.Errorf("final hop received type %q, want PersonA", d.TypeName)
	}
	select {
	case err := <-relayErr:
		if err != nil {
			t.Errorf("relay broadcast: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("relay broadcast never returned")
	}
}

// TestMixedCodecs sends SOAP from one peer to a binary-default peer:
// the envelope's encoding tag drives decoding, so codecs need not
// match.
func TestMixedCodecs(t *testing.T) {
	soapSide := pti.New(pti.WithSOAP())
	if err := soapSide.Register(fixtures.PersonB{}); err != nil {
		t.Fatal(err)
	}
	binSide := pti.New(pti.WithBinary())
	if err := binSide.Register(fixtures.PersonA{}); err != nil {
		t.Fatal(err)
	}
	a := soapSide.NewPeer("soap")
	b := binSide.NewPeer("binary")
	defer a.Close()
	defer b.Close()

	got := make(chan pti.Delivery, 1)
	if err := b.OnReceive(fixtures.PersonA{}, func(d pti.Delivery) { got <- d }); err != nil {
		t.Fatal(err)
	}
	ca, _ := pti.Connect(a, b)
	if err := a.SendObject(ca, fixtures.PersonB{PersonName: "xml", PersonAge: 2}); err != nil {
		t.Fatal(err)
	}
	d := awaitDelivery(t, got)
	if d.Bound.(*fixtures.PersonA).Name != "xml" {
		t.Errorf("bound = %+v", d.Bound)
	}
}

// TestPolicyAsymmetry runs one sender against a strict receiver and a
// relaxed receiver: the same object is dropped by the first and
// delivered by the second.
func TestPolicyAsymmetry(t *testing.T) {
	sender := pti.New()
	if err := sender.Register(fixtures.PersonB{}); err != nil {
		t.Fatal(err)
	}
	strictRT := pti.New(pti.WithPolicy(pti.StrictPolicy()))
	if err := strictRT.Register(fixtures.PersonA{}); err != nil {
		t.Fatal(err)
	}
	relaxedRT := pti.New(pti.WithPolicy(pti.RelaxedPolicy(1)))
	if err := relaxedRT.Register(fixtures.PersonA{}); err != nil {
		t.Fatal(err)
	}

	a := sender.NewPeer("sender")
	strict := strictRT.NewPeer("strict")
	relaxed := relaxedRT.NewPeer("relaxed")
	defer a.Close()
	defer strict.Close()
	defer relaxed.Close()

	if err := strict.OnReceive(fixtures.PersonA{}, func(d pti.Delivery) {
		t.Error("strict receiver must drop PersonB")
	}); err != nil {
		t.Fatal(err)
	}
	got := make(chan pti.Delivery, 1)
	if err := relaxed.OnReceive(fixtures.PersonA{}, func(d pti.Delivery) { got <- d }); err != nil {
		t.Fatal(err)
	}
	pti.Connect(a, strict)
	pti.Connect(a, relaxed)

	if n, err := a.Broadcast(fixtures.PersonB{PersonName: "policy", PersonAge: 3}); err != nil || n != 2 {
		t.Fatalf("broadcast: n=%d err=%v", n, err)
	}
	awaitDelivery(t, got)
	// Give the strict receiver time to (not) deliver.
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if strict.Stats().Snapshot().ObjectsDropped == 1 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("strict receiver stats: %+v", strict.Stats().Snapshot())
}

// TestFanOutToManySubscribers broadcasts a burst of events to several
// subscriber peers, each with its own vocabulary.
func TestFanOutToManySubscribers(t *testing.T) {
	pub := pti.New()
	if err := pub.Register(fixtures.StockQuoteB{}); err != nil {
		t.Fatal(err)
	}
	publisher := pub.NewPeer("publisher")
	defer publisher.Close()

	const subscribers = 4
	const events = 5
	chans := make([]chan pti.Delivery, subscribers)
	for i := 0; i < subscribers; i++ {
		rt := pti.New()
		if err := rt.Register(fixtures.StockQuoteA{}); err != nil {
			t.Fatal(err)
		}
		p := rt.NewPeer(fmt.Sprintf("sub-%d", i))
		defer p.Close()
		ch := make(chan pti.Delivery, events)
		chans[i] = ch
		if err := p.OnReceive(fixtures.StockQuoteA{}, func(d pti.Delivery) { ch <- d }); err != nil {
			t.Fatal(err)
		}
		pti.Connect(publisher, p)
	}

	for e := 0; e < events; e++ {
		if n, err := publisher.Broadcast(fixtures.StockQuoteB{
			StockSymbol: fmt.Sprintf("SYM%d", e), StockPrice: float64(e), StockVolume: e,
		}); err != nil || n != subscribers {
			t.Fatalf("broadcast %d: n=%d err=%v", e, n, err)
		}
	}
	for i, ch := range chans {
		for e := 0; e < events; e++ {
			d := awaitDelivery(t, ch)
			if _, ok := d.Bound.(*fixtures.StockQuoteA); !ok {
				t.Fatalf("subscriber %d event %d: %T", i, e, d.Bound)
			}
		}
	}
}

// TestApplicationsStack runs both Section 8 applications over one
// runtime: TPS locally, BL remotely over TCP.
func TestApplicationsStack(t *testing.T) {
	serverRT := pti.New(pti.WithPolicy(pti.RelaxedPolicy(2)))
	if err := serverRT.Register(fixtures.PersonB{}); err != nil {
		t.Fatal(err)
	}
	clientRT := pti.New(pti.WithPolicy(pti.RelaxedPolicy(2)))
	if err := clientRT.Register(fixtures.PersonA{}); err != nil {
		t.Fatal(err)
	}

	// TPS locally on the client runtime.
	broker := clientRT.NewBroker()
	events := 0
	if _, err := broker.Subscribe(fixtures.PersonA{}, func(e pti.BrokerEvent) { events++ }); err != nil {
		t.Fatal(err)
	}
	if _, err := broker.Publish(&fixtures.PersonB{PersonName: "local"}); err != nil {
		t.Fatal(err)
	}
	if events != 1 {
		t.Fatalf("local TPS events = %d", events)
	}

	// BL remotely over real TCP.
	server := serverRT.NewPeer("lender")
	client := clientRT.NewPeer("borrower")
	defer server.Close()
	defer client.Close()
	if err := server.Export("resource", &fixtures.PersonB{PersonName: "lent"}); err != nil {
		t.Fatal(err)
	}
	if err := server.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	conn, err := client.Dial(server.Addr())
	if err != nil {
		t.Fatal(err)
	}
	ref, err := client.Remote(conn, "resource", fixtures.PersonA{})
	if err != nil {
		t.Fatal(err)
	}
	out, err := ref.Call("GetName")
	if err != nil || out[0] != "lent" {
		t.Fatalf("remote call = %v, %v", out, err)
	}
}
