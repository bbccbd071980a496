package transport

import (
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"pti/internal/fixtures"
	"pti/internal/registry"
	"pti/internal/typedesc"
	"pti/internal/wire"
	"pti/internal/xmlenc"
)

// TestDownloadPathFallback forces the Section 6.1 path: the object
// arrives through a relay that cannot answer the type-info request,
// so the receiver fetches the description from the download path
// advertised in the envelope.
func TestDownloadPathFallback(t *testing.T) {
	// The "origin" registry knows PersonB and serves descriptions
	// over HTTP.
	originReg := registry.New()
	if _, err := originReg.Register(fixtures.PersonB{}); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewDescriptionServer(originReg))
	defer srv.Close()

	// The relay peer forwards the envelope but knows nothing about
	// PersonB, so MsgTypeInfoRequest against it fails.
	relay := NewPeer(registry.New(), WithName("relay"))
	receiverReg := registry.New()
	if _, err := receiverReg.Register(fixtures.PersonA{}); err != nil {
		t.Fatal(err)
	}
	receiver := NewPeer(receiverReg, WithName("receiver"))
	defer relay.Close()
	defer receiver.Close()

	deliveries := make(chan Delivery, 1)
	if err := receiver.OnReceive(fixtures.PersonA{}, func(d Delivery) { deliveries <- d }); err != nil {
		t.Fatal(err)
	}
	cr, _ := Connect(relay, receiver)

	// Hand-craft the envelope the origin would have produced,
	// advertising the HTTP server as the download path.
	originDesc, err := originReg.Resolve(typedesc.TypeRef{Name: "PersonB"})
	if err != nil {
		t.Fatal(err)
	}
	payload, err := wire.Binary{}.EncodeCompiled(nil, nil, fixtures.PersonB{PersonName: "ViaHTTP", PersonAge: 12})
	if err != nil {
		t.Fatal(err)
	}
	env := &xmlenc.Envelope{
		Type:     originDesc.Ref(),
		Encoding: xmlenc.EncodingBinary,
		Payload:  payload,
		Assemblies: []xmlenc.AssemblyInfo{
			{Type: originDesc.Ref(), DownloadPaths: []string{srv.URL}},
		},
	}
	envBytes, err := xmlenc.MarshalEnvelope(env)
	if err != nil {
		t.Fatal(err)
	}
	if err := cr.send(&Message{Type: MsgObject, Body: append([]byte{flagOptimistic}, envBytes...)}); err != nil {
		t.Fatal(err)
	}

	select {
	case d := <-deliveries:
		pa := d.Bound.(*fixtures.PersonA)
		if pa.Name != "ViaHTTP" || pa.Age != 12 {
			t.Errorf("bound = %+v", pa)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("delivery via download path did not arrive: %+v", receiver.Stats().Snapshot())
	}
}

// TestDownloadPathMissingDrops verifies a clean drop when neither the
// connection nor any download path can supply the description.
func TestDownloadPathMissingDrops(t *testing.T) {
	relay := NewPeer(registry.New(), WithName("relay"),
		WithRequestTimeout(500*time.Millisecond))
	receiverReg := registry.New()
	if _, err := receiverReg.Register(fixtures.PersonA{}); err != nil {
		t.Fatal(err)
	}
	receiver := NewPeer(receiverReg, WithName("receiver"),
		WithRequestTimeout(500*time.Millisecond))
	defer relay.Close()
	defer receiver.Close()
	if err := receiver.OnReceive(fixtures.PersonA{}, func(d Delivery) {
		t.Error("unresolvable object delivered")
	}); err != nil {
		t.Fatal(err)
	}
	cr, _ := Connect(relay, receiver)

	payload, _ := wire.Binary{}.EncodeCompiled(nil, nil, fixtures.PersonB{PersonName: "Lost"})
	env := &xmlenc.Envelope{
		Type:     typedesc.RefOf(refTypePersonB()),
		Encoding: xmlenc.EncodingBinary,
		Payload:  payload,
		// Download path points nowhere.
		Assemblies: []xmlenc.AssemblyInfo{
			{Type: typedesc.RefOf(refTypePersonB()), DownloadPaths: []string{"http://127.0.0.1:1"}},
		},
	}
	envBytes, _ := xmlenc.MarshalEnvelope(env)
	if err := cr.send(&Message{Type: MsgObject, Body: append([]byte{flagOptimistic}, envBytes...)}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(8 * time.Second)
	for time.Now().Before(deadline) {
		if receiver.Stats().Snapshot().ObjectsDropped == 1 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("object not dropped: %+v", receiver.Stats().Snapshot())
}

func refTypePersonB() reflect.Type { return reflect.TypeOf(fixtures.PersonB{}) }
