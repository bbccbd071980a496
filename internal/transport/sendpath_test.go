package transport

import (
	"bytes"
	"sync"
	"testing"

	"pti/internal/fixtures"
	"pti/internal/registry"
	"pti/internal/wire"
	"pti/internal/xmlenc"
)

// TestSendObjectEnvelopeBuildZeroAlloc pins the steady-state cost of
// the object envelope writer SendObject and Runtime.Marshal share
// (registry.Entry.AppendObject): given a destination with room — here
// an optimistic body's flag byte — the compiled payload encode and the
// templated envelope append perform zero allocations, so the message
// body SendObject hands the link is the send's only one.
func TestSendObjectEnvelopeBuildZeroAlloc(t *testing.T) {
	reg := registry.New()
	entry, err := reg.Register(fixtures.PersonB{},
		registry.WithDownloadPaths("http://types.example/personb"))
	if err != nil {
		t.Fatal(err)
	}
	prog, err := entry.Program()
	if err != nil {
		t.Fatal(err)
	}
	if !prog.Direct() {
		t.Fatal("PersonB must compile to a direct program")
	}

	codec := wire.Binary{}
	var v interface{} = fixtures.PersonB{PersonName: "steady-state", PersonAge: 42}
	body := make([]byte, 0, 8192)
	allocs := testing.AllocsPerRun(500, func() {
		body = append(body[:0], flagOptimistic)
		if body, err = entry.AppendObject(body, codec, v, reg); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 && !raceEnabled {
		t.Fatalf("envelope build allocates %v times per op, want 0", allocs)
	}
	if cap(body) != 8192 {
		t.Fatalf("writer grew a destination with room: cap %d", cap(body))
	}

	// And the built body is exactly what the receiver expects.
	env, err := xmlenc.UnmarshalEnvelope(body[1:])
	if err != nil {
		t.Fatal(err)
	}
	out, err := codec.DecodeCompiled(prog, env.Payload, entry.Type, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	if out.(fixtures.PersonB).PersonName != "steady-state" {
		t.Fatalf("round trip got %+v", out)
	}
}

// captureLink records every message body sent through it, delegating
// to the real link.
type captureLink struct {
	Link
	mu     sync.Mutex
	bodies [][]byte
}

func (c *captureLink) Send(m *Message) error {
	c.mu.Lock()
	c.bodies = append(c.bodies, append([]byte(nil), m.Body...))
	c.mu.Unlock()
	return c.Link.Send(m)
}

func (c *captureLink) sent() [][]byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([][]byte, len(c.bodies))
	copy(out, c.bodies)
	return out
}

// TestSendObjectCompiledWireEquivalence sends the same object through
// the compiled path and reconstructs what the seed's reflective path
// would have produced, asserting the wire bytes are identical — the
// transport-level differential for the compiled send path.
func TestSendObjectCompiledWireEquivalence(t *testing.T) {
	reg := registry.New()
	entry, err := reg.Register(fixtures.PersonB{},
		registry.WithDownloadPaths("http://types.example/personb"))
	if err != nil {
		t.Fatal(err)
	}
	sender := NewPeer(reg, WithName("sender"))
	recvReg := registry.New()
	if _, err := recvReg.Register(fixtures.PersonA{}); err != nil {
		t.Fatal(err)
	}
	receiver := NewPeer(recvReg, WithName("receiver"))
	defer sender.Close()
	defer receiver.Close()

	deliveries := make(chan Delivery, 4)
	if err := receiver.OnReceive(fixtures.PersonA{}, func(d Delivery) { deliveries <- d }); err != nil {
		t.Fatal(err)
	}
	cs, _ := Connect(sender, receiver)
	cap := &captureLink{Link: cs}

	v := fixtures.PersonB{PersonName: "wire-equal", PersonAge: 7}
	if err := sender.SendObject(cap, v); err != nil {
		t.Fatal(err)
	}
	d := awaitDelivery(t, deliveries)
	if d.Bound.(*fixtures.PersonA).Name != "wire-equal" {
		t.Fatalf("delivery = %+v", d.Bound)
	}

	// Reconstruct the seed path's bytes: reflective payload encode +
	// full envelope marshal.
	payload, err := wire.Binary{}.EncodeCompiled(nil, nil, v)
	if err != nil {
		t.Fatal(err)
	}
	env := &xmlenc.Envelope{
		Type:       entry.Description.Ref(),
		Encoding:   xmlenc.EncodingBinary,
		Payload:    payload,
		Assemblies: entry.Assemblies(reg),
	}
	envBytes, err := xmlenc.MarshalEnvelope(env)
	if err != nil {
		t.Fatal(err)
	}
	want := append([]byte{flagOptimistic}, envBytes...)
	sent := cap.sent()
	if len(sent) != 1 {
		t.Fatalf("captured %d sends, want 1", len(sent))
	}
	if !bytes.Equal(sent[0], want) {
		t.Fatalf("compiled send bytes differ from reflective reconstruction\n got %q\nwant %q", sent[0], want)
	}
}

// TestSendObjectNestedReRegistrationRefreshesAssemblies pins the
// envelope cache against the subtle staleness case: re-registering a
// *nested* field type replaces only that type's entry, not the outer
// type's — the outer entry's assembly snapshot must notice via the
// registry generation and advertise the nested type's new download
// paths on the next send.
func TestSendObjectNestedReRegistrationRefreshesAssemblies(t *testing.T) {
	type inner struct {
		Street string
	}
	type outer struct {
		Name string
		Home inner
	}
	const (
		oldPath = "http://inner-old.example/types"
		newPath = "http://inner-new.example/types"
	)
	reg := registry.New()
	if _, err := reg.Register(inner{}, registry.WithDownloadPaths(oldPath)); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Register(outer{}); err != nil {
		t.Fatal(err)
	}
	sender := NewPeer(reg)
	recvReg := registry.New()
	if _, err := recvReg.Register(outer{}); err != nil {
		t.Fatal(err)
	}
	receiver := NewPeer(recvReg)
	defer sender.Close()
	defer receiver.Close()
	deliveries := make(chan Delivery, 4)
	if err := receiver.OnReceive(outer{}, func(d Delivery) { deliveries <- d }); err != nil {
		t.Fatal(err)
	}
	cs, _ := Connect(sender, receiver)
	cap := &captureLink{Link: cs}

	send := func(name string) []byte {
		t.Helper()
		if err := sender.SendObject(cap, outer{Name: name, Home: inner{Street: "s"}}); err != nil {
			t.Fatal(err)
		}
		awaitDelivery(t, deliveries)
		sent := cap.sent()
		return sent[len(sent)-1]
	}

	if body := send("warm"); !bytes.Contains(body, []byte(oldPath)) {
		t.Fatalf("warm envelope missing nested path %q:\n%q", oldPath, body)
	}
	// Re-register only the nested type with new paths; outer's entry
	// survives untouched.
	if _, err := reg.Register(inner{}, registry.WithDownloadPaths(newPath)); err != nil {
		t.Fatal(err)
	}
	body := send("after")
	if bytes.Contains(body, []byte(oldPath)) {
		t.Fatalf("envelope still advertises stale nested path %q:\n%q", oldPath, body)
	}
	if !bytes.Contains(body, []byte(newPath)) {
		t.Fatalf("envelope missing refreshed nested path %q:\n%q", newPath, body)
	}
}

// TestSendObjectFallbackTypes exercises the transparent fallback:
// types outside the direct subset (pointer graphs) still send and
// deliver correctly through the same SendObject path.
func TestSendObjectFallbackTypes(t *testing.T) {
	type node struct {
		Label string
		Next  *node
	}
	reg := registry.New()
	entry, err := reg.Register(node{})
	if err != nil {
		t.Fatal(err)
	}
	if prog, err := entry.Program(); err != nil || prog.Direct() {
		t.Fatalf("pointer-bearing type must compile non-direct (prog=%v err=%v)", prog, err)
	}
	sender := NewPeer(reg)
	recvReg := registry.New()
	if _, err := recvReg.Register(node{}); err != nil {
		t.Fatal(err)
	}
	receiver := NewPeer(recvReg)
	defer sender.Close()
	defer receiver.Close()
	deliveries := make(chan Delivery, 1)
	if err := receiver.OnReceive(node{}, func(d Delivery) { deliveries <- d }); err != nil {
		t.Fatal(err)
	}
	cs, _ := Connect(sender, receiver)
	if err := sender.SendObject(cs, node{Label: "head", Next: &node{Label: "tail"}}); err != nil {
		t.Fatal(err)
	}
	d := awaitDelivery(t, deliveries)
	got := d.Bound.(*node)
	if got.Label != "head" || got.Next == nil || got.Next.Label != "tail" {
		t.Fatalf("fallback delivery = %+v", got)
	}
}
