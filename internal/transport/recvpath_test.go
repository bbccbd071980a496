package transport

import (
	"fmt"
	"testing"

	"pti/internal/fixtures"
	"pti/internal/registry"
)

// drops extracts the Detail of every EventDropped the recorder saw.
func (r *recorder) drops() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []string
	for _, e := range r.events {
		if e.Kind == EventDropped {
			out = append(out, e.Detail)
		}
	}
	return out
}

// TestHandleObjectDropReasons drives handleObject directly with the
// malformed bodies a hostile or corrupt sender can produce and
// asserts every drop path announces itself through the observer with
// a distinct reason — no silent discards left on the receive path.
func TestHandleObjectDropReasons(t *testing.T) {
	cases := []struct {
		name   string
		body   []byte
		reason string
	}{
		{"empty body", nil, "empty body"},
		// Flags 2 and 3 marked DEFLATE bodies in an earlier wire
		// revision; like any other unknown flag they are dropped, never
		// parsed as an envelope.
		{"compressed garbage", []byte{2, 0xff, 0xff, 0xff}, "unknown body flag"},
		{"eager compressed flag", []byte{3, 0x00, 0x00, 0x00, 0x01, 'x'}, "unknown body flag"},
		{"unknown flag 0xff", []byte{0xff, '<', 'x', '>'}, "unknown body flag"},
		{"eager short chunk header", []byte{flagEager, 0x00}, "bad eager chunk"},
		{"eager truncated code chunk",
			append(appendChunk([]byte{flagEager}, []byte("not-a-description")), 0x00, 0x00),
			"bad eager chunk"},
		{"garbage envelope", []byte{flagOptimistic, '<', 'x', '>'}, "malformed envelope"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := &recorder{}
			p := NewPeer(registry.New(), WithObserver(rec.observe))
			defer p.Close()
			before := p.Stats().Snapshot()
			// These bodies all fail before the connection is consulted,
			// so no live conn is needed.
			p.handleObject(nil, &Message{Type: MsgObject, Body: tc.body})
			after := p.Stats().Snapshot()
			if got := after.ObjectsDropped - before.ObjectsDropped; got != 1 {
				t.Errorf("ObjectsDropped delta = %d, want 1", got)
			}
			ds := rec.drops()
			if len(ds) != 1 || ds[0] != tc.reason {
				t.Errorf("drop reasons = %q, want [%q]", ds, tc.reason)
			}
		})
	}
}

// TestCompiledDeliveryEngagement proves the compiled receive path —
// not just the reflective authority — carries steady-state traffic on
// a live fabric, and that what it delivers is the correctly bound
// value.
func TestCompiledDeliveryEngagement(t *testing.T) {
	_, na, nb := fabricPair(t, 7701, FaultProfile{}, nil, nil)
	deliveries := make(chan Delivery, 4)
	if err := nb.Peer().OnReceive(fixtures.PersonA{}, func(d Delivery) { deliveries <- d }); err != nil {
		t.Fatal(err)
	}
	ca, ok := na.ConnTo("b")
	if !ok {
		t.Fatal("no conn a->b")
	}
	for i := 0; i < 4; i++ {
		if err := na.Peer().SendObject(ca, fixtures.PersonB{PersonName: "Curie", PersonAge: 30 + i}); err != nil {
			t.Fatal(err)
		}
		d := awaitDelivery(t, deliveries)
		pa, ok := d.Bound.(*fixtures.PersonA)
		if !ok {
			t.Fatalf("delivery %d: Bound = %T", i, d.Bound)
		}
		if pa.Name != "Curie" || pa.Age != 30+i {
			t.Errorf("delivery %d bound = %+v", i, pa)
		}
		if d.Mapping == nil {
			t.Errorf("delivery %d has no mapping", i)
		}
	}
	s := nb.Peer().Stats().Snapshot()
	if s.CompiledDeliveries == 0 {
		t.Errorf("CompiledDeliveries = 0, want > 0 (delivered=%d)", s.ObjectsDelivered)
	}
	if s.CompiledDeliveries > s.ObjectsDelivered {
		t.Errorf("CompiledDeliveries = %d > ObjectsDelivered = %d",
			s.CompiledDeliveries, s.ObjectsDelivered)
	}
}

// TestCompressedEagerMatrix runs both body flags — optimistic and
// eager — through a live fabric: the flag is a per-message property,
// so either sender configuration must interoperate with a plain
// receiver. (The name predates the removal of body compression.)
func TestCompressedEagerMatrix(t *testing.T) {
	combos := []struct {
		name string
		opts []PeerOption
	}{
		{"optimistic", nil},
		{"eager", []PeerOption{Eager()}},
	}
	for ci, combo := range combos {
		t.Run(combo.name, func(t *testing.T) {
			_, na, nb := fabricPair(t, int64(8100+ci), FaultProfile{}, combo.opts, nil)
			deliveries := make(chan Delivery, 3)
			if err := nb.Peer().OnReceive(fixtures.PersonA{}, func(d Delivery) { deliveries <- d }); err != nil {
				t.Fatal(err)
			}
			ca, ok := na.ConnTo("b")
			if !ok {
				t.Fatal("no conn a->b")
			}
			for i := 0; i < 3; i++ {
				name := fmt.Sprintf("P%d", i)
				if err := na.Peer().SendObject(ca, fixtures.PersonB{PersonName: name, PersonAge: i}); err != nil {
					t.Fatal(err)
				}
				d := awaitDelivery(t, deliveries)
				pa, ok := d.Bound.(*fixtures.PersonA)
				if !ok {
					t.Fatalf("send %d: Bound = %T", i, d.Bound)
				}
				if pa.Name != name || pa.Age != i {
					t.Errorf("send %d: bound = %+v", i, pa)
				}
			}
		})
	}
}

// TestMidStreamReRegistrationFallsBack re-registers the receiver's
// type of interest while traffic is flowing. The compiled receive
// path memoizes per registry entry, so the fresh entry must recompile
// cleanly — deliveries keep flowing with correct values and no stale
// compiled state, mirroring the envelope-cache invalidation scenario
// on the send side.
func TestMidStreamReRegistrationFallsBack(t *testing.T) {
	f := NewFabric(scenarioSeed(t, 7707))
	t.Cleanup(func() { _ = f.Close() })
	regA := registry.New()
	if _, err := regA.Register(fixtures.PersonB{}); err != nil {
		t.Fatal(err)
	}
	regB := registry.New()
	if _, err := regB.Register(fixtures.PersonA{}); err != nil {
		t.Fatal(err)
	}
	na, err := f.AddPeerWithRegistry("a", regA)
	if err != nil {
		t.Fatal(err)
	}
	nb, err := f.AddPeerWithRegistry("b", regB)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := f.Connect("a", "b", FaultProfile{}); err != nil {
		t.Fatal(err)
	}
	deliveries := make(chan Delivery, 8)
	if err := nb.Peer().OnReceive(fixtures.PersonA{}, func(d Delivery) { deliveries <- d }); err != nil {
		t.Fatal(err)
	}
	ca, ok := na.ConnTo("b")
	if !ok {
		t.Fatal("no conn a->b")
	}
	send := func(i int) *fixtures.PersonA {
		t.Helper()
		if err := na.Peer().SendObject(ca, fixtures.PersonB{PersonName: "R", PersonAge: i}); err != nil {
			t.Fatal(err)
		}
		d := awaitDelivery(t, deliveries)
		pa, ok := d.Bound.(*fixtures.PersonA)
		if !ok {
			t.Fatalf("Bound = %T", d.Bound)
		}
		return pa
	}
	for i := 0; i < 3; i++ {
		if pa := send(i); pa.Age != i {
			t.Errorf("pre-reregistration delivery %d = %+v", i, pa)
		}
	}
	// Replace the receiver's entry mid-stream: a fresh entry with a
	// fresh compiled program under the same identity.
	if _, err := regB.Register(fixtures.PersonA{},
		registry.WithConstructor("NewPersonA", fixtures.NewPersonA)); err != nil {
		t.Fatal(err)
	}
	for i := 3; i < 6; i++ {
		if pa := send(i); pa.Age != i {
			t.Errorf("post-reregistration delivery %d = %+v", i, pa)
		}
	}
	if s := nb.Peer().Stats().Snapshot(); s.ObjectsDelivered != 6 {
		t.Errorf("ObjectsDelivered = %d, want 6", s.ObjectsDelivered)
	}
}
