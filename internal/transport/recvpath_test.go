package transport

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"time"

	"pti/internal/fixtures"
	"pti/internal/registry"
)

// drops returns every EventDropped the recorder saw.
func (r *recorder) drops() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []Event
	for _, e := range r.events {
		if e.Kind == EventDropped {
			out = append(out, e)
		}
	}
	return out
}

// objectDropsByReason sums the per-reason object-drop counters.
func objectDropsByReason(s StatsSnapshot) uint64 {
	return s.DroppedEmptyBody + s.DroppedUnknownFlag + s.DroppedBadEagerChunk +
		s.DroppedMalformedEnvelope + s.DroppedNoDescription +
		s.DroppedNoConformantType + s.DroppedBindFailed
}

// receptionsSettled reports whether every received object was either
// delivered or dropped under exactly one reason.
func receptionsSettled(s StatsSnapshot) bool {
	return s.ObjectsDropped == objectDropsByReason(s) &&
		s.ObjectsReceived == s.ObjectsDelivered+objectDropsByReason(s)
}

// TestHandleObjectDropReasons drives every object-drop path — the
// malformed bodies a hostile or corrupt sender can produce straight
// into handleObject, and the protocol failures over a connected pair —
// and asserts each announces itself through the observer with its
// typed reason and moves its own counter, and only that one, by 1.
func TestHandleObjectDropReasons(t *testing.T) {
	cases := []struct {
		name   string
		body   []byte // fed straight to handleObject
		reason DropReason
		detail string // "" for a bind failure: Detail is the cause's text
		// Live rows instead send one captured PersonB frame (no
		// download paths) over a connected pair. The receiver's
		// interest is PersonA unless interest says otherwise.
		live       bool
		senderOwns bool // the sending peer can describe PersonB
		interest   interface{}
		corrupt    func(frame []byte)
	}{
		{name: "empty body", reason: DropEmptyBody, detail: "empty body"},
		// Flags 2 and 3 marked DEFLATE bodies in an earlier wire
		// revision; like any other unknown flag they are dropped, never
		// parsed as an envelope.
		{name: "compressed garbage", body: []byte{2, 0xff, 0xff, 0xff},
			reason: DropUnknownFlag, detail: "unknown body flag"},
		{name: "eager compressed flag", body: []byte{3, 0x00, 0x00, 0x00, 0x01, 'x'},
			reason: DropUnknownFlag, detail: "unknown body flag"},
		{name: "unknown flag 0xff", body: []byte{0xff, '<', 'x', '>'},
			reason: DropUnknownFlag, detail: "unknown body flag"},
		{name: "eager short chunk header", body: []byte{flagEager, 0x00},
			reason: DropBadEagerChunk, detail: "bad eager chunk"},
		{name: "eager truncated code chunk",
			body:   append(appendChunk([]byte{flagEager}, []byte("not-a-description")), 0x00, 0x00),
			reason: DropBadEagerChunk, detail: "bad eager chunk"},
		{name: "garbage envelope", body: []byte{flagOptimistic, '<', 'x', '>'},
			reason: DropMalformedEnvelope, detail: "malformed envelope"},
		{name: "no type description", live: true,
			reason: DropNoDescription, detail: "no type description"},
		{name: "no conformant type of interest", live: true, senderOwns: true,
			interest: fixtures.StockQuoteA{},
			reason:   DropNoConformantType, detail: "no conformant type of interest"},
		{name: "bind failure", live: true, senderOwns: true,
			// A well-formed envelope whose payload decodes to nothing.
			corrupt: func(frame []byte) {
				payload := frame[bytes.Index(frame, []byte("<Payload")):]
				for b := payload[bytes.IndexByte(payload, '>')+1:]; len(b) > 0 && b[0] != '<'; b = b[1:] {
					b[0] = 'A'
				}
			},
			reason: DropBindFailed},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := &recorder{}
			receiver := NewPeer(registry.New(), WithObserver(rec.observe))
			defer receiver.Close()
			if !tc.live {
				// These bodies all fail before the connection is
				// consulted, so no live conn is needed.
				receiver.handleObject(nil, &Message{Type: MsgObject, Body: tc.body})
			} else {
				sendLiveFrame(t, receiver, tc.senderOwns, tc.interest, tc.corrupt)
			}
			if !waitUntil(10*time.Second, func() bool {
				return receiver.Stats().Snapshot().ObjectsDropped > 0
			}) {
				t.Fatalf("no drop counted: %+v", receiver.Stats().Snapshot())
			}
			snap := receiver.Stats().Snapshot()
			if snap.ObjectsDropped != 1 {
				t.Errorf("ObjectsDropped = %d, want 1", snap.ObjectsDropped)
			}
			fields := reflect.ValueOf(snap)
			for c := cDroppedEmptyBody; c <= cDroppedBindFailed; c++ {
				want := uint64(0)
				if c == counter(tc.reason) {
					want = 1
				}
				if got := fields.Field(int(c)).Uint(); got != want {
					t.Errorf("%s = %d, want %d", counterNames[c], got, want)
				}
			}
			ds := rec.drops()
			if len(ds) != 1 || ds[0].Reason != tc.reason {
				t.Fatalf("drops = %v, want one %q", ds, tc.reason)
			}
			if tc.reason == DropBindFailed {
				if ds[0].Err == nil || ds[0].Detail != ds[0].Err.Error() {
					t.Errorf("bind-failure drop: Detail %q, Err %v; want the cause in both", ds[0].Detail, ds[0].Err)
				}
			} else if ds[0].Detail != tc.detail || tc.reason.String() != tc.detail {
				t.Errorf("Detail = %q, String() = %q, want %q", ds[0].Detail, tc.reason, tc.detail)
			}
		})
	}
}

// sendLiveFrame captures the frame a PersonB owner (with no download
// paths) sends for one object, lets corrupt edit it, and sends it to
// receiver over a fresh connection from a peer that owns PersonB only
// when senderOwns is set. receiver listens for interest (PersonA when
// nil).
func sendLiveFrame(t *testing.T, receiver *Peer, senderOwns bool, interest interface{}, corrupt func([]byte)) {
	t.Helper()
	owner := registry.New()
	if _, err := owner.Register(fixtures.PersonB{}); err != nil {
		t.Fatal(err)
	}
	capture := NewPeer(owner)
	defer capture.Close()
	cl := &captureLink{Link: &scriptLink{}}
	if err := capture.SendObject(cl, fixtures.PersonB{PersonName: "Q", PersonAge: 7}); err != nil {
		t.Fatal(err)
	}
	frame := cl.sent()[0]
	if corrupt != nil {
		corrupt(frame)
	}
	senderReg := registry.New()
	if senderOwns {
		senderReg = owner
	}
	sender := NewPeer(senderReg)
	t.Cleanup(func() { _ = sender.Close() })
	if interest == nil {
		interest = fixtures.PersonA{}
	}
	if err := receiver.OnReceive(interest, func(Delivery) {}); err != nil {
		t.Fatal(err)
	}
	c, _ := Connect(sender, receiver)
	if err := c.send(&Message{Type: MsgObject, Body: frame}); err != nil {
		t.Fatal(err)
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

// TestRelReceiverAckPolicy pins which frames the receiver acks and
// when. Fresh in-order frames are acked once per delivered run, by the
// drain after the run's last handler returns: frames landing one at a
// time with the drain idle between them get one ack each, frames
// pending together share one. A duplicate and a frame too far ahead
// are re-acked on receipt; a frame beyond a gap is acked and the gap
// NACKed. A seal mid-run acks nothing and leaves the delivered prefix
// to the saved session. In every row no ack carries a watermark beyond
// a handler that has not returned.
func TestRelReceiverAckPolicy(t *testing.T) {
	type frame struct {
		seq   uint64
		inner *Message
	}
	cases := []struct {
		name        string
		frames      []frame
		deferDrains bool     // land every frame before the drain runs
		sealAt      uint64   // the handler of this marker seals the receiver
		want        []string // the harness's callback trace
		wantSession [2]uint64
	}{
		{
			name:        "fresh in-order frame: one ack, after its handler",
			frames:      []frame{{1, obj(10)}, {2, obj(11)}},
			want:        []string{"dispatch 10", "ack 1/1", "dispatch 11", "ack 1/2"},
			wantSession: [2]uint64{1, 3},
		},
		{
			name:   "frames landing one at a time, drain idle between: one ack each",
			frames: []frame{{1, obj(10)}, {2, reply(99)}, {3, obj(12)}},
			want: []string{
				"dispatch 10", "ack 1/1",
				"reply 99", "ack 1/2",
				"dispatch 12", "ack 1/3",
			},
			wantSession: [2]uint64{1, 4},
		},
		{
			name:        "frames pending together: one ack, after the last handler",
			frames:      []frame{{1, obj(10)}, {2, obj(11)}, {3, obj(12)}, {4, obj(13)}},
			deferDrains: true,
			want:        []string{"dispatch 10", "dispatch 11", "dispatch 12", "dispatch 13", "ack 1/4"},
			wantSession: [2]uint64{1, 5},
		},
		{
			name:        "in-order reply: one ack, after routing",
			frames:      []frame{{1, reply(99)}},
			want:        []string{"reply 99", "ack 1/1"},
			wantSession: [2]uint64{1, 2},
		},
		{
			name:        "duplicate is re-acked",
			frames:      []frame{{1, obj(10)}, {1, obj(10)}},
			want:        []string{"dispatch 10", "ack 1/1", "ack 1/1"},
			wantSession: [2]uint64{1, 2},
		},
		{
			name:        "frame too far ahead is re-acked",
			frames:      []frame{{1, obj(10)}, {2 + relRecvBuffer, obj(66)}},
			want:        []string{"dispatch 10", "ack 1/1", "ack 1/1"},
			wantSession: [2]uint64{1, 2},
		},
		{
			name:   "gap: ack and NACK; frames landing in order ack on delivery only",
			frames: []frame{{3, obj(12)}, {1, obj(10)}, {2, obj(11)}},
			want: []string{
				"ack 1/0", "nack 1/[1 2]",
				"dispatch 10", "ack 1/1",
				"dispatch 11", "dispatch 12", "ack 1/3",
			},
			wantSession: [2]uint64{1, 4},
		},
		{
			name:        "seal mid-run: no ack, the session keeps the delivered prefix",
			frames:      []frame{{1, obj(10)}, {2, obj(11)}, {3, obj(12)}},
			deferDrains: true,
			sealAt:      10,
			want:        []string{"dispatch 10"},
			wantSession: [2]uint64{1, 2},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := newRecvHarness()
			h.deferDrains = tc.deferDrains
			sealed := make(chan [2]uint64, 1)
			h.onDispatch = func(marker uint64) {
				if marker != tc.sealAt {
					return
				}
				// seal waits out this very handler, so it runs beside
				// it; the handler returns once the seal has landed.
				go func() {
					e, n := h.rr.seal()
					sealed <- [2]uint64{e, n}
				}()
				if !waitUntil(2*time.Second, func() bool {
					h.rr.mu.Lock()
					defer h.rr.mu.Unlock()
					return h.rr.closed
				}) {
					t.Error("seal never landed")
				}
			}
			for _, f := range tc.frames {
				h.feed(t, 1, f.seq, f.inner)
			}
			h.runDrains()
			if tc.sealAt != 0 {
				if got := <-sealed; got != tc.wantSession {
					t.Errorf("seal saved session %v, want %v", got, tc.wantSession)
				}
			}
			if e, n := h.rr.session(); [2]uint64{e, n} != tc.wantSession {
				t.Errorf("session() = (%d, %d), want %v", e, n, tc.wantSession)
			}
			h.mu.Lock()
			defer h.mu.Unlock()
			if fmt.Sprint(h.trace) != fmt.Sprint(tc.want) {
				t.Errorf("trace = %q\nwant    %q", h.trace, tc.want)
			}
			// No ack may run ahead of the handlers: each seq up to an
			// ack's watermark must have been dispatched (or, for a
			// reply, routed) before the ack.
			seqOf := make(map[string]uint64)
			for _, f := range tc.frames {
				kind := "dispatch"
				if isRelReply(f.inner.Type) {
					kind = "reply"
				}
				seqOf[fmt.Sprintf("%s %d", kind, f.inner.Seq)] = f.seq
			}
			returned := make(map[uint64]bool)
			for _, ev := range h.trace {
				if seq, ok := seqOf[ev]; ok {
					returned[seq] = true
					continue
				}
				var epoch, cum uint64
				if _, err := fmt.Sscanf(ev, "ack %d/%d", &epoch, &cum); err != nil {
					continue
				}
				for s := uint64(1); s <= cum; s++ {
					if !returned[s] {
						t.Errorf("%q certifies seq %d before its handler returned", ev, s)
					}
				}
			}
		})
	}
}
