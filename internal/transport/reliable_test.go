package transport

import (
	"bufio"
	"errors"
	"fmt"
	"math"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"pti/internal/fixtures"
	"pti/internal/registry"
)

// The reliable layer's unit tests drive the sender and receiver
// machinery directly — a scripted link and a manual clock on the
// sender side, captured callbacks on the receiver side — separate
// from the fabric scenarios, which exercise the same machinery
// end-to-end under fault schedules.

// scriptLink records every frame the reliable sender puts on the
// wire.
type scriptLink struct {
	mu      sync.Mutex
	sendErr error
	frames  []*Message
	// hold, when set, parks the next Send before it records anything
	// (and without holding mu) until hold is closed; held is closed
	// once that Send has parked.
	hold, held chan struct{}
}

func (l *scriptLink) Send(m *Message) error {
	l.mu.Lock()
	hold, held := l.hold, l.held
	l.hold, l.held = nil, nil
	l.mu.Unlock()
	if hold != nil {
		close(held)
		<-hold
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.sendErr != nil {
		return l.sendErr
	}
	l.frames = append(l.frames, m)
	return nil
}

func (l *scriptLink) Close() error { return nil }

// holdNextSend parks the link's next Send: held closes once it has
// parked, and closing release lets it go on.
func (l *scriptLink) holdNextSend() (held, release chan struct{}) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.hold, l.held = make(chan struct{}), make(chan struct{})
	return l.held, l.hold
}

func awaitHeld(t *testing.T, held chan struct{}) {
	t.Helper()
	select {
	case <-held:
	case <-time.After(2 * time.Second):
		t.Fatal("the held write never reached the link")
	}
}

func (l *scriptLink) count() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.frames)
}

// dataFrames decodes the (epoch, seq) headers of every recorded
// reliable data frame.
func (l *scriptLink) dataFrames(t *testing.T) (epochs, seqs []uint64) {
	t.Helper()
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, m := range l.frames {
		if m.Type != MsgReliableData {
			t.Fatalf("non-reliable frame %s on scripted link", m.Type)
		}
		e, s, _, err := decodeRelData(m.Body)
		if err != nil {
			t.Fatal(err)
		}
		epochs = append(epochs, e)
		seqs = append(seqs, s)
	}
	return epochs, seqs
}

// recvHarness captures a relReceiver's callbacks. Drains run inline
// on the feeding goroutine, so every feed settles before it returns —
// unless deferDrains holds them for runDrains, so that several frames
// can be pending together.
type recvHarness struct {
	mu         sync.Mutex
	dispatched []uint64 // inner Seq, used as a payload marker
	replies    []uint64
	acks       [][2]uint64 // (epoch, cum)
	nacks      [][]uint64  // per ack naming gaps: [epoch, seqs...]
	trace      []string    // every callback in call order
	stats      Stats
	rr         *relReceiver

	deferDrains bool
	drains      []func()
	onDispatch  func(marker uint64) // runs inside the handler, after it is traced
}

func newRecvHarness() *recvHarness {
	h := &recvHarness{}
	record := func(format string, args ...interface{}) {
		h.trace = append(h.trace, fmt.Sprintf(format, args...))
	}
	h.rr = newRelReceiver(&h.stats,
		func(m *Message) {
			h.mu.Lock()
			h.dispatched = append(h.dispatched, m.Seq)
			record("dispatch %d", m.Seq)
			h.mu.Unlock()
			if h.onDispatch != nil {
				h.onDispatch(m.Seq)
			}
		},
		func(drain func()) {
			if h.deferDrains {
				h.drains = append(h.drains, drain)
				return
			}
			drain()
		},
		func(m *Message) {
			h.mu.Lock()
			h.replies = append(h.replies, m.Seq)
			record("reply %d", m.Seq)
			h.mu.Unlock()
		},
		func(epoch, cum uint64, gaps []uint64) {
			h.mu.Lock()
			h.acks = append(h.acks, [2]uint64{epoch, cum})
			if len(gaps) > 0 {
				h.nacks = append(h.nacks, append([]uint64{epoch}, gaps...))
				record("ack %d/%d gaps %v", epoch, cum, gaps)
			} else {
				record("ack %d/%d", epoch, cum)
			}
			h.mu.Unlock()
		},
		func(DropReason) {})
	return h
}

func (h *recvHarness) feed(t *testing.T, epoch, seq uint64, inner *Message) {
	t.Helper()
	if err := h.rr.handleData(encodeRelData(epoch, seq, inner)); err != nil {
		t.Fatalf("handleData(e=%d s=%d): %v", epoch, seq, err)
	}
}

// runDrains runs the drains deferDrains held back, in spawn order.
func (h *recvHarness) runDrains() {
	for len(h.drains) > 0 {
		popFront(&h.drains)()
	}
}

func (h *recvHarness) lastAck(t *testing.T) [2]uint64 {
	t.Helper()
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.acks) == 0 {
		t.Fatal("no ack recorded")
	}
	return h.acks[len(h.acks)-1]
}

func obj(marker uint64) *Message   { return &Message{Type: MsgObject, Seq: marker} }
func reply(marker uint64) *Message { return &Message{Type: MsgTypeInfoReply, Seq: marker} }

// TestRelReceiverTable drives the receiver through its dedup,
// buffering, ack and epoch transitions — including the ack-loss case:
// the sender retransmits an already-delivered frame and the receiver
// suppresses it while re-acking.
func TestRelReceiverTable(t *testing.T) {
	type frame struct {
		epoch, seq uint64
		inner      *Message
	}
	cases := []struct {
		name           string
		frames         []frame
		wantDispatched []uint64
		wantReplies    []uint64
		wantFinalAck   [2]uint64
		wantDeduped    uint64
	}{
		{
			name:           "in-order stream",
			frames:         []frame{{1, 1, obj(10)}, {1, 2, obj(11)}, {1, 3, obj(12)}},
			wantDispatched: []uint64{10, 11, 12},
			wantFinalAck:   [2]uint64{1, 3},
		},
		{
			name:           "reordered frames dispatch in sequence order",
			frames:         []frame{{1, 2, obj(11)}, {1, 3, obj(12)}, {1, 1, obj(10)}},
			wantDispatched: []uint64{10, 11, 12},
			wantFinalAck:   [2]uint64{1, 3},
		},
		{
			name: "ack loss: retransmitted frame deduped and re-acked",
			frames: []frame{
				{1, 1, obj(10)},
				{1, 1, obj(10)}, // the ack was lost; the sender resent
			},
			wantDispatched: []uint64{10},
			wantFinalAck:   [2]uint64{1, 1},
			wantDeduped:    1,
		},
		{
			name: "duplicate of buffered out-of-order frame",
			frames: []frame{
				{1, 2, obj(11)},
				{1, 2, obj(11)},
				{1, 1, obj(10)},
			},
			wantDispatched: []uint64{10, 11},
			wantFinalAck:   [2]uint64{1, 2},
			wantDeduped:    1,
		},
		{
			name: "newer epoch resets sequence state",
			frames: []frame{
				{1, 1, obj(10)},
				{1, 2, obj(11)},
				{2, 1, obj(20)}, // restarted sender
				{2, 2, obj(21)},
			},
			wantDispatched: []uint64{10, 11, 20, 21},
			wantFinalAck:   [2]uint64{2, 2},
		},
		{
			name: "ghost frames from an old epoch never redeliver",
			frames: []frame{
				{2, 1, obj(20)},
				{1, 7, obj(10)}, // pre-restart sender's retransmit
				{1, 1, obj(11)},
			},
			wantDispatched: []uint64{20},
			wantFinalAck:   [2]uint64{2, 1},
			wantDeduped:    2,
		},
		{
			name: "replies bypass the in-order queue",
			frames: []frame{
				{1, 2, reply(99)}, // reply arrives before the object filling seq 1
				{1, 1, obj(10)},
			},
			wantDispatched: []uint64{10},
			wantReplies:    []uint64{99},
			wantFinalAck:   [2]uint64{1, 2},
		},
		{
			name: "frame beyond the receive buffer is dropped but acked",
			frames: []frame{
				{1, 1, obj(10)},
				{1, 1 + relRecvBuffer + 5, obj(66)},
			},
			wantDispatched: []uint64{10},
			wantFinalAck:   [2]uint64{1, 1},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := newRecvHarness()
			for _, f := range tc.frames {
				h.feed(t, f.epoch, f.seq, f.inner)
			}
			h.mu.Lock()
			dispatched := append([]uint64(nil), h.dispatched...)
			replies := append([]uint64(nil), h.replies...)
			h.mu.Unlock()
			if fmt.Sprint(dispatched) != fmt.Sprint(tc.wantDispatched) {
				t.Errorf("dispatched = %v, want %v", dispatched, tc.wantDispatched)
			}
			if fmt.Sprint(replies) != fmt.Sprint(tc.wantReplies) {
				t.Errorf("replies = %v, want %v", replies, tc.wantReplies)
			}
			if got := h.lastAck(t); got != tc.wantFinalAck {
				t.Errorf("final ack = %v, want %v", got, tc.wantFinalAck)
			}
			if got := h.stats.Snapshot().RelDeduped; got != tc.wantDeduped {
				t.Errorf("deduped = %d, want %d", got, tc.wantDeduped)
			}
		})
	}
}

// TestReliableWindowBackpressure pins the window contract on the
// queued path: the sender loop never puts more than Window object
// frames in flight while the queue holds the rest, control frames
// bypass a full window, an ack admits exactly the frames it frees
// room for, and an enqueue blocked on a full queue returns ErrClosed
// when the link stops.
func TestReliableWindowBackpressure(t *testing.T) {
	const queue = 4
	for _, window := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("window=%d", window), func(t *testing.T) {
			link := &scriptLink{}
			clock := NewManualClock()
			r := NewReliableLink(link, clock, WithWindow(window), WithSendQueue(queue),
				WithRetransmitTimeout(time.Hour)) // timers out of the way
			defer r.Close()

			full := func() bool {
				s := r.Snapshot()
				return s.InFlightData == window && s.QueueDepth == queue
			}
			for i := 0; i < window+queue; i++ {
				if err := r.Send(obj(uint64(i))); err != nil {
					t.Fatal(err)
				}
				if got := r.Snapshot().InFlightData; got > window {
					t.Fatalf("InFlightData = %d, exceeds window %d", got, window)
				}
			}
			if !waitUntil(2*time.Second, full) {
				t.Fatalf("pipeline = %+v, want %d in flight and %d queued", r.Snapshot(), window, queue)
			}
			if !waitUntil(2*time.Second, func() bool { return link.count() == window }) {
				t.Fatalf("frames on wire = %d, want %d (window)", link.count(), window)
			}

			blocked := make(chan error, 1)
			go func() { blocked <- r.Send(obj(999)) }()
			select {
			case err := <-blocked:
				t.Fatalf("Send on a full queue returned early: %v", err)
			case <-time.After(50 * time.Millisecond):
			}
			// Control frames bypass the full window and queue.
			if err := r.Send(&Message{Type: MsgTypeInfoRequest, Seq: 7}); err != nil {
				t.Fatalf("control send blocked by full window: %v", err)
			}
			if !waitUntil(2*time.Second, func() bool { return link.count() == window+1 }) {
				t.Fatalf("frames on wire = %d after control send, want %d", link.count(), window+1)
			}
			// Ack the first object: exactly one slot frees, one queued
			// frame takes it, and the blocked enqueue gets the queue slot.
			r.Ack(appendRelAck(nil, r.Snapshot().Epoch, 1, nil))
			select {
			case err := <-blocked:
				if err != nil {
					t.Fatalf("unblocked Send failed: %v", err)
				}
			case <-time.After(2 * time.Second):
				t.Fatal("Send still blocked after ack freed the window")
			}
			if !waitUntil(2*time.Second, full) {
				t.Fatalf("pipeline after ack = %+v, want %d in flight and %d queued", r.Snapshot(), window, queue)
			}
			if !waitUntil(2*time.Second, func() bool { return link.count() == window+2 }) {
				t.Errorf("frames on wire = %d after ack, want %d", link.count(), window+2)
			}

			// An enqueue blocked on the full queue fails fast when the
			// link stops.
			go func() { blocked <- r.Send(obj(1000)) }()
			time.Sleep(20 * time.Millisecond)
			r.stop()
			select {
			case err := <-blocked:
				if !errors.Is(err, ErrClosed) {
					t.Errorf("Send after stop = %v, want ErrClosed", err)
				}
			case <-time.After(2 * time.Second):
				t.Fatal("Send still blocked after link stopped")
			}
		})
	}
}

// TestReliableRetransmitBackoff pins the timer schedule: a frame
// whose ack is lost is resent at RTO, then 2×RTO, capped at
// MaxBackoff — and never again once acked.
func TestReliableRetransmitBackoff(t *testing.T) {
	link := &scriptLink{}
	clock := NewManualClock()
	const rto = 10 * time.Millisecond
	r := NewReliableLink(link, clock, WithRetransmitTimeout(rto), WithMaxBackoff(4*rto))
	defer r.Close()

	if err := r.Send(obj(1)); err != nil {
		t.Fatal(err)
	}
	if !waitUntil(2*time.Second, func() bool { return link.count() == 1 }) {
		t.Fatalf("initial sends = %d, want 1", link.count())
	}
	advanceAndAwait := func(d time.Duration, wantFrames int) {
		t.Helper()
		// Let the sender loop park on the clock before advancing.
		if !waitUntil(2*time.Second, func() bool { return clock.PendingTimers() >= 1 }) {
			t.Fatal("sender loop never armed its timer")
		}
		clock.Advance(d)
		if !waitUntil(2*time.Second, func() bool { return link.count() >= wantFrames }) {
			t.Fatalf("frames = %d, want %d after advance", link.count(), wantFrames)
		}
		if link.count() > wantFrames {
			t.Fatalf("frames = %d, want exactly %d", link.count(), wantFrames)
		}
	}
	advanceAndAwait(rto, 2)   // first retransmit at RTO
	advanceAndAwait(2*rto, 3) // backoff doubled
	advanceAndAwait(4*rto, 4) // capped at MaxBackoff
	if got := r.Snapshot().Retransmits; got != 3 {
		t.Errorf("retransmits = %d, want 3", got)
	}

	r.Ack(appendRelAck(nil, r.Snapshot().Epoch, 1, nil))
	if !waitUntil(2*time.Second, func() bool { return r.Snapshot().InFlight == 0 }) {
		t.Fatal("ack did not clear the in-flight set")
	}
	clock.Advance(time.Minute)
	time.Sleep(20 * time.Millisecond)
	if got := link.count(); got != 4 {
		t.Errorf("acked frame retransmitted: %d frames", got)
	}

	// All retransmitted bytes must be identical to the original frame.
	link.mu.Lock()
	first := link.frames[0].Body
	for i, m := range link.frames {
		if string(m.Body) != string(first) {
			t.Errorf("retransmit %d differs from original frame", i)
		}
	}
	link.mu.Unlock()
}

// TestReliableGiveUpFailsLink: MaxAttempts bounds retransmission;
// exhausting it fails the link with ErrReliableGaveUp.
func TestReliableGiveUpFailsLink(t *testing.T) {
	link := &scriptLink{}
	clock := NewManualClock()
	r := NewReliableLink(link, clock,
		WithRetransmitTimeout(time.Millisecond), WithMaxBackoff(time.Millisecond), WithMaxAttempts(3))
	defer r.Close()
	if err := r.Send(obj(1)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if !waitUntil(time.Second, func() bool { return clock.PendingTimers() >= 1 }) {
			break // loop exited: link failed
		}
		clock.Advance(2 * time.Millisecond)
		time.Sleep(5 * time.Millisecond)
	}
	err := r.Send(obj(2))
	if !errors.Is(err, ErrReliableGaveUp) {
		t.Errorf("Send after give-up = %v, want ErrReliableGaveUp", err)
	}
}

// TestReliableSeqWrapRollsEpoch pins the seq-wrap/restart
// interaction: exhausting the sequence space drains the window, rolls
// to a fresh epoch, and the receiver delivers across the roll exactly
// once and in order.
func TestReliableSeqWrapRollsEpoch(t *testing.T) {
	link := &scriptLink{}
	clock := NewManualClock()
	r := NewReliableLink(link, clock, WithRetransmitTimeout(time.Hour))
	defer r.Close()

	// Jump to the edge of the sequence space.
	r.mu.Lock()
	r.nextSeq = math.MaxUint64 - 1
	oldEpoch := r.epoch
	r.mu.Unlock()

	// Seqs MaxUint64-1 and MaxUint64 exhaust the space; the third
	// frame must stay queued until the old epoch drains.
	for i := uint64(1); i <= 3; i++ {
		if err := r.Send(obj(i)); err != nil {
			t.Fatal(err)
		}
	}
	if !waitUntil(2*time.Second, func() bool { return link.count() == 2 }) {
		t.Fatalf("frames = %d, want 2 before the wrap", link.count())
	}
	time.Sleep(50 * time.Millisecond)
	if got := link.count(); got != 2 {
		t.Fatalf("frames = %d: a frame crossed the wrap before the drain", got)
	}
	r.Ack(appendRelAck(nil, oldEpoch, math.MaxUint64, nil))
	if !waitUntil(2*time.Second, func() bool { return link.count() == 3 }) {
		t.Fatalf("frames = %d, want 3 after the drain", link.count())
	}

	epochs, seqs := link.dataFrames(t)
	if len(seqs) != 3 {
		t.Fatalf("frames = %d, want 3", len(seqs))
	}
	if seqs[0] != math.MaxUint64-1 || seqs[1] != math.MaxUint64 || seqs[2] != 1 {
		t.Errorf("seqs = %v, want [max-1, max, 1]", seqs)
	}
	if epochs[0] != oldEpoch || epochs[1] != oldEpoch || epochs[2] <= oldEpoch {
		t.Errorf("epochs = %v, want [%d, %d, >%d]", epochs, oldEpoch, oldEpoch, oldEpoch)
	}

	// A receiver mid-stream on the old epoch delivers across the roll
	// exactly once, in order.
	h := newRecvHarness()
	h.rr.mu.Lock()
	h.rr.epoch = oldEpoch
	h.rr.next = math.MaxUint64 - 1
	h.rr.mu.Unlock()
	link.mu.Lock()
	frames := append([]*Message(nil), link.frames...)
	link.mu.Unlock()
	for _, m := range frames {
		if err := h.rr.handleData(m.Body); err != nil {
			t.Fatal(err)
		}
		// Retransmit every frame once: dedup must hold across the roll.
		if err := h.rr.handleData(m.Body); err != nil {
			t.Fatal(err)
		}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if fmt.Sprint(h.dispatched) != fmt.Sprint([]uint64{1, 2, 3}) {
		t.Errorf("dispatched across wrap = %v, want [1 2 3]", h.dispatched)
	}
}

// TestReliableSendFailsWhenLinkDies: a raw-send error on the sender
// goroutine fails the link, and the next Send returns that error.
func TestReliableSendFailsWhenLinkDies(t *testing.T) {
	cut := errors.New("wire cut")
	link := &scriptLink{sendErr: cut}
	r := NewReliableLink(link, NewManualClock())
	defer r.Close()
	if err := r.Send(obj(1)); err != nil {
		t.Fatalf("enqueue on a live link: %v", err)
	}
	if !waitUntil(2*time.Second, r.isClosed) {
		t.Fatal("raw-send failure did not fail the link")
	}
	if err := r.Send(obj(2)); !errors.Is(err, cut) {
		t.Errorf("Send after link failure = %v, want the raw-send error", err)
	}
	if err := r.Send(&Message{Type: MsgTypeInfoRequest}); !errors.Is(err, cut) {
		t.Errorf("control Send after link failure = %v, want the raw-send error", err)
	}
}

// TestReliableControlBacklogFailsLink: control frames bypass the
// window, so a link that stops acking must eventually fail rather
// than accumulate unacked control frames without bound.
func TestReliableControlBacklogFailsLink(t *testing.T) {
	link := &scriptLink{}
	clock := NewManualClock()
	r := NewReliableLink(link, clock, WithWindow(2), WithRetransmitTimeout(time.Hour))
	defer r.Close()
	limit := r.maxInflightTotal()
	var err error
	for i := 0; i <= limit+1; i++ {
		if err = r.Send(&Message{Type: MsgTypeInfoRequest, Seq: uint64(i)}); err != nil {
			break
		}
	}
	if !errors.Is(err, ErrReliableGaveUp) {
		t.Fatalf("backlogged link error = %v, want ErrReliableGaveUp", err)
	}
	if got := r.Snapshot().InFlight; got > limit {
		t.Errorf("in-flight = %d, exceeds cap %d", got, limit)
	}
	// The failed link stays failed.
	if err := r.Send(obj(1)); !errors.Is(err, ErrReliableGaveUp) {
		t.Errorf("Send after backlog failure = %v, want ErrReliableGaveUp", err)
	}
}

// --- send queue, RTT-estimated RTO, NACK --------------------------------

// TestReliableSendQueueAsync pins the pipeline's core property: Send
// returns after enqueueing even when the window is full, the sender
// goroutine drains the queue as acks free window slots, and queue
// depth/peak are observable.
func TestReliableSendQueueAsync(t *testing.T) {
	link := &scriptLink{}
	clock := NewManualClock()
	r := NewReliableLink(link, clock,
		WithWindow(2), WithSendQueue(8), WithRetransmitTimeout(time.Hour))
	defer r.Close()

	done := make(chan struct{})
	go func() {
		for i := 0; i < 5; i++ {
			if err := r.Send(obj(uint64(i))); err != nil {
				t.Errorf("async Send %d: %v", i, err)
			}
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Send blocked despite the send queue")
	}
	// The sender loop puts exactly Window frames on the wire.
	if !waitUntil(2*time.Second, func() bool { return link.count() == 2 }) {
		t.Fatalf("frames on wire = %d, want 2 (window)", link.count())
	}
	snap := r.Snapshot()
	if snap.QueueDepth != 3 {
		t.Errorf("QueueDepth = %d, want 3", snap.QueueDepth)
	}
	if snap.QueuePeak < 3 {
		t.Errorf("QueuePeak = %d, want >= 3", snap.QueuePeak)
	}
	// Each ack admits the next queued frame.
	r.Ack(appendRelAck(nil, snap.Epoch, 1, nil))
	if !waitUntil(2*time.Second, func() bool { return link.count() == 3 }) {
		t.Fatalf("frames on wire = %d after ack, want 3", link.count())
	}
	r.Ack(appendRelAck(nil, snap.Epoch, 5, nil))
	if !waitUntil(2*time.Second, func() bool { return r.Snapshot().QueueDepth == 0 }) {
		t.Fatalf("queue never drained: %+v", r.Snapshot())
	}
}

// TestReliableQueueOverflowPolicies drives each full-queue policy:
// block applies backpressure, error fails fast.
func TestReliableQueueOverflowPolicies(t *testing.T) {
	// Window 1 and no acks: one frame on the wire, the rest queued.
	setup := func(p OverflowPolicy) *ReliableLink {
		return NewReliableLink(&scriptLink{}, NewManualClock(),
			WithWindow(1), WithSendQueue(2), WithOverflowPolicy(p),
			WithRetransmitTimeout(time.Hour))
	}

	t.Run("block", func(t *testing.T) {
		r := setup(OverflowBlock)
		defer r.Close()
		for i := 0; i < 3; i++ { // 1 in flight + 2 queued
			if err := r.Send(obj(uint64(i))); err != nil {
				t.Fatal(err)
			}
		}
		if !waitUntil(2*time.Second, func() bool { return r.Snapshot().QueueDepth == 2 }) {
			t.Fatalf("queue = %+v, want depth 2", r.Snapshot())
		}
		blocked := make(chan error, 1)
		go func() { blocked <- r.Send(obj(99)) }()
		select {
		case err := <-blocked:
			t.Fatalf("Send on full queue returned early: %v", err)
		case <-time.After(50 * time.Millisecond):
		}
		r.Ack(appendRelAck(nil, r.Snapshot().Epoch, 1, nil)) // window frees, sender drains one
		select {
		case err := <-blocked:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("Send still blocked after the queue drained")
		}
	})

	t.Run("error", func(t *testing.T) {
		r := setup(OverflowError)
		defer r.Close()
		var err error
		for i := 0; i < 6 && err == nil; i++ {
			err = r.Send(obj(uint64(i)))
		}
		if !errors.Is(err, ErrQueueFull) {
			t.Fatalf("overflow error = %v, want ErrQueueFull", err)
		}
	})
}

// TestReliableQueueAbandonedOnShutdown: frames still queued when the
// link dies are reported, never silently lost.
func TestReliableQueueAbandonedOnShutdown(t *testing.T) {
	r := NewReliableLink(&scriptLink{}, NewManualClock(),
		WithWindow(1), WithSendQueue(8), WithRetransmitTimeout(time.Hour))
	for i := 0; i < 5; i++ { // 1 in flight, 4 queued
		if err := r.Send(obj(uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if !waitUntil(2*time.Second, func() bool { return r.Snapshot().QueueDepth == 4 }) {
		t.Fatalf("queue = %+v, want depth 4", r.Snapshot())
	}
	r.stop()
	if got := r.Snapshot().QueueAbandoned; got != 4 {
		t.Errorf("QueueAbandoned = %d, want 4", got)
	}
	// Double-Close is safe and idempotent.
	if err := r.Close(); err != nil {
		t.Errorf("first Close: %v", err)
	}
	if err := r.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

// TestReliableAdaptiveRTO pins the estimator: the first clean sample
// seeds SRTT/RTTVAR (RTO = SRTT + 4·RTTVAR), later frames start from
// the adaptive value, and Karn's rule keeps retransmitted frames out
// of the sample stream.
func TestReliableAdaptiveRTO(t *testing.T) {
	link := &scriptLink{}
	clock := NewManualClock()
	r := NewReliableLink(link, clock,
		WithRetransmitTimeout(500*time.Millisecond), WithMaxBackoff(10*time.Second))
	defer r.Close()

	if err := r.Send(obj(1)); err != nil {
		t.Fatal(err)
	}
	if !waitUntil(2*time.Second, func() bool { return link.count() == 1 }) {
		t.Fatal("first frame never left the queue")
	}
	if got := r.Snapshot().RTO; got != 500*time.Millisecond {
		t.Fatalf("pre-sample RTO = %v, want the fixed fallback", got)
	}
	clock.Advance(8 * time.Millisecond) // the measured round trip
	r.Ack(appendRelAck(nil, r.Snapshot().Epoch, 1, nil))
	snap := r.Snapshot()
	if snap.SRTT != 8*time.Millisecond || snap.RTTVar != 4*time.Millisecond {
		t.Fatalf("SRTT/RTTVAR = %v/%v, want 8ms/4ms", snap.SRTT, snap.RTTVar)
	}
	if want := 24 * time.Millisecond; snap.RTO != want { // SRTT + 4·RTTVAR
		t.Fatalf("adaptive RTO = %v, want %v", snap.RTO, want)
	}
	if snap.RTTSamples != 1 {
		t.Fatalf("samples = %d, want 1", snap.RTTSamples)
	}

	// Karn: a retransmitted frame must not contribute a sample.
	if err := r.Send(obj(2)); err != nil {
		t.Fatal(err)
	}
	if !waitUntil(2*time.Second, func() bool { return link.count() == 2 }) {
		t.Fatal("second frame never left the queue")
	}
	if !waitUntil(2*time.Second, func() bool { return clock.PendingTimers() >= 1 }) {
		t.Fatal("retransmit timer never armed")
	}
	clock.Advance(30 * time.Millisecond) // past the 24ms adaptive RTO: retransmit
	if !waitUntil(2*time.Second, func() bool { return r.Snapshot().Retransmits == 1 }) {
		t.Fatalf("retransmits = %d, want 1", r.Snapshot().Retransmits)
	}
	r.Ack(appendRelAck(nil, r.Snapshot().Epoch, 2, nil))
	if got := r.Snapshot().RTTSamples; got != 1 {
		t.Errorf("samples after ambiguous ack = %d, want 1 (Karn)", got)
	}
}

// TestReliableMinRTOClampsEstimate: a sub-millisecond measured RTT
// must not drive the retransmit timer below the configured floor.
func TestReliableMinRTOClampsEstimate(t *testing.T) {
	link := &scriptLink{}
	clock := NewManualClock()
	r := NewReliableLink(link, clock, WithMinRTO(5*time.Millisecond))
	defer r.Close()
	if err := r.Send(obj(1)); err != nil {
		t.Fatal(err)
	}
	if !waitUntil(2*time.Second, func() bool { return link.count() == 1 }) {
		t.Fatal("frame never left the queue")
	}
	clock.Advance(100 * time.Microsecond)
	r.Ack(appendRelAck(nil, r.Snapshot().Epoch, 1, nil))
	if got := r.Snapshot().RTO; got != 5*time.Millisecond {
		t.Errorf("clamped RTO = %v, want the 5ms floor", got)
	}
}

// TestReliableNackFastRetransmit drives the sender's reaction to the
// gap seqs an ack reports: named in-flight frames resend immediately,
// acked/unknown seqs and stale epochs are ignored, and
// WithoutFastRetransmit disables the path entirely.
func TestReliableNackFastRetransmit(t *testing.T) {
	link := &scriptLink{}
	clock := NewManualClock()
	r := NewReliableLink(link, clock, WithRetransmitTimeout(time.Hour))
	defer r.Close()
	for i := 1; i <= 3; i++ {
		if err := r.Send(obj(uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if !waitUntil(2*time.Second, func() bool { return link.count() == 3 }) {
		t.Fatalf("frames = %d, want 3 before the NACK", link.count())
	}
	epoch := r.Snapshot().Epoch

	r.Ack(appendRelAck(nil, epoch, 0, []uint64{2}))
	if !waitUntil(2*time.Second, func() bool { return r.Snapshot().FastRetransmits == 1 }) {
		t.Fatalf("frames = %d after NACK, want 4 (one fast retransmit)", link.count())
	}
	if got := link.count(); got != 4 {
		t.Fatalf("frames = %d after NACK, want 4 (one fast retransmit)", got)
	}
	_, seqs := link.dataFrames(t)
	if seqs[3] != 2 {
		t.Errorf("fast-retransmitted seq = %d, want 2", seqs[3])
	}
	if got := r.Snapshot().FastRetransmits; got != 1 {
		t.Errorf("FastRetransmits = %d, want 1", got)
	}

	// Acked, unknown and stale-epoch reports do nothing: once the loop
	// is idle again, no frame has appeared.
	r.Ack(appendRelAck(nil, epoch, 2, nil))
	r.Ack(appendRelAck(nil, epoch, 2, []uint64{1, 2, 99}))
	r.Ack(appendRelAck(nil, epoch+1, 0, []uint64{3}))
	if !waitUntil(2*time.Second, loopIdle(r, clock)) {
		t.Fatal("sender loop never went idle")
	}
	if got := link.count(); got != 4 {
		t.Errorf("frames = %d after stale NACKs, want 4", got)
	}

	// Ablation baseline: fast retransmit off.
	link2 := &scriptLink{}
	r2 := NewReliableLink(link2, clock, WithRetransmitTimeout(time.Hour), WithoutFastRetransmit())
	defer r2.Close()
	if err := r2.Send(obj(1)); err != nil {
		t.Fatal(err)
	}
	if !waitUntil(2*time.Second, func() bool { return link2.count() == 1 }) {
		t.Fatal("frame never left the queue")
	}
	r2.Ack(appendRelAck(nil, r2.Snapshot().Epoch, 0, []uint64{1}))
	if !waitUntil(2*time.Second, loopIdle(r2, clock)) {
		t.Fatal("sender loop never went idle")
	}
	if got := link2.count(); got != 1 {
		t.Errorf("frames = %d with fast retransmit disabled, want 1", got)
	}
}

// loopIdle reports a sender loop parked on its timer with no kick
// pending and no write owed or in progress: it has acted on
// everything it was told.
func loopIdle(r *ReliableLink, clock *VirtualClock) func() bool {
	return func() bool {
		r.mu.Lock()
		defer r.mu.Unlock()
		return len(r.kick) == 0 && !r.writing && len(r.unsent) == 0 && len(r.due) == 0 &&
			clock.PendingTimers() >= 1
	}
}

// TestRelReceiverNacksGapsOncePerEpoch: the receive side reports each
// missing seq exactly once per epoch — enough for the fast path, with
// the sender's timer as the lost-report backstop.
func TestRelReceiverNacksGapsOncePerEpoch(t *testing.T) {
	h := newRecvHarness()
	h.feed(t, 1, 1, obj(10))
	h.feed(t, 1, 3, obj(12)) // gap at 2
	h.mu.Lock()
	nacks := len(h.nacks)
	h.mu.Unlock()
	if nacks != 1 {
		t.Fatalf("nack reports = %d, want 1", nacks)
	}
	h.mu.Lock()
	first := append([]uint64(nil), h.nacks[0]...)
	h.mu.Unlock()
	if fmt.Sprint(first) != fmt.Sprint([]uint64{1, 2}) {
		t.Fatalf("nack = %v, want [epoch=1 seq=2]", first)
	}

	h.feed(t, 1, 4, obj(13)) // same gap: already reported, no new nack
	h.feed(t, 1, 6, obj(15)) // new gap at 5
	h.mu.Lock()
	count := len(h.nacks)
	second := append([]uint64(nil), h.nacks[len(h.nacks)-1]...)
	h.mu.Unlock()
	if count != 2 {
		t.Fatalf("nack reports = %d, want 2", count)
	}
	if fmt.Sprint(second) != fmt.Sprint([]uint64{1, 5}) {
		t.Fatalf("second nack = %v, want [epoch=1 seq=5]", second)
	}

	// Filling the gaps dispatches in order and triggers no more nacks.
	h.feed(t, 1, 2, obj(11))
	h.feed(t, 1, 5, obj(14))
	h.mu.Lock()
	defer h.mu.Unlock()
	if fmt.Sprint(h.dispatched) != fmt.Sprint([]uint64{10, 11, 12, 13, 14, 15}) {
		t.Fatalf("dispatched = %v", h.dispatched)
	}
	if len(h.nacks) != 2 {
		t.Errorf("nack reports after heal = %d, want 2", len(h.nacks))
	}
}

// TestConnGapReportIsOneFrame feeds a reliable frame past a gap into a
// live Conn and reads what comes back: exactly one MsgReliableAck that
// carries both the delivered watermark and the missing seqs.
func TestConnGapReportIsOneFrame(t *testing.T) {
	p := NewPeer(registry.New())
	defer p.Close()
	local, remote := net.Pipe()
	defer remote.Close()
	newConn(p, local)

	const epoch = 7
	frame := &Message{Type: MsgReliableData, Body: encodeRelData(epoch, 3, obj(12))}
	if _, err := WriteMessage(remote, frame); err != nil {
		t.Fatal(err)
	}
	_ = remote.SetReadDeadline(time.Now().Add(2 * time.Second))
	br := bufio.NewReader(remote)
	m, _, err := ReadMessage(br)
	if err != nil {
		t.Fatalf("no feedback frame: %v", err)
	}
	if m.Type != MsgReliableAck {
		t.Fatalf("feedback frame type = %s, want ReliableAck", m.Type)
	}
	gotEpoch, cum, gaps, err := decodeRelAck(m.Body)
	if err != nil {
		t.Fatal(err)
	}
	if gotEpoch != epoch || cum != 0 || fmt.Sprint(gaps) != "[1 2]" {
		t.Fatalf("ack = epoch %d cum %d gaps %v, want epoch %d cum 0 gaps [1 2]", gotEpoch, cum, gaps, epoch)
	}

	// net.Pipe writes are synchronous, so a second feedback frame would
	// be waiting here.
	_ = remote.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
	if m, _, err := ReadMessage(br); err == nil {
		t.Fatalf("second frame %s after the gap report, want none", m.Type)
	}
	st := p.Stats().Snapshot()
	if st.RelAcksSent != 1 || st.RelNacksSent != 1 {
		t.Errorf("RelAcksSent = %d, RelNacksSent = %d, want 1 and 1", st.RelAcksSent, st.RelNacksSent)
	}
}

// TestReliableUnreachableTyped: the give-up error is a typed
// *UnreachableError carrying attempt counts, matching both the new
// ErrPeerUnreachable and the legacy ErrReliableGaveUp sentinels.
func TestReliableUnreachableTyped(t *testing.T) {
	link := &scriptLink{}
	clock := NewManualClock()
	r := NewReliableLink(link, clock,
		WithRetransmitTimeout(time.Millisecond), WithMaxBackoff(time.Millisecond), WithMaxAttempts(2))
	defer r.Close()
	if err := r.Send(obj(1)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if !waitUntil(time.Second, func() bool { return clock.PendingTimers() >= 1 }) {
			break // loop exited: link failed
		}
		clock.Advance(2 * time.Millisecond)
		time.Sleep(5 * time.Millisecond)
	}
	err := r.Send(obj(2))
	if !errors.Is(err, ErrPeerUnreachable) {
		t.Fatalf("give-up = %v, want ErrPeerUnreachable", err)
	}
	if !errors.Is(err, ErrReliableGaveUp) {
		t.Errorf("give-up does not match the legacy sentinel")
	}
	var ue *UnreachableError
	if !errors.As(err, &ue) {
		t.Fatalf("give-up is %T, want *UnreachableError", err)
	}
	if ue.Seq != 1 || ue.Attempts != 2 {
		t.Errorf("UnreachableError = %+v, want seq 1 after 2 attempts", ue)
	}
}

// allStacks returns every goroutine's stack, growing the buffer until
// the dump fits: a scale run holds thousands of goroutines, and a
// truncated dump would miscount the leak probes below.
func allStacks() string {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return string(buf[:n])
		}
		buf = make([]byte, 2*len(buf))
	}
}

// reliableLoopGoroutines counts live sender loops — the
// manual-snapshot leak detector (no external goleak dependency).
func reliableLoopGoroutines() int {
	return strings.Count(allStacks(), "(*ReliableLink).sendLoop")
}

// TestReliableCloseReleasesGoroutines: a busy link runs one sender
// loop, and every Close/stop path releases it, on links killed with
// frames queued and in flight.
func TestReliableCloseReleasesGoroutines(t *testing.T) {
	base := reliableLoopGoroutines()
	var links []*ReliableLink
	clock := NewManualClock()
	for i := 0; i < 8; i++ {
		r := NewReliableLink(&scriptLink{}, clock,
			WithWindow(1), WithSendQueue(4), WithRetransmitTimeout(time.Hour))
		for j := 0; j < 3; j++ { // leave work queued and in flight
			if err := r.Send(obj(uint64(j))); err != nil {
				t.Fatal(err)
			}
		}
		links = append(links, r)
	}
	if !waitUntil(2*time.Second, func() bool { return reliableLoopGoroutines() >= base+8 }) {
		t.Fatalf("loop goroutines = %d, want >= %d", reliableLoopGoroutines(), base+8)
	}
	for i, r := range links {
		if i%2 == 0 {
			if err := r.Close(); err != nil {
				t.Fatal(err)
			}
			if err := r.Close(); err != nil { // double-Close safe
				t.Fatal(err)
			}
		} else {
			r.stop()
		}
	}
	if !waitUntil(5*time.Second, func() bool { return reliableLoopGoroutines() <= base }) {
		t.Fatalf("loop goroutines = %d after close, want <= %d (leak)", reliableLoopGoroutines(), base)
	}
}

// TestReliableFirstSendsInSeqOrder pins the one-writer property:
// first transmissions reach the wire in the order their seqs were
// assigned. A control frame sequenced while an object frame's write
// is stalled must not overtake it, and a resume's replay reaches the
// new link ahead of every frame registered after the resume.
func TestReliableFirstSendsInSeqOrder(t *testing.T) {
	wireSeqs := func(t *testing.T, l *scriptLink, want int) string {
		t.Helper()
		if !waitUntil(2*time.Second, func() bool { return l.count() == want }) {
			t.Fatalf("frames on wire = %d, want %d", l.count(), want)
		}
		_, seqs := l.dataFrames(t)
		return fmt.Sprint(seqs)
	}

	t.Run("control behind stalled object", func(t *testing.T) {
		link := &scriptLink{}
		held, release := link.holdNextSend()
		r := NewReliableLink(link, NewManualClock(), WithRetransmitTimeout(time.Hour))
		defer r.Close()
		if err := r.Send(obj(1)); err != nil {
			t.Fatal(err)
		}
		awaitHeld(t, held)
		if err := r.Send(&Message{Type: MsgTypeInfoReply, Seq: 2}); err != nil {
			t.Fatal(err)
		}
		close(release)
		if got := wireSeqs(t, link, 2); got != "[1 2]" {
			t.Errorf("wire order = %s, want [1 2]", got)
		}
	})

	t.Run("resume replay ahead of later frames", func(t *testing.T) {
		// The old conn dies under a stalled write: its write fails
		// after the session has already resumed on a new link, and that
		// stale failure must not detach the resumed session.
		dead := &scriptLink{sendErr: ErrClosed}
		held, release := dead.holdNextSend()
		r := NewReliableLink(dead, NewManualClock(), WithRetransmitTimeout(time.Hour))
		r.setManaged()
		defer r.Close()
		if err := r.Send(obj(1)); err != nil {
			t.Fatal(err)
		}
		awaitHeld(t, held)
		r.stop() // conn teardown: a managed link detaches
		fresh := &scriptLink{}
		if n := r.resume(fresh, true, 0); n != 1 {
			t.Fatalf("resume handed %d frames to the writer, want 1", n)
		}
		if err := r.Send(&Message{Type: MsgTypeInfoReply, Seq: 2}); err != nil {
			t.Fatal(err)
		}
		if err := r.Send(obj(3)); err != nil {
			t.Fatal(err)
		}
		close(release)
		if got := wireSeqs(t, fresh, 3); got != "[1 2 3]" {
			t.Errorf("wire order after resume = %s, want [1 2 3]", got)
		}
		if s := r.Snapshot(); s.Detached {
			t.Error("a write failure on the abandoned link detached the resumed session")
		}
		if got := r.stats.Snapshot().RelFramesReplayed; got != 1 {
			t.Errorf("RelFramesReplayed = %d, want 1", got)
		}
	})
}

// TestReliableIdleLinkLeavesBusyProbe: a link whose owed writes were
// all acked before the loop reached them goes idle, and its
// contribution to the fabric's busy probe goes with it — a stale
// contribution would freeze the virtual clock for the whole fabric.
func TestReliableIdleLinkLeavesBusyProbe(t *testing.T) {
	link := &scriptLink{}
	busy := &fabricBusy{}
	r := newReliableLink(link, NewManualClock(), new(Stats), busy, defaultReliableConfig())
	defer r.Close()
	if err := r.Send(obj(1)); err != nil {
		t.Fatal(err)
	}
	if !waitUntil(2*time.Second, func() bool { return link.count() == 1 }) {
		t.Fatal("first frame never reached the link")
	}
	held, release := link.holdNextSend()
	if err := r.Send(obj(2)); err != nil {
		t.Fatal(err)
	}
	awaitHeld(t, held)
	epoch := r.Snapshot().Epoch
	r.Ack(appendRelAck(nil, epoch, 0, []uint64{1})) // a repair is owed...
	r.Ack(appendRelAck(nil, epoch, 2, nil))         // ...and made moot before the loop gets to it
	close(release)
	if !waitUntil(2*time.Second, func() bool {
		r.mu.Lock()
		defer r.mu.Unlock()
		return !r.active
	}) {
		t.Fatal("sender loop never went idle")
	}
	if got := busy.pipelines.Load(); got != 0 {
		t.Errorf("idle link still counts %d busy pipelines", got)
	}
	if got := link.count(); got != 2 {
		t.Errorf("frames on wire = %d, want 2 (no moot repair)", got)
	}
}

// tcpStream is a reliable sender and receiver over a loopback TCP
// pair, the receiver recording the age of each PersonA it delivers.
type tcpStream struct {
	sender, receiver *Peer
	conn             *Conn
	mu               sync.Mutex
	ages             []int
}

// newTCPStream connects a reliable sender to a receiver over loopback
// TCP. onDeliver, when set, runs in the receiver's handler after the
// delivery is recorded.
func newTCPStream(t *testing.T, onDeliver func(), opts ...ReliableOption) *tcpStream {
	t.Helper()
	sendReg := registry.New()
	if _, err := sendReg.Register(fixtures.PersonB{}); err != nil {
		t.Fatal(err)
	}
	recvReg := registry.New()
	if _, err := recvReg.Register(fixtures.PersonA{}); err != nil {
		t.Fatal(err)
	}
	s := &tcpStream{
		sender:   NewPeer(sendReg, WithName("sender"), WithReliableLinks(opts...)),
		receiver: NewPeer(recvReg, WithName("receiver"), WithReliableLinks(opts...)),
	}
	t.Cleanup(func() {
		_ = s.sender.Close()
		_ = s.receiver.Close()
	})
	if err := s.receiver.OnReceive(fixtures.PersonA{}, func(d Delivery) {
		s.mu.Lock()
		s.ages = append(s.ages, d.Bound.(*fixtures.PersonA).Age)
		s.mu.Unlock()
		if onDeliver != nil {
			onDeliver()
		}
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.receiver.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	conn, err := s.sender.Dial(s.receiver.Addr())
	if err != nil {
		t.Fatal(err)
	}
	s.conn = conn
	return s
}

func (s *tcpStream) send(t *testing.T, age int) {
	t.Helper()
	if err := s.sender.SendObject(s.conn, fixtures.PersonB{PersonName: "tcp", PersonAge: age}); err != nil {
		t.Fatal(err)
	}
}

// awaitInOrder waits until all n objects are delivered and acked, and
// checks that each was delivered exactly once, in send order.
func (s *tcpStream) awaitInOrder(t *testing.T, n int) {
	t.Helper()
	delivered := func() int {
		s.mu.Lock()
		defer s.mu.Unlock()
		return len(s.ages)
	}
	if !waitUntil(30*time.Second, func() bool {
		rs, ok := s.conn.ReliableSnapshot()
		return delivered() == n && ok && rs.InFlightData == 0
	}) {
		rs, _ := s.conn.ReliableSnapshot()
		t.Fatalf("delivered %d of %d, sender %+v", delivered(), n, rs)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, age := range s.ages {
		if age != i {
			t.Fatalf("delivery %d carried object %d: want exactly-once, in-order delivery", i, age)
		}
	}
	if got := s.receiver.Stats().Snapshot().ObjectsDelivered; got != uint64(n) {
		t.Errorf("ObjectsDelivered = %d, want %d", got, n)
	}
}

// repairs sums the NACKs and fast retransmits of both peers.
func (s *tcpStream) repairs() (nacks, fast uint64) {
	ss, rs := s.sender.Stats().Snapshot(), s.receiver.Stats().Snapshot()
	return ss.RelNacksSent + rs.RelNacksSent, ss.RelFastRetransmits + rs.RelFastRetransmits
}

// TestReliableTCPNoSpuriousRepair streams objects over a loopback TCP
// pair with reliable links and several objects in flight. TCP neither
// loses nor reorders, the sender's one writer puts first
// transmissions on the wire in seq order, and the receiver accepts
// each conn's frames in arrival order, so no frame may be NACKed or
// fast-retransmitted: these counts are invariants, not tuned bounds.
// They hold from the first object on: the first inFlight objects go
// out back to back while the receiver's description fetch is still
// unanswered, so the sender's reply, a control frame, is sequenced
// among queued object frames.
func TestReliableTCPNoSpuriousRepair(t *testing.T) {
	const (
		objects  = 2000
		inFlight = 4
	)
	slots := make(chan struct{}, inFlight)
	s := newTCPStream(t, func() { <-slots })
	for i := 0; i < objects; i++ {
		slots <- struct{}{}
		s.send(t, i)
	}
	s.awaitInOrder(t, objects)
	if s.receiver.Stats().Snapshot().TypeInfoRequests == 0 {
		t.Error("no description fetch: the stream never mixed a reply with object frames")
	}
	if nacks, fast := s.repairs(); nacks != 0 || fast != 0 {
		t.Errorf("over an ordered stream: %d NACKs sent and %d fast retransmits, want 0 and 0", nacks, fast)
	}
}

// TestReliableTCPBatchedWrites sends objects back to back over a
// loopback TCP pair, so frames queue up behind the sender loop's
// writes and the receiver's drain. The loop must put every ready
// frame on the wire in one write and the drain must ack once per
// delivered run: both show as fewer writes than frames and fewer acks
// than objects, with delivery still exactly-once and in order and no
// repair on an ordered stream. Timer retransmits are logged, not
// gated: a lossless link can still fire the timer (MinRTO).
func TestReliableTCPBatchedWrites(t *testing.T) {
	const objects = 2000
	for _, window := range []int{2, 32} {
		t.Run(fmt.Sprintf("window=%d", window), func(t *testing.T) {
			s := newTCPStream(t, nil, WithWindow(window))
			for i := 0; i < objects; i++ {
				s.send(t, i)
			}
			s.awaitInOrder(t, objects)
			if nacks, fast := s.repairs(); nacks != 0 || fast != 0 {
				t.Errorf("over an ordered stream: %d NACKs sent and %d fast retransmits, want 0 and 0", nacks, fast)
			}
			ss, rs := s.sender.Stats().Snapshot(), s.receiver.Stats().Snapshot()
			frames := ss.RelDataSent + ss.RelRetransmits + ss.RelFastRetransmits + ss.RelFramesReplayed
			t.Logf("%d frames in %d writes; %d acks for %d objects; %d timer retransmits",
				frames, ss.RelWrites, rs.RelAcksSent, objects, ss.RelRetransmits)
			if ss.RelWrites == 0 || frames <= ss.RelWrites {
				t.Errorf("%d frames in %d writes: want more than one frame per write", frames, ss.RelWrites)
			}
			if rs.RelAcksSent >= objects {
				t.Errorf("receiver sent %d acks for %d objects: want fewer than one per object", rs.RelAcksSent, objects)
			}
		})
	}
}

// TestFabricBatchedWriteOneDecisionPerFrame: a batched write reaches a
// fabric endpoint as one Write per frame, so the link's fault
// schedule still decides frame by frame. Under a queued burst the
// decisions recorded on the sender's direction equal the protocol
// frames it wrote, while its sender loop made fewer writes than that.
func TestFabricBatchedWriteOneDecisionPerFrame(t *testing.T) {
	const objects = 500
	f := NewFabric(scenarioSeed(t, 2020))
	t.Cleanup(func() { _ = f.Close() })
	regA := registry.New()
	if _, err := regA.Register(fixtures.PersonB{}); err != nil {
		t.Fatal(err)
	}
	regB := registry.New()
	if _, err := regB.Register(fixtures.PersonA{}); err != nil {
		t.Fatal(err)
	}
	// Only a sends reliably, so every frame on a->b is a reliable data
	// frame counted by a's sender counters.
	na, err := f.AddPeerWithRegistry("a", regA, WithReliableLinks(WithSendQueue(objects)))
	if err != nil {
		t.Fatal(err)
	}
	nb, err := f.AddPeerWithRegistry("b", regB)
	if err != nil {
		t.Fatal(err)
	}
	ca, _, err := f.Connect("a", "b", FaultProfile{})
	if err != nil {
		t.Fatal(err)
	}
	var delivered sync.WaitGroup
	delivered.Add(objects)
	if err := nb.Peer().OnReceive(fixtures.PersonA{}, func(Delivery) { delivered.Done() }); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < objects; i++ {
		if err := na.Peer().SendObject(ca, fixtures.PersonB{PersonName: "burst", PersonAge: i}); err != nil {
			t.Fatal(err)
		}
	}
	delivered.Wait()
	if !waitUntil(10*time.Second, func() bool {
		rs, _ := ca.ReliableSnapshot()
		return rs.InFlight == 0
	}) {
		t.Fatal("frames still in flight after every delivery")
	}
	s := na.Peer().Stats().Snapshot()
	frames := s.RelDataSent + s.RelRetransmits + s.RelFastRetransmits + s.RelFramesReplayed
	decisions := 0
	for _, d := range f.Schedule() {
		if d.Link == "a->b" {
			decisions++
		}
	}
	t.Logf("%d frames in %d writes, %d fault decisions", frames, s.RelWrites, decisions)
	if uint64(decisions) != frames {
		t.Errorf("a->b recorded %d fault decisions for %d frames written, want one per frame", decisions, frames)
	}
	if s.RelWrites >= frames {
		t.Errorf("%d frames in %d writes: the burst never batched", frames, s.RelWrites)
	}
}
