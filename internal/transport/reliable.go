package transport

import (
	cryptorand "crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// The reliable delivery layer sits between the protocol and an
// unreliable Link, the same layering move the paper's type-based
// publish/subscribe stack makes above its transport: reliability is
// built *above* the lossy medium instead of assumed from TCP.
//
// Sender side (ReliableLink): every outgoing message is framed as
// MsgReliableData carrying a (epoch, seq) header; unacked frames live
// in an in-flight set and are retransmitted on a timer with
// exponential backoff until a cumulative MsgReliableAck covers them.
//
// One sender loop per link is the only writer of its frames. Object
// frames take one path: Send appends them to a bounded per-link queue
// (256 frames unless WithSendQueue resizes it) and returns, and the
// loop drains the queue through a bounded window of Window unacked
// object frames. A stalled peer therefore fills its own queue instead
// of the caller's goroutine — the property that keeps a reliable
// Broadcast from serializing behind its worst connection. The
// overflow policy decides what a full queue does: block the enqueuer
// (default) or fail fast. Control frames (requests, replies) skip the
// queue and the window: Send sequences them and the loop writes them
// ahead of queued data. Every first transmission joins one FIFO in
// the critical section that assigns its seq, so frames reach the wire
// in seq order; repairs and the resume replay go through the same
// loop, which puts every frame ready at once on the wire in one write.
//
// The retransmit timer starts from a Jacobson/Karels estimate of the
// link's RTT (RFC 6298): SRTT/RTTVAR are updated only from frames
// transmitted exactly once (Karn's rule), the timeout is clamped to
// [MinRTO, MaxBackoff], and RetransmitTimeout applies until the first
// sample. NACK fast-retransmit closes the other half of the loop from
// the receive side: a receiver that observes a sequence gap reports
// the missing seqs in a MsgReliableNack, and the sender repairs them
// immediately instead of waiting out a full backoff interval; the
// timer remains the backstop for lost NACKs.
//
// Receiver side (relReceiver, armed on every Conn unconditionally so
// only the sender has to opt in): frames are deduplicated by (epoch,
// seq), buffered until contiguous, acknowledged cumulatively, and
// dispatched strictly in sequence order — exactly-once, in-order
// delivery over links that drop, duplicate and reorder. Correlated
// replies bypass the in-order queue (their Seq field already pairs
// them with their request), which is what keeps a blocked in-order
// dispatch from deadlocking the description fetch it is waiting on.
//
// Epochs make restarts safe: each ReliableLink instance draws a fresh
// epoch from a process-wide monotonic counter (randomly seeded, so
// epochs are unique across processes too — see relEpochCounter), and
// the receiver resets its sequence state whenever a newer epoch
// appears — while frames from an older epoch (ghosts of a pre-restart
// sender) are silently discarded, never redelivered.

// ErrReliableGaveUp fails a reliable link whose retransmissions
// exhausted ReliableConfig.MaxAttempts.
var ErrReliableGaveUp = errors.New("transport: reliable link gave up")

// ErrPeerUnreachable classifies a reliable link's give-up: the remote
// end stopped acknowledging and the link abandoned it. The concrete
// error is always an *UnreachableError carrying the attempt count and
// the last underlying send error.
var ErrPeerUnreachable = errors.New("transport: peer unreachable")

// ErrQueueFull fails an enqueue on a full send queue under
// OverflowError.
var ErrQueueFull = errors.New("transport: reliable send queue full")

// UnreachableError is the typed give-up failure of a reliable link:
// a frame exhausted MaxAttempts without an ack, or the unacked
// backlog hit the in-flight cap. It matches both ErrPeerUnreachable
// and the legacy ErrReliableGaveUp sentinel under errors.Is, and
// unwraps to the last raw send error when one was observed.
type UnreachableError struct {
	Seq      uint64 // frame that exhausted its attempts (0 for a backlog give-up)
	Attempts int    // transmissions of that frame
	Pending  int    // unacked frames at the moment of give-up
	LastErr  error  // last underlying send error, nil when raw sends succeeded
}

func (e *UnreachableError) Error() string {
	var msg string
	if e.Seq != 0 {
		msg = fmt.Sprintf("%v: seq %d unacked after %d attempts (%d pending)",
			ErrPeerUnreachable, e.Seq, e.Attempts, e.Pending)
	} else {
		msg = fmt.Sprintf("%v: %d unacked frames", ErrPeerUnreachable, e.Pending)
	}
	if e.LastErr != nil {
		msg += ": " + e.LastErr.Error()
	}
	return msg
}

// Unwrap exposes the last raw send error to errors.Is/As chains.
func (e *UnreachableError) Unwrap() error { return e.LastErr }

// Is matches the give-up sentinels, so callers written against the
// original ErrReliableGaveUp keep working.
func (e *UnreachableError) Is(target error) bool {
	return target == ErrPeerUnreachable || target == ErrReliableGaveUp
}

// OverflowPolicy selects what a full send queue does with the next
// enqueue (see WithSendQueue).
type OverflowPolicy int

const (
	// OverflowBlock applies backpressure: the enqueuing goroutine
	// waits for the sender to drain a slot. The default.
	OverflowBlock OverflowPolicy = iota
	// OverflowError fails the enqueue immediately with ErrQueueFull.
	OverflowError
)

// ReliableConfig tunes a ReliableLink.
type ReliableConfig struct {
	// Window bounds unacked object frames in flight; the sender
	// loop holds queued frames back while the window is full.
	// Control frames (requests, replies) bypass the window so flow
	// control can never deadlock a protocol round trip, but they are
	// still sequenced, retransmitted and deduped.
	Window int
	// RetransmitTimeout is the retransmit timer new frames start from
	// until the link has its first RTT sample; each retransmission
	// doubles a frame's timer up to MaxBackoff.
	RetransmitTimeout time.Duration
	// MaxBackoff caps the per-frame retransmit interval and the
	// estimated RTO.
	MaxBackoff time.Duration
	// MaxAttempts fails the link when a frame has been transmitted
	// this many times without an ack (0 = keep trying until the link
	// closes — the partition-heals-eventually configuration).
	MaxAttempts int
	// SendQueue bounds the object frames Send may queue ahead of the
	// window (default 256).
	SendQueue int
	// Overflow picks the full-queue policy (default OverflowBlock).
	Overflow OverflowPolicy
	// MinRTO floors the estimated RTO so a fast LAN measurement can
	// never spin the retransmit timer (default 2ms).
	MinRTO time.Duration
	// FastRetransmit reacts to receiver gap reports (MsgReliableNack)
	// with an immediate resend (default true); disable it to fall
	// back to pure timer-driven recovery, the ablation baseline of
	// the fan-out benchmark.
	FastRetransmit bool
}

func defaultReliableConfig() ReliableConfig {
	return ReliableConfig{
		Window:            32,
		RetransmitTimeout: 20 * time.Millisecond,
		MaxBackoff:        640 * time.Millisecond,
		SendQueue:         256,
		MinRTO:            2 * time.Millisecond,
		FastRetransmit:    true,
	}
}

// ReliableOption tunes the reliable layer.
type ReliableOption func(*ReliableConfig)

// WithWindow bounds unacked object frames in flight (default 32).
func WithWindow(n int) ReliableOption {
	return func(c *ReliableConfig) {
		if n > 0 {
			c.Window = n
		}
	}
}

// WithRetransmitTimeout sets the retransmit timer used before the
// first RTT sample (default 20ms); backoff doubles it per attempt.
func WithRetransmitTimeout(d time.Duration) ReliableOption {
	return func(c *ReliableConfig) {
		if d > 0 {
			c.RetransmitTimeout = d
		}
	}
}

// WithMaxBackoff caps the retransmit interval (default 640ms).
func WithMaxBackoff(d time.Duration) ReliableOption {
	return func(c *ReliableConfig) {
		if d > 0 {
			c.MaxBackoff = d
		}
	}
}

// WithMaxAttempts bounds transmissions per frame before the link
// fails with an *UnreachableError (default 0 = unlimited).
func WithMaxAttempts(n int) ReliableOption {
	return func(c *ReliableConfig) { c.MaxAttempts = n }
}

// WithSendQueue resizes the per-link send queue to n object frames
// (default 256). WithOverflowPolicy picks what a full queue does.
func WithSendQueue(n int) ReliableOption {
	return func(c *ReliableConfig) {
		if n > 0 {
			c.SendQueue = n
		}
	}
}

// WithOverflowPolicy selects the full-queue behaviour of the send
// queue (default OverflowBlock).
func WithOverflowPolicy(p OverflowPolicy) ReliableOption {
	return func(c *ReliableConfig) {
		switch p {
		case OverflowBlock, OverflowError:
			c.Overflow = p
		}
	}
}

// WithMinRTO floors the estimated RTO (default 2ms).
func WithMinRTO(d time.Duration) ReliableOption {
	return func(c *ReliableConfig) {
		if d > 0 {
			c.MinRTO = d
		}
	}
}

// WithoutFastRetransmit disables NACK-driven resends, leaving the
// backoff timer as the only recovery path — the ablation baseline the
// fan-out benchmark compares against.
func WithoutFastRetransmit() ReliableOption {
	return func(c *ReliableConfig) { c.FastRetransmit = false }
}

// WithReliableLinks makes every connection the peer owns send through
// a ReliableLink: SendObject, Broadcast and the protocol's request/
// reply exchanges all ride exactly-once in-order framing. Receiving
// reliable frames needs no option — every peer understands them — so
// enabling the sender side alone upgrades a link.
func WithReliableLinks(opts ...ReliableOption) PeerOption {
	return func(p *Peer) {
		cfg := defaultReliableConfig()
		for _, o := range opts {
			o(&cfg)
		}
		p.relCfg = &cfg
	}
}

// relEpochCounter is the process-wide epoch source: every
// ReliableLink instance gets a strictly greater epoch than any built
// before it, which is what lets receivers tell a restarted sender
// from a ghost of the old one. The counter is seeded from crypto/rand
// at startup because the resume handshake keys saved sessions by
// epoch alone: two processes whose counters both started at 1 would
// routinely present colliding epochs to a shared receiver, letting
// one sender adopt — and seal — another sender's live session. A
// random 62-bit starting point makes that collision vanishingly
// unlikely while keeping within-process epochs strictly ordered.
var relEpochCounter atomic.Uint64

func init() {
	var b [8]byte
	if _, err := cryptorand.Read(b[:]); err == nil {
		// Top two bits clear: ~4.6e18 epochs of headroom before the
		// counter could wrap toward 0, the "no session" sentinel.
		relEpochCounter.Store(binary.BigEndian.Uint64(b[:]) >> 2)
	}
}

func nextRelEpoch() uint64 { return relEpochCounter.Add(1) }

// --- wire framing -----------------------------------------------------

// relDataHeader prefixes every reliable data frame:
// epoch (8) | seq (8) | inner type (1) | inner seq (8).
const relDataHeader = 8 + 8 + 1 + 8

func encodeRelData(epoch, seq uint64, m *Message) []byte {
	b := make([]byte, relDataHeader+len(m.Body))
	binary.BigEndian.PutUint64(b[0:8], epoch)
	binary.BigEndian.PutUint64(b[8:16], seq)
	b[16] = byte(m.Type)
	binary.BigEndian.PutUint64(b[17:25], m.Seq)
	copy(b[relDataHeader:], m.Body)
	return b
}

func decodeRelData(body []byte) (epoch, seq uint64, inner *Message, err error) {
	if len(body) < relDataHeader {
		return 0, 0, nil, fmt.Errorf("%w: short reliable frame", ErrBadFrame)
	}
	epoch = binary.BigEndian.Uint64(body[0:8])
	seq = binary.BigEndian.Uint64(body[8:16])
	inner = &Message{
		Type: MsgType(body[16]),
		Seq:  binary.BigEndian.Uint64(body[17:25]),
		Body: body[relDataHeader:],
	}
	return epoch, seq, inner, nil
}

func encodeRelAck(epoch, cum uint64) []byte {
	b := make([]byte, 16)
	binary.BigEndian.PutUint64(b[0:8], epoch)
	binary.BigEndian.PutUint64(b[8:16], cum)
	return b
}

func decodeRelAck(body []byte) (epoch, cum uint64, err error) {
	if len(body) != 16 {
		return 0, 0, fmt.Errorf("%w: bad reliable ack", ErrBadFrame)
	}
	return binary.BigEndian.Uint64(body[0:8]), binary.BigEndian.Uint64(body[8:16]), nil
}

// maxNackSeqs bounds one gap report; deeper gaps heal incrementally
// as repairs land, with the retransmit timer as the backstop.
const maxNackSeqs = 32

func encodeRelNack(epoch uint64, seqs []uint64) []byte {
	b := make([]byte, 8+8*len(seqs))
	binary.BigEndian.PutUint64(b[0:8], epoch)
	for i, s := range seqs {
		binary.BigEndian.PutUint64(b[8+8*i:16+8*i], s)
	}
	return b
}

func decodeRelNack(body []byte) (epoch uint64, seqs []uint64, err error) {
	if len(body) < 16 || len(body)%8 != 0 {
		return 0, nil, fmt.Errorf("%w: bad reliable nack", ErrBadFrame)
	}
	epoch = binary.BigEndian.Uint64(body[0:8])
	seqs = make([]uint64, 0, (len(body)-8)/8)
	for off := 8; off < len(body); off += 8 {
		seqs = append(seqs, binary.BigEndian.Uint64(body[off:off+8]))
	}
	return epoch, seqs, nil
}

// --- RTT estimation ---------------------------------------------------

// rttEstimator is the Jacobson/Karels RTO estimator (the RFC 6298
// shape): SRTT and RTTVAR are exponentially weighted from clean
// samples and the timeout is SRTT + 4·RTTVAR. Guarded by the owning
// link's mutex.
type rttEstimator struct {
	srtt    time.Duration
	rttvar  time.Duration
	samples uint64
}

func (e *rttEstimator) observe(s time.Duration) {
	if s < 0 {
		s = 0
	}
	if e.samples == 0 {
		e.srtt = s
		e.rttvar = s / 2
	} else {
		d := s - e.srtt
		if d < 0 {
			d = -d
		}
		e.rttvar += (d - e.rttvar) / 4
		e.srtt += (s - e.srtt) / 8
	}
	e.samples++
}

func (e *rttEstimator) rto() time.Duration { return e.srtt + 4*e.rttvar }

// --- sender -----------------------------------------------------------

// relWrite names the write the sender loop owes an in-flight frame.
// Each kind feeds its own counter once the frame is on the wire.
type relWrite uint8

const (
	relWritten relWrite = iota // on the wire, timed by its deadline
	relFirst                   // sequenced, never written
	relReplay                  // rebuilt by resume, not yet rewritten
	relTimeout                 // deadline passed: a timer resend is owed
	relNacked                  // named by a NACK: a fast retransmit is owed
)

// relEntry is one unacked frame.
type relEntry struct {
	seq      uint64
	data     bool // counts against the window
	frame    []byte
	owed     relWrite
	sentAt   time.Time // first transmission, for RTT sampling
	deadline time.Time
	backoff  time.Duration
	attempts int // transmissions so far
}

func sortBySeq(es []*relEntry) {
	sort.Slice(es, func(i, j int) bool { return es[i].seq < es[j].seq })
}

// popFront removes the head of a FIFO, shifting the rest down so the
// backing array is reused rather than regrown per frame.
func popFront[T any](fifo *[]T) T {
	s := *fifo
	head := s[0]
	n := copy(s, s[1:])
	var zero T
	s[n] = zero
	*fifo = s[:n]
	return head
}

// ReliableLink decorates any Link with exactly-once in-order
// delivery: sequence framing, positive cumulative acks, retransmit
// with exponential backoff from an RTT-estimated timeout, NACK-driven
// fast retransmit, a bounded in-flight window, and a bounded send
// queue. Peers built with WithReliableLinks attach one to every
// connection automatically; NewReliableLink builds a standalone
// decorator.
type ReliableLink struct {
	raw   Link
	clock Clock
	stats *Stats // the peer's counters, or the link's own when standalone
	cfg   ReliableConfig

	mu             sync.Mutex
	cond           *sync.Cond
	epoch          uint64
	nextSeq        uint64 // 0 means the sequence space is exhausted
	inflight       map[uint64]*relEntry
	inflightData   int
	acked          uint64
	queue          []*Message // object frames waiting for the window
	queuePeak      int
	queueAbandoned uint64
	// unsent holds sequenced frames awaiting their first write, in seq
	// order; due holds frames owed a repair, lowest seq first. Only the
	// sender loop drains them, skipping entries acked or rebuilt since.
	unsent      []*relEntry
	due         []*relEntry
	est         rttEstimator
	lastSendErr error
	closed      bool
	err         error
	// managed marks a link owned by a Remote (see health.go): a send
	// failure or conn teardown detaches it — parks the machinery with
	// the window intact — instead of killing it, so a redial can
	// resume the session and replay the unacked frames.
	managed  bool
	detached bool
	// rawGen counts resumes, so a write that fails on a raw link the
	// session has already left cannot detach the resumed session.
	rawGen uint64

	// busyRef, when set, is the owning fabric's shared busy counter:
	// wasRunnable mirrors this link's contribution to its pipelines
	// count, reconciled by updateRunnableLocked at every admission-state
	// transition. Nil for standalone links.
	busyRef     *fabricBusy
	wasRunnable bool

	// active marks the lazily spawned sender loop; writing marks it
	// inside a raw write. An idle link — nothing queued, nothing in
	// flight — holds no goroutine at all. The loop clears active in the
	// same critical section as its exit decision, so a concurrent
	// wakeLocked never sees a stale flag and skips the respawn.
	active  bool
	writing bool
	kick    chan struct{}
	// batch and msgs are the loop's reused lists for one write: the
	// frames it takes and their wire messages. Only the loop uses them.
	batch []*relEntry
	msgs  []Message

	retransmits     atomic.Uint64
	fastRetransmits atomic.Uint64
	acksReceived    atomic.Uint64
}

// NewReliableLink wraps l in a reliable sender. When l is a *Conn the
// link attaches itself for ack/nack routing and raw writes; for any
// other Link the caller must feed incoming MsgReliableAck bodies to
// Ack and MsgReliableNack bodies to Nack. A nil clock means the wall
// clock.
func NewReliableLink(l Link, clock Clock, opts ...ReliableOption) *ReliableLink {
	cfg := defaultReliableConfig()
	for _, o := range opts {
		o(&cfg)
	}
	if clock == nil {
		clock = realClock{}
	}
	raw := l
	stats := new(Stats)
	var conn *Conn
	var fb *fabricBusy
	if c, ok := l.(*Conn); ok {
		conn = c
		raw = connRaw{c}
		stats = &c.peer.stats
		fb = c.peer.busyRef
	}
	r := newReliableLink(raw, clock, stats, fb, cfg)
	if conn != nil {
		// Replacing an attached sender must stop the old one, or its
		// loop would resend old-epoch frames (which the receiver
		// ghosts without acking) until the conn dies.
		if old := conn.rel.Swap(r); old != nil {
			old.stop()
		}
	}
	return r
}

func newReliableLink(raw Link, clock Clock, stats *Stats, fb *fabricBusy, cfg ReliableConfig) *ReliableLink {
	r := &ReliableLink{
		raw:      raw,
		clock:    clock,
		stats:    stats,
		busyRef:  fb,
		cfg:      cfg,
		epoch:    nextRelEpoch(),
		nextSeq:  1,
		inflight: make(map[uint64]*relEntry),
		kick:     make(chan struct{}, 1),
	}
	r.cond = sync.NewCond(&r.mu)
	// No goroutine yet: the sender loop spawns on the first queued or
	// registered frame (wakeLocked) and exits when its work drains. A
	// fabric of 1000 mostly idle managed links therefore parks no
	// goroutines here.
	return r
}

// connRaw writes straight to the connection, bypassing the reliable
// wrapping Conn.Send applies once a link is attached.
type connRaw struct{ c *Conn }

func (l connRaw) Send(m *Message) error                         { return l.c.send(m) }
func (l connRaw) Request(t MsgType, b []byte) (*Message, error) { return l.c.request(t, b) }
func (l connRaw) Close() error                                  { return l.c.Close() }

// Send frames m with the next sequence number and hands it to the
// link's sender loop, which retransmits it until acked. Object frames
// join the send queue, with the overflow policy deciding what a full
// queue does; control frames are sequenced here, bypassing the queue
// and the window (see ReliableConfig.Window). Either way Send returns
// before the write: a write failure surfaces as the link's error.
func (r *ReliableLink) Send(m *Message) error {
	if m.Type == MsgObject {
		return r.enqueue(m)
	}
	// Control frames — correlated replies among them — skip the queue
	// and admit directly, mirroring the receive side's reply bypass. A
	// reply parked behind head-of-line-blocked data would deadlock the
	// link: the peer's in-order dispatch may be waiting on that very
	// reply, and no ack advances the window until the dispatch
	// returns.
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.admitControlLocked(); err != nil {
		return err
	}
	r.registerLocked(m, false)
	r.wakeLocked()
	return nil
}

// admitStepLocked performs one admission check for a frame of the
// given kind — the single statement of the rules both Send's
// control-frame path and the sender loop obey: the window must
// have room for data, the epoch rolls once the exhausted sequence
// space has drained, and the total in-flight backlog failing its cap
// kills the link with a typed *UnreachableError. wait=true asks the
// caller to wait and re-evaluate. Caller holds r.mu.
func (r *ReliableLink) admitStepLocked(isData bool) (wait bool, err error) {
	if r.closed {
		if r.err != nil {
			return false, r.err
		}
		return false, ErrClosed
	}
	if r.nextSeq == 0 {
		// Sequence space exhausted: drain the old epoch fully, then
		// roll to a fresh one so the receiver's reset can never skip
		// an undelivered frame.
		if len(r.inflight) > 0 {
			return true, nil
		}
		r.epoch = nextRelEpoch()
		r.nextSeq = 1
		r.acked = 0
	}
	if isData && r.inflightData >= r.cfg.Window {
		return true, nil
	}
	if len(r.inflight) >= r.maxInflightTotal() {
		if r.detached {
			// A parked link accumulates backlog by design; give-up is
			// the circuit breaker's call, not the admission rule's.
			return true, nil
		}
		// Control frames bypass the window, so on a blackholed link
		// (nothing acked, requests abandoned at the protocol layer)
		// they would otherwise accumulate forever — and a frame can
		// never be silently dropped without leaving a permanent gap
		// in the receiver's contiguity. A link this far behind
		// despite backoff has effectively given up: fail it,
		// releasing everything.
		giveUp := &UnreachableError{Pending: len(r.inflight), LastErr: r.lastSendErr}
		r.closeLocked(giveUp)
		return false, giveUp
	}
	return false, nil
}

// admitControlLocked blocks on the condition variable until
// admitStepLocked admits a control frame or fails the link. Caller
// holds r.mu.
func (r *ReliableLink) admitControlLocked() error {
	for {
		wait, err := r.admitStepLocked(false)
		if err != nil {
			return err
		}
		if !wait {
			return nil
		}
		r.cond.Wait()
	}
}

// registerLocked assigns the next sequence number to m, places the
// frame in the in-flight set and appends it to the unsent FIFO — in
// the same critical section, so the FIFO is in seq order and the
// sender loop writes first transmissions in that order. Caller holds
// r.mu and has passed admitStepLocked.
func (r *ReliableLink) registerLocked(m *Message, isData bool) {
	seq := r.nextSeq
	r.nextSeq++ // wraps to 0 at the end of the space: the admit sentinel
	e := &relEntry{seq: seq, data: isData, frame: encodeRelData(r.epoch, seq, m), owed: relFirst}
	r.inflight[seq] = e
	r.unsent = append(r.unsent, e)
	if isData {
		r.inflightData++
	}
}

// currentRTOLocked returns the retransmit timeout new frames start
// from: the Jacobson estimate once the link has an RTT sample,
// RetransmitTimeout before that. Caller holds r.mu.
func (r *ReliableLink) currentRTOLocked() time.Duration {
	if r.est.samples == 0 {
		return r.cfg.RetransmitTimeout
	}
	rto := r.est.rto()
	if rto < r.cfg.MinRTO {
		rto = r.cfg.MinRTO
	}
	if rto > r.cfg.MaxBackoff {
		rto = r.cfg.MaxBackoff
	}
	return rto
}

// enqueue appends object frame m to the bounded send queue, applying
// the overflow policy when it is full.
func (r *ReliableLink) enqueue(m *Message) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	for {
		if r.closed {
			if r.err != nil {
				return r.err
			}
			return ErrClosed
		}
		if len(r.queue) < r.cfg.SendQueue {
			break
		}
		if r.cfg.Overflow == OverflowError {
			return fmt.Errorf("%w: %d frames queued", ErrQueueFull, len(r.queue))
		}
		r.cond.Wait() // OverflowBlock
	}
	r.queue = append(r.queue, m)
	if len(r.queue) > r.queuePeak {
		r.queuePeak = len(r.queue)
	}
	r.wakeLocked()
	return nil
}

// sendLoop is the link's only writer. First transmissions, NACK
// repairs, timer resends and the resume replay all reach the raw link
// from here, so first transmissions hit the wire in the order their
// seqs were assigned. Each pass writes every frame ready at that
// moment in one write (see writeLocked). Spawned by wakeLocked, the
// loop exits once nothing is queued or in flight, or the link
// detaches (the resume replay respawns it) or closes; it clears
// active in the same critical section as the exit decision. One timer
// is re-armed across waits, so waking costs no allocation.
func (r *ReliableLink) sendLoop() {
	var timer Timer
	r.mu.Lock()
	for !r.closed && !r.detached {
		batch := r.batch[:0]
		for e := r.nextWriteLocked(); e != nil; e = r.nextWriteLocked() {
			batch = append(batch, e)
		}
		if len(batch) > 0 {
			r.writeLocked(batch)
			clear(batch)
			r.batch = batch[:0]
			continue
		}
		if len(r.inflight) == 0 {
			break // idle: an empty window admits any queued head, so the queue is empty too
		}
		now := r.clock.Now()
		next, gaveUp := r.expireLocked(now)
		if gaveUp != nil {
			r.closeLocked(gaveUp)
			break
		}
		if next.IsZero() {
			continue // a resend came due
		}
		// Waiting on a timer or an ack only: not runnable, or the
		// virtual clock could never reach the deadline that ends the
		// wait.
		r.updateRunnableLocked()
		r.mu.Unlock()
		if timer == nil {
			timer = r.clock.NewTimer(next.Sub(now))
		} else {
			timer.Reset(next.Sub(now))
		}
		select {
		case <-timer.C():
		case <-r.kick: // new work, an ack, a detach or a close
			timer.Stop()
		}
		r.mu.Lock()
	}
	r.active = false
	r.updateRunnableLocked() // skipping stale entries may have ended the work
	r.mu.Unlock()
}

// nextWriteLocked picks the frame the loop writes next: owed repairs
// first (lowest seq first — the receiver's drain waits on the lowest
// gap), then the unsent FIFO. When the FIFO is empty it admits the
// queued head into the sequence space, if the window lets it. Entries
// acked or rebuilt since they were listed are skipped. Caller holds
// r.mu.
func (r *ReliableLink) nextWriteLocked() *relEntry {
	for len(r.due) > 0 {
		if e := popFront(&r.due); r.inflight[e.seq] == e {
			return e
		}
	}
	if len(r.unsent) == 0 && len(r.queue) > 0 {
		if wait, err := r.admitStepLocked(true); !wait && err == nil {
			r.registerLocked(popFront(&r.queue), true)
			r.cond.Broadcast() // queue shrank: unblock full-queue enqueuers
		}
	}
	for len(r.unsent) > 0 {
		if e := popFront(&r.unsent); r.inflight[e.seq] == e {
			return e
		}
	}
	return nil
}

// relWriteCounters names the counter a frame's write feeds, by the
// write it was owed (a batch never holds a relWritten frame).
var relWriteCounters = [...]counter{
	relFirst:   cRelDataSent,
	relReplay:  cRelFramesReplayed,
	relTimeout: cRelRetransmits,
	relNacked:  cRelFastRetransmits,
}

// writeLocked puts batch on the wire in seq order, each frame for the
// write it is owed, arming its deadline. Over a Conn the whole batch
// is one raw write (one writev on a socket); any other Link gets one
// Send per frame. r.mu is released across the raw write — the read
// loop's Ack must never wait on the network — and held again on
// return. On success each frame counts under its own kind; a failed
// write counts none of them, and detaches a managed link (the window
// survives for the resume replay) or kills any other. Caller holds
// r.mu.
func (r *ReliableLink) writeLocked(batch []*relEntry) {
	var kinds [len(relWriteCounters)]uint64
	now := r.clock.Now()
	msgs := r.msgs[:0]
	for _, e := range batch {
		if e.owed == relFirst || e.owed == relReplay {
			e.sentAt = now
			e.backoff = r.currentRTOLocked()
		}
		kinds[e.owed]++
		e.owed = relWritten
		e.attempts++
		e.deadline = now.Add(e.backoff)
		msgs = append(msgs, Message{Type: MsgReliableData, Body: e.frame})
	}
	raw, gen := r.raw, r.rawGen
	r.writing = true // runnable until the frames are on the wire
	r.updateRunnableLocked()
	r.mu.Unlock()

	var err error
	if c, ok := raw.(connRaw); ok {
		err = c.c.write(msgs...)
	} else {
		for _, m := range msgs {
			if err = raw.Send(&m); err != nil {
				break
			}
		}
	}
	clear(msgs)
	r.msgs = msgs[:0]
	if err == nil {
		r.stats.add(cRelWrites, 1)
		for kind, n := range kinds {
			if n > 0 {
				r.stats.add(relWriteCounters[kind], n)
			}
		}
		r.retransmits.Add(kinds[relTimeout])
		r.fastRetransmits.Add(kinds[relNacked])
	}

	r.mu.Lock()
	r.writing = false
	if err != nil && gen == r.rawGen {
		if r.lastSendErr == nil {
			r.lastSendErr = err
		}
		if r.managed && !r.closed {
			r.detachLocked()
		} else {
			r.closeLocked(err)
		}
	}
	r.updateRunnableLocked()
}

// expireLocked marks every written frame whose deadline has passed by
// now as owed a timer resend, doubling its backoff up to MaxBackoff,
// and returns the earliest remaining deadline — zero once a resend
// came due. A frame that has used up MaxAttempts gives the link up
// instead. Caller holds r.mu.
func (r *ReliableLink) expireLocked(now time.Time) (time.Time, error) {
	var earliest time.Time
	for _, e := range r.inflight {
		if e.owed != relWritten {
			continue
		}
		if e.deadline.After(now) {
			if earliest.IsZero() || e.deadline.Before(earliest) {
				earliest = e.deadline
			}
			continue
		}
		if r.cfg.MaxAttempts > 0 && e.attempts >= r.cfg.MaxAttempts {
			return time.Time{}, &UnreachableError{
				Seq:      e.seq,
				Attempts: e.attempts,
				Pending:  len(r.inflight),
				LastErr:  r.lastSendErr,
			}
		}
		e.backoff = min(2*e.backoff, r.cfg.MaxBackoff)
		e.owed = relTimeout
		r.due = append(r.due, e)
	}
	if len(r.due) > 0 {
		sortBySeq(r.due)
		return time.Time{}, nil
	}
	return earliest, nil
}

// runnableLocked reports whether the sender loop has work it could
// perform right now: a frame to write (or one being written), or a
// queued head frame that the window (or epoch roll) would admit. It
// is the link's contribution to the virtual clock's busy probe — time
// must not advance past a request timeout while frames are still
// being put on the wire. A link waiting only on a timer or an ack is
// not runnable. Caller holds r.mu.
func (r *ReliableLink) runnableLocked() bool {
	switch {
	case r.closed || r.detached:
		// A detached link cannot progress until a redial lands, and
		// the redial's backoff timers need virtual time to advance —
		// so a parked pipeline must never report busy.
		return false
	case r.writing || len(r.unsent) > 0 || len(r.due) > 0:
		return true
	case len(r.queue) == 0, r.nextSeq == 0 && len(r.inflight) > 0:
		return false
	}
	return r.inflightData < r.cfg.Window
}

// updateRunnableLocked reconciles the link's contribution to the
// fabric's shared pipelines counter after any state change that could
// flip runnability: new work, a write, an ack, detach, close, resume.
// The counter replaces the per-link scan the fabric's busy probe used
// to do — O(1) loads at probe time, maintained here at the transition
// edges. Caller holds r.mu.
func (r *ReliableLink) updateRunnableLocked() {
	if r.busyRef == nil {
		return
	}
	now := r.runnableLocked()
	if now == r.wasRunnable {
		return
	}
	r.wasRunnable = now
	if now {
		r.busyRef.pipelines.Add(1)
	} else {
		r.busyRef.pipelines.Add(-1)
	}
}

// wakeLocked tells the sender loop its state changed — new work, an
// ack, a NACK, a detach or a close: it kicks a running loop to
// re-evaluate, or spawns one when there is work and none is alive,
// and reconciles the busy probe. Caller holds r.mu.
func (r *ReliableLink) wakeLocked() {
	r.updateRunnableLocked()
	switch {
	case r.active:
		select {
		case r.kick <- struct{}{}:
		default: // a kick is already pending
		}
	case !r.closed && !r.detached && (len(r.queue) > 0 || len(r.inflight) > 0):
		r.active = true
		go r.sendLoop()
	}
}

// Request passes through to the underlying link: correlated
// request/reply exchanges carry their own correlation and timeout.
// (Conn-attached reliable links route requests through the reliable
// channel at the Conn layer instead — see Conn.request.)
func (r *ReliableLink) Request(t MsgType, body []byte) (*Message, error) {
	r.mu.Lock()
	raw := r.raw
	r.mu.Unlock()
	return raw.Request(t, body)
}

// Ack processes a cumulative acknowledgement body, releasing every
// in-flight frame it covers and feeding the RTT estimator (Karn's
// rule: only frames transmitted exactly once produce samples).
// Conn-attached links are fed automatically from the connection's
// read loop.
func (r *ReliableLink) Ack(body []byte) {
	epoch, cum, err := decodeRelAck(body)
	if err != nil {
		return
	}
	now := r.clock.Now()
	r.mu.Lock()
	if r.closed || epoch != r.epoch || cum <= r.acked {
		r.mu.Unlock()
		return
	}
	r.acked = cum
	for seq, e := range r.inflight {
		if seq <= cum {
			delete(r.inflight, seq)
			if e.data {
				r.inflightData--
			}
			if e.attempts == 1 {
				r.est.observe(now.Sub(e.sentAt))
			}
		}
	}
	r.cond.Broadcast()
	if len(r.queue) > 0 || len(r.inflight) == 0 {
		// The window may admit the queued head, or the loop may go
		// idle. Otherwise the loop sleeps on: its timer was armed for
		// a deadline no later than any that remains, and an early
		// fire just rescans.
		r.wakeLocked()
	}
	r.mu.Unlock()
	r.acksReceived.Add(1)
	r.stats.add(cRelAcksReceived, 1)
}

// Nack processes a receiver gap report: every named seq on the wire
// and still in flight is owed a fast retransmit, which the sender
// loop writes ahead of new frames — the fast path that spares a
// single lost frame the full backoff wait. The frame's backoff is
// kept (a gap is a loss signal, not a congestion signal worth
// doubling for); the write re-arms its deadline so the timer does not
// double-fire right behind the repair. Conn-attached links are fed
// automatically from the connection's read loop, which therefore
// never writes a sender-side repair itself.
func (r *ReliableLink) Nack(body []byte) {
	epoch, seqs, err := decodeRelNack(body)
	if err != nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed || r.detached || epoch != r.epoch || !r.cfg.FastRetransmit {
		return
	}
	marked := false
	for _, seq := range seqs {
		e, ok := r.inflight[seq]
		if !ok || e.owed != relWritten {
			continue // already acked (a stale report), or a write is already owed
		}
		if r.cfg.MaxAttempts > 0 && e.attempts >= r.cfg.MaxAttempts {
			continue // the timer path owns give-up
		}
		e.owed = relNacked
		r.due = append(r.due, e)
		marked = true
	}
	if marked {
		sortBySeq(r.due)
		r.wakeLocked()
	}
}

// maxInflightTotal caps the whole in-flight set, control frames
// included — the memory bound for links that stop acking.
func (r *ReliableLink) maxInflightTotal() int {
	if n := 8 * r.cfg.Window; n > 256 {
		return n
	}
	return 256
}

// closeLocked marks the link dead, abandoning queued frames (counted
// in Stats.RelQueueAbandoned — the "flushed or reported" half of the
// shutdown contract) and waking every waiter. Caller holds r.mu.
func (r *ReliableLink) closeLocked(err error) {
	if r.closed {
		return
	}
	r.closed = true
	r.err = err
	if n := len(r.queue); n > 0 {
		r.queueAbandoned += uint64(n)
		r.stats.add(cRelQueueAbandoned, uint64(n))
		r.queue = nil
	}
	r.cond.Broadcast()
	r.wakeLocked()
}

// shutdown marks the link dead, unblocking window waiters and the
// sender loop.
func (r *ReliableLink) shutdown(err error) {
	r.mu.Lock()
	r.closeLocked(err)
	r.mu.Unlock()
}

// detachLocked parks a managed link across an outage: the loop exits,
// window and queue stay intact. Caller holds r.mu.
func (r *ReliableLink) detachLocked() {
	if r.detached {
		return
	}
	r.detached = true
	r.cond.Broadcast()
	r.wakeLocked()
}

// setManaged hands ownership of the link's lifecycle to a Remote:
// teardown detaches instead of closing. Called before traffic flows.
func (r *ReliableLink) setManaged() {
	r.mu.Lock()
	r.managed = true
	r.mu.Unlock()
}

// sessionEpoch returns the epoch a resume handshake should name.
func (r *ReliableLink) sessionEpoch() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.epoch
}

// isClosed reports whether the link has been killed (as opposed to
// detached); a quarantined Remote's carried link is dead and a redial
// must start fresh.
func (r *ReliableLink) isClosed() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.closed
}

// resume points a detached (or freshly failing) link at a new raw
// connection and rebuilds the unacked window as a replay. With
// sameEpoch the receiver still holds the session: frames at or below
// its advertised cumulative ack are released unsent and the rest
// retransmit under their old numbering. Otherwise the link rolls to a
// fresh epoch and renumbers the surviving window from seq 1 — the
// receiver's epoch reset then accepts the replay contiguously, and
// its saved-session dedup (resumeCum) suppresses anything it had
// already committed. The replay goes to the sender loop ahead of
// anything registered later; the return value counts the frames
// handed to it (Stats.RelFramesReplayed counts those written).
func (r *ReliableLink) resume(raw Link, sameEpoch bool, cum uint64) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return 0
	}
	r.raw = raw
	r.rawGen++
	if sameEpoch && cum > r.acked {
		r.acked = cum
	}
	if !sameEpoch {
		r.epoch = nextRelEpoch()
		r.acked = 0
	}
	old := make([]*relEntry, 0, len(r.inflight))
	for _, e := range r.inflight {
		old = append(old, e)
	}
	sortBySeq(old)
	// Build fresh entries rather than mutating the old ones: the loop
	// may still be writing an old frame to the previous raw link.
	replay := make([]*relEntry, 0, len(old))
	for _, e := range old {
		if sameEpoch && e.seq <= r.acked {
			continue
		}
		seq, frame := e.seq, e.frame
		if !sameEpoch {
			seq = uint64(len(replay) + 1)
			frame = append([]byte(nil), e.frame...)
			binary.BigEndian.PutUint64(frame[0:8], r.epoch)
			binary.BigEndian.PutUint64(frame[8:16], seq)
		}
		replay = append(replay, &relEntry{seq: seq, data: e.data, frame: frame, owed: relReplay})
	}
	if !sameEpoch {
		r.nextSeq = uint64(len(replay)) + 1
	}
	r.inflight = make(map[uint64]*relEntry, len(replay))
	r.inflightData = 0
	for _, e := range replay {
		r.inflight[e.seq] = e
		if e.data {
			r.inflightData++
		}
	}
	r.unsent = replay
	r.due = nil
	r.detached = false
	r.lastSendErr = nil
	r.cond.Broadcast()
	r.wakeLocked()
	return len(replay)
}

// stop halts the reliable machinery without closing the underlying
// link (the connection teardown paths own that). A managed link
// detaches instead: its Remote decides when the session truly dies.
func (r *ReliableLink) stop() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.managed && !r.closed {
		r.detachLocked()
		return
	}
	r.closeLocked(ErrClosed)
}

// Close stops the reliable machinery and closes the underlying link.
func (r *ReliableLink) Close() error {
	r.shutdown(ErrClosed)
	r.mu.Lock()
	raw := r.raw
	r.mu.Unlock()
	return raw.Close()
}

// ReliableLinkStats is a point-in-time snapshot of a sender's state.
type ReliableLinkStats struct {
	Epoch           uint64
	NextSeq         uint64
	Acked           uint64
	InFlight        int // all unacked frames
	InFlightData    int // unacked object frames (window occupancy)
	QueueDepth      int // object frames waiting in the send queue
	QueuePeak       int // high-water mark of the send queue
	QueueAbandoned  uint64
	SRTT            time.Duration // smoothed RTT (zero until sampled)
	RTTVar          time.Duration
	RTO             time.Duration // retransmit timeout new frames start from
	RTTSamples      uint64
	Retransmits     uint64
	FastRetransmits uint64
	AcksReceived    uint64
	// Detached reports a managed link parked across an outage,
	// awaiting a redial's resume replay.
	Detached bool
}

// Snapshot returns the sender's current counters.
func (r *ReliableLink) Snapshot() ReliableLinkStats {
	r.mu.Lock()
	s := ReliableLinkStats{
		Epoch:          r.epoch,
		NextSeq:        r.nextSeq,
		Acked:          r.acked,
		InFlight:       len(r.inflight),
		InFlightData:   r.inflightData,
		QueueDepth:     len(r.queue),
		QueuePeak:      r.queuePeak,
		QueueAbandoned: r.queueAbandoned,
		SRTT:           r.est.srtt,
		RTTVar:         r.est.rttvar,
		RTO:            r.currentRTOLocked(),
		RTTSamples:     r.est.samples,
		Detached:       r.detached,
	}
	r.mu.Unlock()
	s.Retransmits = r.retransmits.Load()
	s.FastRetransmits = r.fastRetransmits.Load()
	s.AcksReceived = r.acksReceived.Load()
	return s
}

var _ Link = (*ReliableLink)(nil)

// --- receiver ---------------------------------------------------------

// relRecvBuffer bounds out-of-order frames held per connection; a
// frame further ahead than this is dropped (the sender's retransmit
// recovers it once the window advances).
const relRecvBuffer = 1024

// relPending is one in-order frame awaiting dispatch. The (epoch,
// seq) ride along so the drain goroutine can advance the delivered
// watermark — and ack it — only after the handler returns. A nil m is
// a correlated reply already routed at receive time; its seq still
// counts toward the watermark when its turn comes.
type relPending struct {
	epoch, seq uint64
	m          *Message
}

// relReceiver is the receive half of the reliable layer: dedup,
// cumulative acks, gap-driven NACKs, and strictly in-order dispatch.
// One is armed on every Conn, so receiving needs no opt-in.
//
// The cumulative ack certifies delivery to the application, not
// arrival in the reorder buffer: deliv advances only after a frame's
// handler returns, and that is the watermark every ack carries. A
// receiver that crashes between receiving a frame and dispatching it
// has therefore never acknowledged it, so the sender's resume replay
// redelivers instead of losing it.
type relReceiver struct {
	stats *Stats

	mu          sync.Mutex
	epoch       uint64
	next        uint64 // next in-sequence seq to accept
	deliv       uint64 // contiguous prefix whose handlers have returned
	resumeCum   uint64 // adopted session's committed prefix, for replay dedup
	buf         map[uint64]*Message
	nacked      map[uint64]struct{} // gaps already reported this epoch
	pending     []relPending
	dispatching bool
	closed      bool       // sealed at conn teardown: no accepts, no dispatch
	idle        *sync.Cond // signalled when dispatching goes false

	dispatch func(*Message)                    // in-order request dispatch
	spawn    func(drain func())                // runs a drain off the accepting goroutine
	reply    func(*Message)                    // immediate correlated-reply routing
	ack      func(epoch, cum uint64)           // ack transmission
	nack     func(epoch uint64, seqs []uint64) // gap-report transmission (nil: disabled)
	drop     func(DropReason)                  // counts and reports a discarded frame
}

func newRelReceiver(stats *Stats, dispatch func(*Message), spawn func(drain func()), reply func(*Message), ack func(epoch, cum uint64), nack func(epoch uint64, seqs []uint64), drop func(DropReason)) *relReceiver {
	rr := &relReceiver{
		stats:    stats,
		next:     1,
		buf:      make(map[uint64]*Message),
		nacked:   make(map[uint64]struct{}),
		dispatch: dispatch,
		spawn:    spawn,
		reply:    reply,
		ack:      ack,
		nack:     nack,
		drop:     drop,
	}
	rr.idle = sync.NewCond(&rr.mu)
	return rr
}

// isRelReply reports whether an inner message is a correlated reply,
// which bypasses the in-order queue (see the package comment's
// deadlock argument).
func isRelReply(t MsgType) bool {
	switch t {
	case MsgTypeInfoReply, MsgCodeReply, MsgInvokeReply, MsgLookupReply, MsgError:
		return true
	}
	return false
}

// handleData accepts one MsgReliableData body: dedup, buffer,
// contiguity, gap detection and reply routing. The conn's read loop
// calls it in arrival order, so over an ordered stream a gap is real
// loss, never local reordering. It never runs a handler: when frames
// become deliverable and no drain is running, it hands one to spawn.
//
// Ack policy: fresh frames that land in order are acked by the drain
// once per delivered run — after the handler of the run's last frame
// returns — and not on receipt: a receipt ack would carry the stale
// delivered watermark, which the sender ignores. A duplicate, a frame
// too far ahead and a frame beyond a gap are acked on receipt (the
// re-ack repairs a lost drain ack), and a gap is also NACKed.
func (rr *relReceiver) handleData(body []byte) error {
	epoch, seq, inner, err := decodeRelData(body)
	if err != nil {
		return err
	}
	var replyNow *Message
	var missing []uint64
	var dropReason DropReason
	inOrder := false
	rr.mu.Lock()
	if rr.closed {
		// Sealed at teardown: the frame is neither accepted nor
		// acked, so the sender's replay redelivers it to whichever
		// conn succeeds this one.
		rr.mu.Unlock()
		return nil
	}
	if epoch < rr.epoch {
		// Ghost of a pre-restart sender: never redelivered, never
		// acked (the old sender is gone; acking would be noise).
		rr.mu.Unlock()
		rr.stats.add(cRelDeduped, 1)
		rr.drop(DropStaleEpoch)
		return nil
	}
	if epoch > rr.epoch {
		// A restarted (or seq-wrapped) sender: fresh sequence space.
		// Pending frames from the old epoch still dispatch (they were
		// contiguous when accepted); they carry their own epoch so
		// the drain never acks them under the new one.
		rr.epoch = epoch
		rr.next = 1
		rr.deliv = 0
		rr.resumeCum = 0
		rr.buf = make(map[uint64]*Message)
		rr.nacked = make(map[uint64]struct{})
	}
	_, buffered := rr.buf[seq]
	switch {
	case seq < rr.next || buffered:
		rr.stats.add(cRelDeduped, 1) // duplicate: suppressed, but re-acked below
		if seq <= rr.resumeCum {
			// A resume replay re-offering what the pre-outage session
			// already committed: its own accounting bucket, so churn
			// tests can tell replay dedup from wire-level duplicates.
			dropReason = DropResumeDuplicate
		}
	case seq-rr.next >= relRecvBuffer: // subtraction: safe near seq wrap
		// Too far ahead to hold; the ack below still reports where
		// the contiguous prefix ends, and retransmit recovers this.
	default:
		if isRelReply(inner.Type) {
			// Replies route immediately; a nil sentinel keeps the
			// seq accounted for dedup and contiguity.
			replyNow = inner
			rr.buf[seq] = nil
		} else {
			rr.buf[seq] = inner
		}
		for {
			m, ok := rr.buf[rr.next]
			if !ok {
				break
			}
			delete(rr.buf, rr.next)
			delete(rr.nacked, rr.next)
			rr.pending = append(rr.pending, relPending{epoch: rr.epoch, seq: rr.next, m: m})
			rr.next++
		}
		inOrder = seq < rr.next
		// Gap report: every seq below the newly buffered frame that
		// is still missing is NACKed, once per epoch — the sender
		// repairs immediately and its backoff timer stays armed as
		// the backstop for a lost report.
		if rr.nack != nil && !inOrder {
			for s := rr.next; s < seq && len(missing) < maxNackSeqs; s++ {
				if _, held := rr.buf[s]; held {
					continue
				}
				if _, reported := rr.nacked[s]; reported {
					continue
				}
				rr.nacked[s] = struct{}{}
				missing = append(missing, s)
			}
		}
	}
	cum := rr.deliv
	ackEpoch := rr.epoch
	runDispatch := false
	if len(rr.pending) > 0 && !rr.dispatching {
		rr.dispatching = true
		runDispatch = true
	}
	rr.mu.Unlock()

	if replyNow != nil {
		rr.reply(replyNow)
	}
	if dropReason != 0 {
		rr.drop(dropReason) // outside rr.mu: drop callbacks reach the observer
	}
	if !inOrder {
		rr.sendAck(ackEpoch, cum)
	}
	if len(missing) > 0 {
		rr.nack(ackEpoch, missing)
		rr.stats.add(cRelNacksSent, 1)
	}
	if runDispatch {
		rr.spawn(rr.drain)
	}
	return nil
}

// drain dispatches pending in-order messages until none remain. Only
// one drain runs at a time; receptions append under the lock while it
// runs, so dispatch order is exactly sequence order. After each handler
// returns the delivered watermark advances, and once per delivered run
// an ack carries it to the sender: a handler whose successor is
// already pending under the same epoch leaves the ack to that
// successor, whose cumulative ack covers both. So an ack never
// certifies a frame whose handler has not returned, and the drain
// never goes idle holding an unacked watermark. A seal mid-drain stops
// the loop after the in-flight dispatch; the seal carries the
// watermark to the resume, the remaining pending frames stay unacked
// and the sender's replay redelivers them.
func (rr *relReceiver) drain() {
	for {
		rr.mu.Lock()
		if rr.closed || len(rr.pending) == 0 {
			rr.pending = nil
			rr.dispatching = false
			rr.idle.Broadcast()
			rr.mu.Unlock()
			return
		}
		e := rr.pending[0]
		rr.pending[0] = relPending{}
		rr.pending = rr.pending[1:]
		rr.mu.Unlock()
		if e.m != nil {
			rr.dispatch(e.m)
		}
		rr.mu.Lock()
		ackNow := e.epoch == rr.epoch
		if ackNow && e.seq > rr.deliv {
			rr.deliv = e.seq
		}
		if len(rr.pending) > 0 && rr.pending[0].epoch == e.epoch {
			ackNow = false // the run goes on: the next handler's ack covers this one
		}
		cum := rr.deliv
		rr.mu.Unlock()
		if ackNow {
			rr.sendAck(e.epoch, cum)
		}
	}
}

// sendAck puts a cumulative ack on the wire and counts it.
func (rr *relReceiver) sendAck(epoch, cum uint64) {
	rr.ack(epoch, cum)
	rr.stats.add(cRelAcksSent, 1)
}

// session reports the receiver's current (epoch, next-to-deliver):
// the delivered prefix plus one, never the reorder buffer's high
// mark, so a session advertised to a resuming sender can never skip
// a frame whose handler did not run.
func (rr *relReceiver) session() (epoch, next uint64) {
	rr.mu.Lock()
	defer rr.mu.Unlock()
	return rr.epoch, rr.deliv + 1
}

// seal freezes the receiver at conn teardown and returns the session
// the owning peer should save. It waits out an in-flight dispatch —
// its frame counts as delivered once the handler returns — and drops
// the rest of the pending queue unacked, so the saved (epoch, next)
// names exactly the delivered prefix: a resumed replay neither skips
// an undelivered frame nor redelivers a delivered one.
func (rr *relReceiver) seal() (epoch, next uint64) {
	rr.mu.Lock()
	defer rr.mu.Unlock()
	rr.closed = true
	for rr.dispatching {
		rr.idle.Wait()
	}
	rr.pending = nil
	return rr.epoch, rr.deliv + 1
}

// sealIfWithin seals the receiver only when it holds the named
// epoch's session, returning its next-to-deliver. A resume handshake
// that adopts a session from a conn still live or tearing down must
// stop that conn's dispatch first — otherwise the predecessor would
// keep delivering past the point the handshake advertised, and the
// replay would duplicate into the same peer. The wait for an
// in-flight dispatch is bounded: the handler being waited out can
// itself be blocked on an exchange whose reply must arrive over the
// resuming conn, so on timeout the seal is rolled back — the
// receiver keeps its session, and frames refused while briefly
// sealed ride the sender's retransmit — and timedOut tells the
// handshake to answer found=false instead of deadlocking the peer.
func (rr *relReceiver) sealIfWithin(epoch uint64, clock Clock, timeout time.Duration) (next uint64, ok, timedOut bool) {
	rr.mu.Lock()
	defer rr.mu.Unlock()
	if rr.epoch != epoch {
		return 0, false, false
	}
	wasClosed := rr.closed
	rr.closed = true
	if rr.dispatching {
		var expired atomic.Bool
		timer := clock.NewTimer(timeout)
		watcherDone := make(chan struct{})
		go func() {
			select {
			case <-timer.C():
				expired.Store(true)
				rr.mu.Lock()
				rr.idle.Broadcast()
				rr.mu.Unlock()
			case <-watcherDone:
			}
		}()
		for rr.dispatching && !expired.Load() {
			rr.idle.Wait()
		}
		timer.Stop()
		close(watcherDone)
		if rr.dispatching {
			rr.closed = wasClosed
			return 0, false, true
		}
	}
	rr.pending = nil
	return rr.deliv + 1, true, false
}

// adopt installs a saved session's (epoch, next) on a fresh receiver
// so a resumed sender's replay continues where the pre-outage conn
// left off: frames at or below next-1 are suppressed into the
// resume-dedup bucket instead of being redelivered. Stale adoptions
// (the receiver has since seen a newer epoch, or is already further
// along) are ignored.
func (rr *relReceiver) adopt(epoch, next uint64) {
	rr.mu.Lock()
	defer rr.mu.Unlock()
	if rr.closed || epoch < rr.epoch || (epoch == rr.epoch && next <= rr.next) {
		return
	}
	rr.epoch = epoch
	rr.next = next
	rr.deliv = next - 1
	rr.resumeCum = next - 1
	rr.buf = make(map[uint64]*Message)
	rr.nacked = make(map[uint64]struct{})
}
