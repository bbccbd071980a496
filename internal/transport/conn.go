package transport

import (
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pti/internal/guid"
	"pti/internal/typedesc"
)

// Connection errors.
var (
	ErrClosed         = errors.New("transport: connection closed")
	ErrRequestTimeout = errors.New("transport: request timed out")
	ErrRemote         = errors.New("transport: remote error")
)

// Conn is one bidirectional link between two peers. All protocol
// exchanges of Figure 1 run over a Conn; requests are correlated by
// sequence number so concurrent exchanges interleave safely.
type Conn struct {
	peer *Peer
	rw   net.Conn

	// writeMu serializes frames onto rw; wbuf, guarded by it, is the
	// frame buffer send reuses (kept only up to maxKeptWriteBuffer).
	writeMu sync.Mutex
	wbuf    []byte

	mu      sync.Mutex
	nextSeq uint64
	pending map[uint64]*pendingReply
	closed  bool

	// pacer admission-controls the client side of the pipelined invoke
	// path; invokeSem and invokeQueued bound the server side (see
	// invoke.go).
	pacer        invokePacer
	invokeSem    chan struct{}
	invokeQueued atomic.Int64

	// rel is the attached reliable sender (nil unless the peer was
	// built WithReliableLinks or NewReliableLink wrapped this conn);
	// rrecv is the always-armed reliable receiver, so only the
	// sending side has to opt in.
	rel   atomic.Pointer[ReliableLink]
	rrecv *relReceiver

	// remote is the managing Remote when this conn belongs to a
	// lifecycle-managed link (see health.go); Broadcast skips such
	// conns because the Remote's send path owns them. lastHeard is
	// the clock instant of the last frame read off the wire — the
	// failure detector's liveness signal (any frame counts, so acks
	// piggyback as heartbeats while traffic flows).
	remote    *Remote
	lastHeard atomic.Int64 // Clock.Now().UnixNano()

	done chan struct{}
}

func newConn(p *Peer, rw net.Conn) *Conn { return newConnWith(p, rw, nil, nil) }

// newConnWith builds a connection, optionally re-attaching a carried
// reliable sender (a redial resuming a detached session) and binding
// the conn to its managing Remote.
func newConnWith(p *Peer, rw net.Conn, rel *ReliableLink, owner *Remote) *Conn {
	c := &Conn{
		peer:      p,
		rw:        rw,
		pending:   make(map[uint64]*pendingReply),
		invokeSem: make(chan struct{}, p.invCfg.workers()),
		remote:    owner,
		done:      make(chan struct{}),
	}
	c.lastHeard.Store(p.clock.Now().UnixNano())
	c.pacer.init(c)
	c.rrecv = newRelReceiver(&p.stats,
		func(m *Message) { p.handleRequest(c, m) },
		p.goHandler,
		func(m *Message) { c.routeReply(m) },
		func(epoch, cum uint64) {
			_ = c.send(&Message{Type: MsgReliableAck, Body: encodeRelAck(epoch, cum)})
		},
		func(epoch uint64, seqs []uint64) {
			_ = c.send(&Message{Type: MsgReliableNack, Body: encodeRelNack(epoch, seqs)})
		},
		func(r DropReason) { p.drop(r, typedesc.TypeRef{}, nil) })
	var created *ReliableLink
	switch {
	case rel != nil:
		c.rel.Store(rel)
	case p.relCfg != nil:
		created = newReliableLink(connRaw{c}, p.clock, &p.stats, p.busyRef, *p.relCfg)
		if owner != nil {
			created.setManaged()
		}
		c.rel.Store(created)
	}
	if !p.track(c) {
		// The peer closed while we were being built — a late accept,
		// or a redial racing Peer.Close. Tear down promptly and never
		// start the read loop, so nothing leaks past Close. A carried
		// reliable link is left to its owning Remote's shutdown.
		c.mu.Lock()
		c.closed = true
		c.mu.Unlock()
		if created != nil {
			created.shutdown(ErrClosed)
		}
		_ = rw.Close()
		close(c.done)
		return c
	}
	go c.readLoop()
	return c
}

// ReliableSnapshot returns the attached reliable sender's counters
// (queue depth, RTO estimate, retransmit counts), reporting false
// when the connection sends unreliably.
func (c *Conn) ReliableSnapshot() (ReliableLinkStats, bool) {
	if r := c.rel.Load(); r != nil {
		return r.Snapshot(), true
	}
	return ReliableLinkStats{}, false
}

// RemoteLabel names the other end of the connection for diagnostics:
// the remote network address (a fabric node name on simulated links).
func (c *Conn) RemoteLabel() string {
	if addr := c.rw.RemoteAddr(); addr != nil {
		return addr.String()
	}
	return "unknown"
}

// stopReliable halts the attached reliable sender (if any) so window
// waiters and retransmit timers die with the connection.
func (c *Conn) stopReliable() {
	if r := c.rel.Load(); r != nil {
		r.stop()
	}
}

// Close tears the connection down and unblocks pending requests.
func (c *Conn) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	settled := make([]*pendingReply, 0, len(c.pending))
	for seq, pr := range c.pending {
		close(pr.ch)
		settled = append(settled, pr)
		delete(c.pending, seq)
	}
	c.mu.Unlock()
	for _, pr := range settled {
		pr.settled()
	}
	c.pacer.close()
	c.stopReliable()
	err := c.rw.Close()
	<-c.done
	c.peer.untrack(c)
	return err
}

func (c *Conn) readLoop() {
	defer close(c.done)
	for {
		m, n, err := ReadMessage(c.rw)
		if err != nil {
			// The remote side died (EOF) or the stream broke: fail
			// pending exchanges and reap the connection, so a peer
			// whose counterpart crashed does not keep broadcasting
			// into a dead conn. The receiver's reliable session is
			// saved first, so a resuming sender can continue it
			// instead of replaying the committed prefix.
			c.failPending()
			c.stopReliable()
			c.peer.saveRelSession(c.rrecv.seal())
			_ = c.rw.Close()
			c.peer.untrack(c)
			return
		}
		c.peer.stats.add(cBytesReceived, uint64(n))
		c.lastHeard.Store(c.peer.clock.Now().UnixNano())
		switch m.Type {
		case MsgTypeInfoReply, MsgCodeReply, MsgInvokeReply, MsgLookupReply, MsgError, MsgResumeReply:
			c.routeReply(m)
		case MsgPing:
			// Heartbeat probe: answer in place on the raw stream —
			// liveness must not queue behind a stalled window.
			_ = c.send(&Message{Type: MsgPong, Seq: m.Seq})
		case MsgPong:
			// The read itself refreshed lastHeard; nothing else to do.
		case MsgResumeRequest:
			// The handshake may wait out a predecessor conn's in-flight
			// dispatch (resumeSessionFor's seal), and that handler can
			// itself be blocked on a reply that must arrive over this
			// very conn — so the answer must come off the read loop.
			c.peer.handleAsync(c, m)
		case MsgReliableAck:
			// Acks are cheap and order-insensitive: route them
			// synchronously so window space frees the moment the
			// frame arrives.
			if r := c.rel.Load(); r != nil {
				r.Ack(m.Body)
			}
		case MsgReliableNack:
			// Gap reports route synchronously too: the whole point of
			// fast retransmit is repairing the gap before the backoff
			// timer would.
			if r := c.rel.Load(); r != nil {
				r.Nack(m.Body)
			}
		case MsgReliableData:
			// Accepted here, in arrival order, so the receiver sees the
			// stream's own order and never mistakes scheduling for
			// loss. Accepting never blocks on a handler: the in-order
			// drain runs on a handler goroutine of its own.
			_ = c.rrecv.handleData(m.Body)
		default:
			// Requests may themselves wait for replies on this
			// connection (the receiver asks the sender for type
			// info while handling an object), so they must not
			// block the read loop.
			c.peer.handleAsync(c, m)
		}
	}
}

// handleResume answers a redialing sender's resume request (off the
// read loop — see the MsgResumeRequest routing): if this peer still
// holds the named reliable session — saved when the old conn died, or
// live on another conn — this conn's receiver adopts it and the reply
// advertises the last contiguous seq, so the sender replays only the
// unacked window. Otherwise found=false tells the sender to roll a
// fresh epoch and replay everything it still holds.
func (c *Conn) handleResume(m *Message) {
	epoch, err := decodeResumeReq(m.Body)
	if err == nil {
		// Parked: the seal inside resumeSessionFor resolves through
		// another handler's return or its own clock-backed timeout, so
		// this wait must not hold the virtual clock still.
		c.peer.park()
		next, ok := c.peer.resumeSessionFor(epoch, c)
		c.peer.unpark()
		if ok {
			c.rrecv.adopt(epoch, next)
			_ = c.reply(m, MsgResumeReply, encodeResumeReply(epoch, next-1, true))
			return
		}
	}
	_ = c.reply(m, MsgResumeReply, encodeResumeReply(0, 0, false))
}

// routeReply hands a correlated reply to its waiting request, both
// for raw replies read off the wire and for replies unwrapped from
// reliable data frames.
func (c *Conn) routeReply(m *Message) {
	c.mu.Lock()
	pr, ok := c.pending[m.Seq]
	if ok {
		delete(c.pending, m.Seq)
	}
	c.mu.Unlock()
	if ok {
		pr.ch <- m
		pr.settled()
	}
}

func (c *Conn) failPending() {
	c.mu.Lock()
	c.closed = true
	settled := make([]*pendingReply, 0, len(c.pending))
	for seq, pr := range c.pending {
		close(pr.ch)
		settled = append(settled, pr)
		delete(c.pending, seq)
	}
	c.mu.Unlock()
	for _, pr := range settled {
		pr.settled()
	}
	c.pacer.close()
}

// maxKeptWriteBuffer caps the frame buffer a conn keeps between
// sends, so one large code reply does not pin its size for the
// conn's lifetime.
const maxKeptWriteBuffer = 64 << 10

// send writes a one-way message. A write that fails because the
// stream is closed, by either side, reports ErrClosed.
func (c *Conn) send(m *Message) error {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	frame, err := appendFrame(c.wbuf[:0], m)
	if err != nil {
		return err
	}
	if cap(frame) <= maxKeptWriteBuffer {
		c.wbuf = frame
	}
	n, err := writeFrame(c.rw, frame)
	c.peer.stats.add(cBytesSent, uint64(n))
	if err != nil && (errors.Is(err, io.ErrClosedPipe) || errors.Is(err, net.ErrClosed) || c.isClosed()) {
		return fmt.Errorf("%w: %w", ErrClosed, err)
	}
	return err
}

func (c *Conn) isClosed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closed
}

// reply answers a request, echoing its sequence number. Replies ride
// the reliable channel when one is attached (they bypass the
// receiver's in-order queue, so a blocked dispatch cannot deadlock
// the exchange).
func (c *Conn) reply(req *Message, t MsgType, body []byte) error {
	return c.Send(&Message{Type: t, Seq: req.Seq, Body: body})
}

// replyError answers a request with an error message. Known sentinels
// in the error's chain travel as a structured code (errcode.go), so
// the caller rehydrates the identity instead of a flattened string.
func (c *Conn) replyError(req *Message, err error) error {
	return c.reply(req, MsgError, encodeWireError(err))
}

// pendingReply is one half-open request/reply exchange: registered by
// startRequest, resolved by await. The optional onSettle hook runs
// exactly once when the exchange stops occupying the wire — reply
// routed, connection failed, or locally abandoned — which is what the
// invoke pacer's window counts (not when the caller gets around to
// collecting the result).
type pendingReply struct {
	c       *Conn
	seq     uint64
	msgType MsgType
	ch      chan *Message
	sentAt  time.Time

	once     sync.Once
	onSettle func()
}

func (pr *pendingReply) settled() {
	pr.once.Do(func() {
		if pr.onSettle != nil {
			pr.onSettle()
		}
	})
}

// abandon removes a pending exchange (timeout, peer close) and runs
// its settle hook; a reply racing in after removal is dropped by
// routeReply's map lookup, so the hook cannot fire twice.
func (c *Conn) abandon(pr *pendingReply) {
	c.mu.Lock()
	delete(c.pending, pr.seq)
	c.mu.Unlock()
	pr.settled()
}

// startRequest registers a correlated exchange and sends the request,
// without waiting for the reply — the pipelined half of request. On
// error the settle hook has already run.
func (c *Conn) startRequest(t MsgType, body []byte, onSettle func()) (*pendingReply, error) {
	fail := func(err error) (*pendingReply, error) {
		if onSettle != nil {
			onSettle()
		}
		return nil, err
	}
	select {
	case <-c.peer.closeCh:
		return fail(ErrPeerClosed)
	default:
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return fail(ErrClosed)
	}
	c.nextSeq++
	seq := c.nextSeq
	pr := &pendingReply{
		c:        c,
		seq:      seq,
		msgType:  t,
		ch:       make(chan *Message, 1),
		sentAt:   c.peer.clock.Now(),
		onSettle: onSettle,
	}
	c.pending[seq] = pr
	c.mu.Unlock()

	// Requests ride the reliable channel when one is attached, so a
	// lossy link costs a retransmit interval instead of a lost round
	// trip; the await timeout stays as the failsafe.
	if err := c.Send(&Message{Type: t, Seq: seq, Body: body}); err != nil {
		c.abandon(pr)
		return nil, err
	}
	return pr, nil
}

// await blocks until the exchange resolves. The timeout budget runs
// from the send, not from await, so collecting a pipelined reply late
// does not extend its deadline.
func (pr *pendingReply) await() (*Message, error) {
	c := pr.c
	timer := c.peer.clock.NewTimer(c.peer.requestTimeout - c.peer.clock.Now().Sub(pr.sentAt))
	defer timer.Stop()
	select {
	case m, ok := <-pr.ch:
		if !ok {
			return nil, ErrClosed
		}
		if m.Type == MsgError {
			return nil, decodeWireError(m.Body)
		}
		return m, nil
	case <-c.peer.closeCh:
		c.abandon(pr)
		return nil, fmt.Errorf("%w: %s", ErrPeerClosed, pr.msgType)
	case <-timer.C():
		c.abandon(pr)
		return nil, fmt.Errorf("%w: %s", ErrRequestTimeout, pr.msgType)
	}
}

// request performs a correlated request/reply exchange. It fails fast
// with ErrPeerClosed the moment the owning peer shuts down — an
// in-flight description or code fetch must never hold Peer.Close
// hostage for the full request timeout (crash/restart schedules in
// the simulation fabric hit this constantly).
func (c *Conn) request(t MsgType, body []byte) (*Message, error) {
	pr, err := c.startRequest(t, body, nil)
	if err != nil {
		return nil, err
	}
	return pr.await()
}

// encodeRef renders a TypeRef for request bodies.
func encodeRef(ref typedesc.TypeRef) []byte {
	return []byte(ref.Name + "\x00" + ref.Identity.String())
}

// decodeRef parses a TypeRef request body.
func decodeRef(body []byte) (typedesc.TypeRef, error) {
	parts := strings.SplitN(string(body), "\x00", 2)
	if len(parts) != 2 {
		return typedesc.TypeRef{}, fmt.Errorf("%w: bad type ref", ErrBadFrame)
	}
	id, err := guid.Parse(parts[1])
	if err != nil {
		return typedesc.TypeRef{}, fmt.Errorf("%w: bad type ref identity", ErrBadFrame)
	}
	return typedesc.TypeRef{Name: parts[0], Identity: id}, nil
}
