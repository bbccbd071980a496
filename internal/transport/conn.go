package transport

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
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

	// writeMu serializes frames onto rw; wbuf and wvec, guarded by it,
	// are the frame buffer and its per-frame views that write reuses
	// (wbuf kept only up to maxKeptWriteBuffer).
	writeMu sync.Mutex
	wbuf    []byte
	wvec    net.Buffers

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
		invokeSem: make(chan struct{}, p.invCfg.Workers),
		remote:    owner,
		done:      make(chan struct{}),
	}
	c.lastHeard.Store(p.clock.Now().UnixNano())
	c.pacer.init(c)
	c.rrecv = newRelReceiver(&p.stats,
		func(m *Message) { p.handleRequest(c, m) },
		func(f func()) { p.goHandler(func(*Peer, *Conn, *Message) { f() }, c, nil) },
		func(m *Message) { c.routeReply(m) },
		func(epoch, cum uint64, gaps []uint64) {
			var body [relAckMax]byte // the write copies it: no allocation
			_ = c.send(&Message{Type: MsgReliableAck, Body: appendRelAck(body[:0], epoch, cum, gaps)})
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

// Close tears the connection down and unblocks pending requests. Only
// the first of Close and the read loop's teardown tears the stream
// down; a later Close returns nil.
func (c *Conn) Close() error {
	if !c.failPending() {
		return nil
	}
	c.stopReliable()
	err := c.rw.Close()
	<-c.done
	c.peer.untrack(c)
	return err
}

// readLoop reads frames through one pooled buffered reader, so a
// burst of frames costs one read instead of two per frame. Over the
// fabric each read still returns at most one frame (frameBuffer.Read),
// so a frame this loop has not taken keeps the virtual clock busy.
//
// The loop only reads and routes, by msgClasses: a reply goes to its
// waiting request, a link frame to its onRead, and every other message
// to a handler goroutine. A handler may wait for a reply that only
// this loop can deliver (the receiver asks the sender for type info
// while handling an object), so the loop must never block — and it
// never writes, since a write can block on a peer that is not reading:
// pongs, receipt acks and shed invoke replies go out from handler
// goroutines too.
func (c *Conn) readLoop() {
	defer close(c.done)
	br := frameReaders.Get().(*bufio.Reader)
	br.Reset(c.rw)
	defer func() {
		br.Reset(nil)
		frameReaders.Put(br)
	}()
	for {
		m, n, err := ReadMessage(br)
		if err != nil {
			// The remote side died (EOF) or the stream broke: fail
			// pending exchanges and reap the connection, so a peer
			// whose counterpart crashed does not keep broadcasting
			// into a dead conn. The receiver's reliable session is
			// saved first, so a resuming sender can continue it
			// instead of replaying the committed prefix.
			c.failPending()
			c.stopReliable()
			c.rrecv.seal(0, nil, 0)
			c.peer.saveRelSession(c.rrecv.session())
			_ = c.rw.Close()
			c.peer.untrack(c)
			return
		}
		c.peer.stats.add(cBytesReceived, uint64(n))
		c.lastHeard.Store(c.peer.clock.Now().UnixNano())
		switch cl := m.Type.class(); {
		case cl.reply:
			c.routeReply(m)
		case cl.onRead != nil:
			cl.onRead(c.peer, c, m)
		default:
			c.peer.goHandler((*Peer).handleRequest, c, m)
		}
	}
}

// acceptData hands a reliable data frame to the receiver in arrival
// order, so it sees the stream's own order and never mistakes
// scheduling for loss. Accepting neither blocks nor writes: the
// in-order drain and any receipt ack run on handler goroutines.
func (p *Peer) acceptData(c *Conn, m *Message) { _ = c.rrecv.handleData(m.Body) }

// acceptAck applies feedback at once: window space frees the moment
// the frame arrives, and a reported gap is repaired before the backoff
// timer would fire. The sender loop does the writing.
func (p *Peer) acceptAck(c *Conn, m *Message) {
	if r := c.rel.Load(); r != nil {
		r.Ack(m.Body)
	}
}

// answerPing answers a heartbeat probe with a pong. Pong is raw, so it
// goes straight to the stream — liveness must not queue behind a
// stalled window — and it is written from a handler goroutine.
func (p *Peer) answerPing(c *Conn, m *Message) {
	p.goHandler(sendFrame, c, &Message{Type: MsgPong, Seq: m.Seq})
}

// sendFrame is a handler that writes a frame built on the read loop.
func sendFrame(_ *Peer, c *Conn, m *Message) { _ = c.Send(m) }

// handleResume answers a redialing sender's resume request: if this
// peer still holds the named reliable session — saved when the old
// conn died, or live on another conn — this conn's receiver adopts it
// and the reply advertises the last contiguous seq, so the sender
// replays only the unacked window. Otherwise found=false tells the
// sender to roll a fresh epoch and replay everything it still holds.
// It runs on a handler goroutine: the seal inside resumeSessionFor may
// wait out a predecessor conn's dispatch, which can itself be blocked
// on a reply that must arrive over this very conn.
func (p *Peer) handleResume(c *Conn, m *Message) {
	epoch, err := decodeResumeReq(m.Body)
	if err == nil {
		// Parked: the seal inside resumeSessionFor resolves through
		// another handler's return or its own clock-backed timeout, so
		// this wait must not hold the virtual clock still.
		p.park()
		next, ok := p.resumeSessionFor(epoch, c)
		p.unpark()
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

// failPending marks the conn closed, settles every pending exchange
// and closes the invoke pacer. It reports whether the conn was still
// open, so only the first of Close and the read loop's teardown goes
// on to tear the stream down.
func (c *Conn) failPending() bool {
	c.mu.Lock()
	wasOpen := !c.closed
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
	return wasOpen
}

// maxKeptWriteBuffer caps the frame buffer a conn keeps between
// writes, so one large code reply does not pin its size for the
// conn's lifetime.
const maxKeptWriteBuffer = 64 << 10

// send writes a one-way message.
func (c *Conn) send(m *Message) error { return c.write(*m) }

// write puts msgs on the wire, each as one whole frame, in order. The
// frames are appended into the conn's frame buffer and handed to one
// net.Buffers.WriteTo: a single writev on a socket, and one Write per
// frame on a conn without vectored writes (fabric endpoints,
// net.Pipe), so a frame-oriented transport still sees exactly one
// protocol frame per Write. A write that fails because the stream is
// closed, by either side, reports ErrClosed.
func (c *Conn) write(msgs ...Message) error {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	buf := c.wbuf[:0]
	for i := range msgs {
		var err error
		if buf, err = appendFrame(buf, &msgs[i]); err != nil {
			return err
		}
	}
	vec, start := c.wvec[:0], 0
	for i := range msgs {
		end := start + frameHeaderSize + len(msgs[i].Body)
		vec = append(vec, buf[start:end:end])
		start = end
	}
	if cap(buf) <= maxKeptWriteBuffer {
		c.wbuf = buf
	}
	c.wvec = vec
	n, err := c.wvec.WriteTo(c.rw) // consumes c.wvec's views
	clear(vec)
	c.wvec = vec[:0]
	c.peer.stats.add(cBytesSent, uint64(n))
	if err == nil {
		return nil
	}
	err = fmt.Errorf("transport: write frame: %w", err)
	if errors.Is(err, io.ErrClosedPipe) || errors.Is(err, net.ErrClosed) || c.isClosed() {
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
	b := make([]byte, 0, len(ref.Name)+1+36)
	b = append(b, ref.Name...)
	b = append(b, 0)
	return ref.Identity.AppendText(b)
}

// decodeRef parses a TypeRef request body: the name, a NUL, and the
// identity's text.
func decodeRef(body []byte) (typedesc.TypeRef, error) {
	i := bytes.IndexByte(body, 0)
	if i < 0 {
		return typedesc.TypeRef{}, fmt.Errorf("%w: bad type ref", ErrBadFrame)
	}
	var id guid.GUID
	if err := id.UnmarshalText(body[i+1:]); err != nil {
		return typedesc.TypeRef{}, fmt.Errorf("%w: bad type ref identity", ErrBadFrame)
	}
	return typedesc.TypeRef{Name: string(body[:i]), Identity: id}, nil
}
