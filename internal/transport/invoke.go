package transport

import (
	"fmt"
	"strconv"
	"sync"
	"time"

	"pti/internal/typedesc"
)

// InvokeConfig tunes the pipelined invoke path. The server side of a
// connection executes up to Workers invocations concurrently and
// parks up to QueueDepth more; anything beyond that is shed with an
// ErrInvokeQueueFull reply instead of queueing without bound. The
// client side caps its own in-flight invokes at MaxInflight, shrunk
// further to PacingBudget/SRTT once the reliable link has an RTT
// estimate, so a slow link is never asked to hold more requests than
// it can turn around within the budget. NewPeer sets the defaults; the
// options only replace them with valid values.
type InvokeConfig struct {
	Workers      int           // concurrent executions per connection (default 16)
	QueueDepth   int           // waiting invokes beyond Workers before shedding (default 128)
	MaxInflight  int           // client-side in-flight cap per connection (default 64)
	PacingBudget time.Duration // SRTT-derived window: at most budget/SRTT in flight (0 = off)
}

// WithInvokeConcurrency bounds the server side of the invoke path:
// workers concurrent executions per connection, queueDepth waiting
// beyond that, everything else shed with ErrInvokeQueueFull. A
// non-positive workers or a negative queueDepth keeps the default.
func WithInvokeConcurrency(workers, queueDepth int) PeerOption {
	return func(p *Peer) {
		if workers > 0 {
			p.invCfg.Workers = workers
		}
		if queueDepth >= 0 {
			p.invCfg.QueueDepth = queueDepth
		}
	}
}

// WithInvokePacing bounds the client side: at most maxInflight
// invokes in flight per connection (a non-positive maxInflight keeps
// the default), shrunk to budget/SRTT once the connection's reliable
// link has sampled the round trip (budget 0 disables the SRTT term).
// A full window blocks the caller until a slot frees.
func WithInvokePacing(maxInflight int, budget time.Duration) PeerOption {
	return func(p *Peer) {
		if maxInflight > 0 {
			p.invCfg.MaxInflight = maxInflight
		}
		p.invCfg.PacingBudget = budget
	}
}

// invokePacer admission-controls one connection's outbound invokes.
// A slot is held from CallAsync until the exchange settles (reply
// arrived, failed, or abandoned) — deliberately not until Wait, so a
// caller slow to collect results does not starve the pipeline.
type invokePacer struct {
	c        *Conn
	mu       sync.Mutex
	cond     *sync.Cond
	inflight int
	closed   bool
	// releaseFn is release bound once, so handing it to each
	// exchange allocates no closure.
	releaseFn func()
}

func (pc *invokePacer) init(c *Conn) {
	pc.c = c
	pc.cond = sync.NewCond(&pc.mu)
	pc.releaseFn = pc.release
}

// window is the current in-flight allowance: MaxInflight, tightened
// to PacingBudget/SRTT when the reliable link has an RTT estimate.
// Unreliable connections have no estimator and keep the static cap.
func (pc *invokePacer) window() int {
	cfg := pc.c.peer.invCfg
	lim := cfg.MaxInflight
	if cfg.PacingBudget > 0 {
		if st, ok := pc.c.ReliableSnapshot(); ok && st.RTTSamples > 0 && st.SRTT > 0 {
			if w := int(cfg.PacingBudget / st.SRTT); w < lim {
				lim = w
			}
		}
	}
	if lim < 1 {
		lim = 1
	}
	return lim
}

func (pc *invokePacer) acquire() error {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	for {
		if pc.closed {
			return ErrClosed
		}
		if pc.inflight < pc.window() {
			pc.inflight++
			return nil
		}
		pc.cond.Wait()
	}
}

func (pc *invokePacer) release() {
	pc.mu.Lock()
	pc.inflight--
	pc.cond.Broadcast()
	pc.mu.Unlock()
}

func (pc *invokePacer) close() {
	pc.mu.Lock()
	pc.closed = true
	pc.cond.Broadcast()
	pc.mu.Unlock()
}

// dispatchInvoke admission-controls one incoming MsgInvokeRequest.
// It never blocks, so the read loop runs it in place. Each accepted
// invoke runs on its own handler goroutine gated by the connection's
// worker semaphore, so a slow method head-of-line-blocks neither the
// read loop nor faster invokes behind it (replies correlate by seq and
// complete out of order). Anything past the worker+queue budget is shed
// immediately with a coded ErrInvokeQueueFull reply — the backpressure
// signal callers can match with errors.Is — written, like every reply,
// from a handler goroutine.
func (p *Peer) dispatchInvoke(c *Conn, m *Message) {
	limit := int64(cap(c.invokeSem) + p.invCfg.QueueDepth)
	if depth := c.invokeQueued.Add(1); depth > limit {
		c.invokeQueued.Add(-1)
		p.step(cInvokesShed, EventInvokeShed, typedesc.TypeRef{},
			"depth ", strconv.FormatInt(depth, 10), " over ", strconv.FormatInt(limit, 10))
		shed := fmt.Errorf("%w: %d invokes pending on %s", ErrInvokeQueueFull, depth-1, p.name)
		p.goHandler(sendFrame, c, &Message{Type: MsgError, Seq: m.Seq, Body: encodeWireError(shed)})
		return
	}
	p.goHandler((*Peer).runInvoke, c, m)
}

// runInvoke waits for a worker slot, parked because a queued invoke
// makes no progress of its own, and then executes the invoke.
func (p *Peer) runInvoke(c *Conn, m *Message) {
	defer c.invokeQueued.Add(-1)
	p.park()
	select {
	case c.invokeSem <- struct{}{}:
	case <-c.done:
		p.unpark()
		return
	case <-p.closeCh:
		p.unpark()
		return
	}
	p.unpark()
	defer func() { <-c.invokeSem }()
	p.handleInvoke(c, m)
}

// Pause blocks for d on the peer's clock, parked so a virtual-clock
// fabric advances through the wait. It is the way for an exported
// method to model service time in simulation (a plain time.Sleep
// would stall the virtual clock instead of consuming it); under the
// wall clock it is equivalent to time.Sleep with shutdown wakeup.
func (p *Peer) Pause(d time.Duration) {
	if d <= 0 {
		return
	}
	p.park()
	defer p.unpark()
	t := p.clock.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C():
	case <-p.closeCh:
	}
}
