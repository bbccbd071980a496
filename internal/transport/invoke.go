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
// it can turn around within the budget.
type InvokeConfig struct {
	Workers      int           // concurrent executions per connection (default 16)
	QueueDepth   int           // waiting invokes beyond Workers before shedding (default 128)
	MaxInflight  int           // client-side in-flight cap per connection (default 64)
	PacingBudget time.Duration // SRTT-derived window: at most budget/SRTT in flight (0 = off)
	FailFast     bool          // full client window errors instead of blocking
}

const (
	defaultInvokeWorkers     = 16
	defaultInvokeQueueDepth  = 128
	defaultInvokeMaxInflight = 64
)

func (cfg InvokeConfig) workers() int {
	if cfg.Workers > 0 {
		return cfg.Workers
	}
	return defaultInvokeWorkers
}

func (cfg InvokeConfig) queueDepth() int {
	if cfg.QueueDepth >= 0 {
		return cfg.QueueDepth
	}
	return defaultInvokeQueueDepth
}

func (cfg InvokeConfig) maxInflight() int {
	if cfg.MaxInflight > 0 {
		return cfg.MaxInflight
	}
	return defaultInvokeMaxInflight
}

// WithInvokeConcurrency bounds the server side of the invoke path:
// workers concurrent executions per connection, queueDepth waiting
// beyond that, everything else shed with ErrInvokeQueueFull. A
// negative queueDepth selects the default.
func WithInvokeConcurrency(workers, queueDepth int) PeerOption {
	return func(p *Peer) {
		p.invCfg.Workers = workers
		p.invCfg.QueueDepth = queueDepth
	}
}

// WithInvokePacing bounds the client side: at most maxInflight
// invokes in flight per connection, shrunk to budget/SRTT once the
// connection's reliable link has sampled the round trip (budget 0
// disables the SRTT term). A full window blocks the caller unless
// WithInvokeFailFast is set.
func WithInvokePacing(maxInflight int, budget time.Duration) PeerOption {
	return func(p *Peer) {
		p.invCfg.MaxInflight = maxInflight
		p.invCfg.PacingBudget = budget
	}
}

// WithInvokeFailFast makes a full client-side pacing window return
// ErrInvokeQueueFull immediately instead of blocking until a slot
// frees — the load-shed hint without a round trip.
func WithInvokeFailFast() PeerOption {
	return func(p *Peer) { p.invCfg.FailFast = true }
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
}

func (pc *invokePacer) init(c *Conn) {
	pc.c = c
	pc.cond = sync.NewCond(&pc.mu)
}

// window is the current in-flight allowance: MaxInflight, tightened
// to PacingBudget/SRTT when the reliable link has an RTT estimate.
// Unreliable connections have no estimator and keep the static cap.
func (pc *invokePacer) window() int {
	cfg := pc.c.peer.invCfg
	lim := cfg.maxInflight()
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
		if pc.c.peer.invCfg.FailFast {
			return fmt.Errorf("%w: %d invokes in flight to %s",
				ErrInvokeQueueFull, pc.inflight, pc.c.RemoteLabel())
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

// dispatchInvoke admission-controls and schedules one incoming
// MsgInvokeRequest. Each accepted invoke runs on its own goroutine
// gated by the connection's worker semaphore, so a slow method
// head-of-line-blocks neither the read loop nor faster invokes behind
// it (replies correlate by seq and complete out of order). Anything
// past the worker+queue budget is shed immediately with a coded
// ErrInvokeQueueFull reply — the backpressure signal callers can
// match with errors.Is.
func (p *Peer) dispatchInvoke(c *Conn, m *Message) {
	limit := int64(cap(c.invokeSem) + p.invCfg.queueDepth())
	if depth := c.invokeQueued.Add(1); depth > limit {
		c.invokeQueued.Add(-1)
		p.step(cInvokesShed, EventInvokeShed, typedesc.TypeRef{},
			"depth ", strconv.FormatInt(depth, 10), " over ", strconv.FormatInt(limit, 10))
		_ = c.replyError(m, fmt.Errorf("%w: %d invokes pending on %s",
			ErrInvokeQueueFull, depth-1, p.name))
		return
	}
	// A handler like any other (handlerEnter), whose semaphore wait is
	// parked because a queued invoke makes no progress of its own.
	p.handlerEnter()
	go func() {
		defer p.handlerExit()
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
	}()
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
