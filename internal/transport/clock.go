package transport

import (
	"container/heap"
	"sync"
	"sync/atomic"
	"time"
)

// Clock abstracts the flow of time for everything in this package that
// waits: fabric link delays, request timeouts, and the reliable
// layer's retransmit timers. The default is the wall clock; a fabric
// in virtual-clock mode (WithVirtualClock) swaps in a discrete event
// clock that jumps straight to the next scheduled deadline, so soak
// runs spend no real time sleeping through injected latency.
type Clock interface {
	// Now returns the clock's current time.
	Now() time.Time
	// NewTimer returns a timer that fires once after d.
	NewTimer(d time.Duration) Timer
	// Until returns the duration from Now until t.
	Until(t time.Time) time.Duration
}

// Timer is the stoppable one-shot timer surface both clocks provide.
type Timer interface {
	// C is the channel the fire time is delivered on.
	C() <-chan time.Time
	// Stop cancels the timer, reporting whether it was still pending.
	Stop() bool
	// Reset re-arms the timer to fire after d, reporting whether it
	// was still pending. Both implementations consume a
	// fired-but-undrained tick themselves, so Reset is safe from any
	// state; a tick that lands concurrently with Reset may still
	// cause one spurious early wake, which the reliable sender loop
	// tolerates by re-checking deadlines. Each link re-arms one timer
	// instead of allocating per wake.
	Reset(d time.Duration) bool
}

// --- wall clock -------------------------------------------------------

type realClock struct{}

func (realClock) Now() time.Time                  { return time.Now() }
func (realClock) Until(t time.Time) time.Duration { return time.Until(t) }
func (realClock) NewTimer(d time.Duration) Timer  { return realTimer{time.NewTimer(d)} }

type realTimer struct{ t *time.Timer }

func (t realTimer) C() <-chan time.Time { return t.t.C }
func (t realTimer) Stop() bool          { return t.t.Stop() }

// Reset stops and drains a fired-but-unread tick before re-arming, so
// a wake-by-kick that raced the timer's fire cannot leave a stale
// tick that would fire the next wait immediately.
func (t realTimer) Reset(d time.Duration) bool {
	pending := t.t.Stop()
	if !pending {
		select {
		case <-t.t.C:
		default:
		}
	}
	t.t.Reset(d)
	return pending
}

// --- virtual clock ----------------------------------------------------

// vclockEpoch is the fixed starting instant of every virtual clock:
// deterministic across runs, so two identically seeded virtual-clock
// fabrics see identical timestamps.
var vclockEpoch = time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC)

// VirtualClock is a discrete event clock: time stands still except
// when it jumps to the earliest pending timer deadline. In auto mode
// (NewVirtualClock) a background advancer performs the jumps whenever
// timers are pending, pausing a short real-time grace interval between
// jumps so in-flight goroutines can schedule earlier events first; a
// manual clock (NewManualClock) only moves when the test calls
// Advance. Virtual timers preserve deadline order exactly — a
// retransmit due at t+20ms can never fire before an ack delivery due
// at t+2ms — which is what keeps compressed runs faithful to their
// real-time counterparts.
type VirtualClock struct {
	mu      sync.Mutex
	now     time.Time
	timers  vtimerHeap
	mutGen  uint64 // bumped on every timer registration/stop/fire
	stopped bool

	// busy, when set, reports whether the system still has runnable
	// work in flight (frames queued in receive buffers, handlers
	// executing). The auto-advancer never moves time while busy — a
	// goroutine-scheduled round trip on a zero-latency link must not
	// race the clock to a timeout deadline. Goroutines *parked* on a
	// clock-backed wait do not count as busy, or a genuinely lost
	// reply could freeze time forever.
	busy atomic.Pointer[func() bool]

	done     chan struct{}
	stopOnce sync.Once
}

// SetBusyFunc installs the busy probe; the fabric wires its own in
// WithVirtualClock.
func (c *VirtualClock) SetBusyFunc(f func() bool) { c.busy.Store(&f) }

// autoAdvanceGrace is the real-time pause between automatic jumps:
// long enough for goroutines woken by the previous jump to run and
// register any earlier deadlines, short enough that a soak compresses
// minutes of virtual sleeping into seconds of real time.
const autoAdvanceGrace = 50 * time.Microsecond

// autoAdvanceCoalesce is how far past the earliest deadline an
// automatic jump reaches: timers within one coalescing window fire in
// a single batch (still in exact deadline order) instead of costing a
// real-time tick each. Jittered frame deliveries cluster within
// milliseconds, so this is the difference between one jump per frame
// and one jump per burst; the distortion is bounded — an event
// scheduled by a woken goroutine can land at most one window late.
const autoAdvanceCoalesce = time.Millisecond

// baseVirtualStep bounds the first automatic jump after timer
// activity. Fast-forwarding a long idle stretch (a request timeout, a
// deep backoff) in steps instead of one atomic jump gives
// concurrently running goroutines — ones that are about to schedule
// an earlier event but have not touched the clock yet — repeated
// real-time windows to get their deadline registered before the clock
// sails past it. The step doubles for every consecutive quiet tick,
// so genuinely idle stretches still compress arbitrarily fast.
const baseVirtualStep = 10 * time.Millisecond

// NewVirtualClock builds a self-advancing virtual clock: whenever
// timers are pending, it repeatedly jumps to the earliest deadline.
// Call Stop when done to release the advancer goroutine.
func NewVirtualClock() *VirtualClock {
	c := &VirtualClock{now: vclockEpoch, done: make(chan struct{})}
	go c.autoAdvance()
	return c
}

// NewManualClock builds a virtual clock that only moves via Advance —
// the fully deterministic form unit tests drive step by step.
func NewManualClock() *VirtualClock {
	return &VirtualClock{now: vclockEpoch, done: make(chan struct{})}
}

// Stop halts the auto-advancer. Pending timers never fire afterwards.
func (c *VirtualClock) Stop() {
	c.stopOnce.Do(func() {
		c.mu.Lock()
		c.stopped = true
		c.mu.Unlock()
		close(c.done)
	})
}

// Now returns the current virtual time.
func (c *VirtualClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Until returns the virtual duration from now until t.
func (c *VirtualClock) Until(t time.Time) time.Duration {
	return t.Sub(c.Now())
}

// PendingTimers returns the number of unfired timers — manual-clock
// tests use it to know a waiter has registered before advancing.
func (c *VirtualClock) PendingTimers() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.timers)
}

// NewTimer returns a virtual timer firing at now+d. A non-positive d
// fires immediately.
func (c *VirtualClock) NewTimer(d time.Duration) Timer {
	t := &vtimer{clock: c, ch: make(chan time.Time, 1), index: -1}
	c.mu.Lock()
	c.mutGen++
	t.deadline = c.now.Add(d)
	if d <= 0 {
		t.fired = true
		t.ch <- c.now
	} else {
		heap.Push(&c.timers, t)
	}
	c.mu.Unlock()
	return t
}

// Advance moves virtual time forward by d, firing every timer whose
// deadline is reached, in deadline order.
func (c *VirtualClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.advanceToLocked(c.now.Add(d))
	c.mu.Unlock()
}

// advanceToLocked jumps the clock to t (never backwards) and fires all
// due timers.
func (c *VirtualClock) advanceToLocked(t time.Time) {
	if t.After(c.now) {
		c.now = t
	}
	for len(c.timers) > 0 && !c.timers[0].deadline.After(c.now) {
		tm := heap.Pop(&c.timers).(*vtimer)
		tm.fired = true
		c.mutGen++
		tm.ch <- c.now // buffered; never blocks
	}
}

// autoAdvance moves toward the earliest pending deadline on a
// real-time cadence. Two guards keep compressed runs faithful: the
// advancer settles for a tick after any timer activity (a goroutine
// woken by the last fire gets a full grace interval to register its
// next deadline before the clock moves again), and long idle
// stretches fast-forward in ramping baseVirtualStep increments
// instead of one atomic jump.
func (c *VirtualClock) autoAdvance() {
	tick := time.NewTicker(autoAdvanceGrace)
	defer tick.Stop()
	var lastGen uint64
	step := baseVirtualStep
	for {
		select {
		case <-c.done:
			return
		case <-tick.C:
		}
		// Probe outside c.mu: the busy func takes fabric and buffer
		// locks whose holders may call back into the clock.
		if probe := c.busy.Load(); probe != nil && (*probe)() {
			c.mu.Lock()
			lastGen = c.mutGen
			step = baseVirtualStep
			c.mu.Unlock()
			continue
		}
		c.mu.Lock()
		switch {
		case c.stopped || len(c.timers) == 0:
			step = baseVirtualStep
		case c.mutGen != lastGen:
			// Timer activity since the last tick: let the woken
			// goroutines run before moving time again.
			lastGen = c.mutGen
			step = baseVirtualStep
		default:
			target := c.timers[0].deadline
			if next := c.now.Add(step); target.After(next) {
				c.now = next // fast-forward; nothing due yet
				step *= 2    // quiet continues: accelerate
			} else {
				c.advanceToLocked(target.Add(autoAdvanceCoalesce))
				step = baseVirtualStep
			}
			lastGen = c.mutGen
		}
		c.mu.Unlock()
	}
}

type vtimer struct {
	clock    *VirtualClock
	ch       chan time.Time
	deadline time.Time
	fired    bool
	index    int // heap position, -1 when not queued
}

func (t *vtimer) C() <-chan time.Time { return t.ch }

func (t *vtimer) Stop() bool {
	c := t.clock
	c.mu.Lock()
	defer c.mu.Unlock()
	if t.fired || t.index < 0 {
		return false
	}
	c.mutGen++
	heap.Remove(&c.timers, t.index)
	return true
}

// Reset re-arms the timer at now+d, following the Stop-or-drained
// contract of the Timer interface. A stale undrained tick is consumed
// here so the re-armed timer can never deliver a fire from its
// previous life. A still-queued timer is re-keyed in place with
// heap.Fix — one O(log n) sift instead of a Remove+Push pair — which
// is the hot case: every reliable link re-arms one retransmit timer
// per wake, so at 1000 peers this path dominates event-queue cost.
func (t *vtimer) Reset(d time.Duration) bool {
	c := t.clock
	c.mu.Lock()
	defer c.mu.Unlock()
	wasPending := !t.fired && t.index >= 0
	select {
	case <-t.ch:
	default:
	}
	t.fired = false
	t.deadline = c.now.Add(d)
	c.mutGen++
	switch {
	case d <= 0:
		if wasPending {
			heap.Remove(&c.timers, t.index)
		}
		t.fired = true
		t.ch <- c.now
	case wasPending:
		heap.Fix(&c.timers, t.index) // re-key in place
	default:
		heap.Push(&c.timers, t)
	}
	return wasPending
}

// vtimerHeap is a min-heap of timers by deadline.
type vtimerHeap []*vtimer

func (h vtimerHeap) Len() int            { return len(h) }
func (h vtimerHeap) Less(i, j int) bool  { return h[i].deadline.Before(h[j].deadline) }
func (h vtimerHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i]; h[i].index = i; h[j].index = j }
func (h *vtimerHeap) Push(x interface{}) { t := x.(*vtimer); t.index = len(*h); *h = append(*h, t) }
func (h *vtimerHeap) Pop() interface{} {
	old := *h
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	t.index = -1
	*h = old[:n-1]
	return t
}
