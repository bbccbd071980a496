package transport

import (
	"math/rand"
	"sync"
	"testing"
	"time"
)

// driftClock advances its virtual clock once, right after the first
// Until call returns its answer: the fast-forward that can land
// between a shard worker computing its wait and arming its timer.
type driftClock struct {
	*VirtualClock
	drift time.Duration
	once  sync.Once
}

func (c *driftClock) Until(t time.Time) time.Duration {
	d := c.VirtualClock.Until(t)
	c.once.Do(func() { c.VirtualClock.Advance(c.drift) })
	return d
}

// TestSchedDueFrameNotStrandedByLateTimer pins the fix for a virtual
// clock that froze for good: the shard worker's timer sat later than
// its head frame's deadline, the clock stopped past that deadline,
// and from then on the busy probe reported the due frame busy forever
// while the timer that would deliver it could never fire.
func TestSchedDueFrameNotStrandedByLateTimer(t *testing.T) {
	vc := NewManualClock()
	clk := &driftClock{VirtualClock: vc, drift: 4 * time.Millisecond}
	fs := newFrameSched(clk)
	defer fs.stop()
	dir := newLinkDir("a->b", rand.New(rand.NewSource(1)), FaultProfile{}, clk, fs)
	dir.dst = newFrameBuffer(&fabricBusy{})
	// Let the idle worker park on its kick channel first, so the
	// enqueue's kick wakes it instead of waiting buffered and making
	// it recompute (and repair) its wait after arming.
	time.Sleep(20 * time.Millisecond)

	dir.shard.enqueue(dir, []byte("frame"), vc.Now().Add(10*time.Millisecond))
	deadline := time.Now().Add(5 * time.Second)
	for vc.PendingTimers() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("shard worker never armed its timer")
		}
		time.Sleep(time.Millisecond)
	}
	// The timer fires at 14ms; stop the clock at the frame's 10ms
	// deadline, where the busy probe takes over.
	vc.Advance(6 * time.Millisecond)

	for dir.delivered.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("due frame stranded: probe busy=%v at %v with the worker's timer still pending",
				fs.busy(vc.Now()), vc.Now().Sub(vclockEpoch))
		}
		fs.busy(vc.Now()) // the auto-advancer's probe, once per tick
		time.Sleep(time.Millisecond)
	}
	if fs.busy(vc.Now()) {
		t.Fatal("probe still busy after the frame was delivered")
	}
}
