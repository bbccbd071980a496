package transport

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

// driftClock advances its virtual clock once, right after the first
// Until call returns its answer: the fast-forward that can land
// between the scheduler worker computing its wait and arming its timer.
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
// clock that froze for good: the scheduler worker's timer sat later than
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

	fs.enqueue(dir, []byte("frame"), vc.Now().Add(10*time.Millisecond))
	deadline := time.Now().Add(5 * time.Second)
	for vc.PendingTimers() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("scheduler worker never armed its timer")
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

// TestFrameSchedMatchesNaiveModel is the scheduler's ordering property
// test: several link directions share one receive buffer and enqueue
// seeded random frames — equal deadlines, duplicates, and one
// direction closed mid-run — interleaved with clock advances. After
// every advance the buffer must hold exactly the frames a naive sort
// by (due, arrival) says are due, in that order; frames the closed
// direction still held are neither delivered nor counted. Every new
// frame's deadline is at or after the current time, the fabric's own
// invariant, so the expected order does not depend on when the worker
// runs. PTI_SEED replays a failing interleaving.
func TestFrameSchedMatchesNaiveModel(t *testing.T) {
	seed := scenarioSeed(t, 7177)
	defer func() {
		if t.Failed() {
			t.Logf("replay with PTI_SEED=%d", seed)
		}
	}()
	for round := int64(0); round < 8; round++ {
		runFrameSchedModel(t, seed+round)
	}
}

func runFrameSchedModel(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	vc := NewManualClock()
	fs := newFrameSched(vc)
	defer fs.stop()
	buf := newFrameBuffer(&fabricBusy{})
	dirs := make([]*linkDir, 4)
	for i := range dirs {
		dirs[i] = newLinkDir(fmt.Sprintf("d%d", i), rand.New(rand.NewSource(int64(i))), FaultProfile{}, vc, fs)
		dirs[i].dst = buf
	}

	// Reference model: every enqueued frame in arrival order; the
	// expected delivery order is the frames due by now, sorted by
	// (due, arrival), minus what the closed direction still held.
	type modelFrame struct {
		dir     int
		data    string
		due     time.Time
		arrival int
		dropped bool
	}
	var model []*modelFrame
	closed := -1
	expected := func() (order string, perDir []uint64) {
		var due []*modelFrame
		for _, m := range model {
			if !m.dropped && !m.due.After(vc.Now()) {
				due = append(due, m)
			}
		}
		sort.Slice(due, func(i, j int) bool {
			if !due[i].due.Equal(due[j].due) {
				return due[i].due.Before(due[j].due)
			}
			return due[i].arrival < due[j].arrival
		})
		perDir = make([]uint64, len(dirs))
		var b strings.Builder
		for _, m := range due {
			b.WriteString(m.data)
			perDir[m.dir]++
		}
		return b.String(), perDir
	}
	// settle waits until nothing due is left undelivered, through the
	// busy probe, which also kicks a worker whose timer sits late.
	settle := func() {
		deadline := time.Now().Add(5 * time.Second)
		for fs.busy(vc.Now()) {
			if time.Now().After(deadline) {
				t.Fatalf("seed %d: due frames never delivered", seed)
			}
			time.Sleep(20 * time.Microsecond)
		}
	}
	check := func(step int) {
		want, perDir := expected()
		buf.mu.Lock()
		got := string(buf.data)
		buf.mu.Unlock()
		if got != want {
			t.Fatalf("seed %d step %d: buffer order\n got %q\nwant %q", seed, step, got, want)
		}
		for i, d := range dirs {
			if n := d.delivered.Load(); n != perDir[i] {
				t.Fatalf("seed %d step %d: %s delivered %d, want %d", seed, step, d.name, n, perDir[i])
			}
		}
	}
	enqueue := func(i int, data string, due time.Time) {
		d := dirs[i]
		d.mu.Lock() // the caller contract: enqueue under the direction's lock
		fs.enqueue(d, []byte(data), due)
		d.mu.Unlock()
		model = append(model, &modelFrame{dir: i, data: data, due: due, arrival: len(model)})
	}

	const steps = 600
	for step := 0; step < steps; step++ {
		if step == steps/2 {
			settle()
			closed = rng.Intn(len(dirs))
			dirs[closed].close()
			for _, m := range model {
				if m.dir == closed && m.due.After(vc.Now()) {
					m.dropped = true
				}
			}
		}
		switch r := rng.Intn(10); {
		case r < 7:
			i := rng.Intn(len(dirs))
			if i == closed {
				continue // a closed direction refuses sends
			}
			// Deadlines on a 1ms grid a few steps ahead, so equal
			// deadlines across and within directions are common.
			due := vc.Now().Add(time.Duration(rng.Intn(4)) * time.Millisecond)
			data := fmt.Sprintf("[%d:%04d]", i, step)
			enqueue(i, data, due)
			if rng.Intn(5) == 0 { // a duplicate, as the fault profile makes
				enqueue(i, data, due.Add(time.Duration(rng.Intn(2))*time.Millisecond))
			}
		default:
			vc.Advance(time.Duration(rng.Intn(3)) * time.Millisecond)
			settle()
			check(step)
		}
	}
	vc.Advance(time.Second)
	settle()
	check(steps)
	fs.mu.Lock()
	left := fs.heap.Len()
	fs.mu.Unlock()
	if left != 0 {
		t.Fatalf("seed %d: %d frames left in the heap", seed, left)
	}
	if frames, ops := fs.frames.Load(), fs.heapOps.Load(); frames != uint64(len(model)) || ops != 2*frames {
		t.Fatalf("seed %d: frames=%d heapOps=%d, want %d and %d", seed, frames, ops, len(model), 2*len(model))
	}
}
