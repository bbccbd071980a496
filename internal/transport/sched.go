package transport

import (
	"container/heap"
	"sync"
	"sync/atomic"
	"time"
)

// The frame scheduler and the O(1) busy-probe counters are what let
// one fabric carry 500–1000 simulated peers in CI-viable time. Before
// them every link direction owned a delivery goroutine (two per link —
// at 1000 managed links, thousands of parked goroutines) and the
// virtual clock's busy probe scanned every link buffer and every peer
// under the fabric lock at its 20kHz tick. Now one goroutine drains
// all in-flight frames from one min-heap, and busyness is three atomic
// counters maintained at the state transitions themselves.

// fabricBusy aggregates the busy probe of one fabric as three shared
// counters, each maintained event-driven at its own transition edges:
//
//	frames     receive buffers holding undrained bytes
//	handlers   message handlers executing (entered minus parked)
//	pipelines  reliable send pipelines with an admittable head frame
//
// The probe itself (Fabric.busy) is then three atomic loads — O(1) in
// peers and links — instead of a scan under the fabric lock. The
// semantics match the scanned predicates exactly: a counter rises at
// the same instant the scanned condition would have become true and
// falls when it would have become false.
type fabricBusy struct {
	frames    atomic.Int64
	handlers  atomic.Int64
	pipelines atomic.Int64
}

// idle reports no runnable work anywhere on the fabric. Transient
// negatives (a park racing its handler's enter on another counter
// word) read as idle, the same tolerance the scanned probe's per-peer
// clamp provided.
func (b *fabricBusy) idle() bool {
	return b.frames.Load() <= 0 && b.handlers.Load() <= 0 && b.pipelines.Load() <= 0
}

// frameSched is the fabric's frame scheduler: every in-flight frame
// of every link direction lives in one min-heap keyed (due, arrival),
// drained by one goroutine on one re-armed timer, so a link direction
// costs the fabric no goroutine of its own.
type frameSched struct {
	clock Clock
	kick  chan struct{}
	done  chan struct{}

	mu         sync.Mutex
	heap       schedHeap
	seq        uint64 // arrival tiebreaker for equal deadlines
	delivering int    // popped frames not yet pushed to their buffer

	// frames counts frames accepted for delivery; heapOps counts heap
	// push/pop operations. Their ratio is the benchmark's "scheduler
	// ops per frame" — exactly 2 when nothing is reordered, the
	// O(log n) sift cost being internal to each op.
	frames  atomic.Uint64
	heapOps atomic.Uint64
}

func newFrameSched(clock Clock) *frameSched {
	fs := &frameSched{
		clock: clock,
		kick:  make(chan struct{}, 1),
		done:  make(chan struct{}),
	}
	go fs.run()
	return fs
}

// stop releases the scheduler goroutine. Undelivered frames are
// abandoned, matching the old per-link workers dying with their link.
func (fs *frameSched) stop() { close(fs.done) }

// busy reports whether the scheduler holds runnable delivery work: a
// frame whose deadline has passed but which has not yet landed in its
// receive buffer (still heaped, or popped and mid-delivery). Frames
// with future deadlines are timer-waiters, not busy — the virtual
// clock must advance to reach them — but a due frame's timer has
// already fired and consumed itself, so without this check the clock
// could jump a timeout deadline in the window between the scheduler's
// timer wake and the buffer push that hands coverage to
// fabricBusy.frames.
//
// A due head also gets the worker kicked. The worker arms its timer
// for a wait it computed before unlocking, and the clock can
// fast-forward in between, so the timer may sit later than the head's
// deadline. Once the clock passes the deadline, this probe holds it
// still, the timer can never fire, and only the kick lets the worker
// deliver.
func (fs *frameSched) busy(now time.Time) bool {
	fs.mu.Lock()
	due := fs.heap.Len() > 0 && !fs.heap[0].due.After(now)
	b := fs.delivering > 0 || due
	fs.mu.Unlock()
	if due {
		fs.wake()
	}
	return b
}

// enqueue accepts one frame for delivery at due. Callers hold their
// linkDir's mutex, which is what makes the arrival tiebreaker a
// per-direction FIFO: frames of one direction enter the heap in send
// order, so equal deadlines (the FIFO floor pins them equal on
// purpose) deliver in send order.
func (fs *frameSched) enqueue(d *linkDir, data []byte, due time.Time) {
	fs.frames.Add(1)
	fs.mu.Lock()
	it := &schedItem{dir: d, data: data, due: due, seq: fs.seq}
	fs.seq++
	heap.Push(&fs.heap, it)
	fs.heapOps.Add(1)
	isHead := fs.heap[0] == it
	fs.mu.Unlock()
	if isHead {
		// Only a new earliest deadline changes what the worker should
		// be waiting for; anything else rides the already-armed timer.
		fs.wake()
	}
}

// wake makes the worker recompute its wait, without blocking.
func (fs *frameSched) wake() {
	select {
	case fs.kick <- struct{}{}:
	default:
	}
}

// run delivers frames in deadline order, re-arming one timer across
// waits. Delivery happens outside the scheduler lock — the linkDir's
// own mutex serializes against close, preserving the retirement
// contract that counter snapshots taken after closeAll are exact.
func (fs *frameSched) run() {
	var timer Timer
	for {
		fs.mu.Lock()
		if fs.heap.Len() == 0 {
			fs.mu.Unlock()
			select {
			case <-fs.kick:
				continue
			case <-fs.done:
				return
			}
		}
		head := fs.heap[0]
		if wait := fs.clock.Until(head.due); wait > 0 {
			fs.mu.Unlock()
			if timer == nil {
				timer = fs.clock.NewTimer(wait)
			} else {
				timer.Reset(wait)
			}
			select {
			case <-timer.C():
			case <-fs.kick: // an earlier deadline arrived; recompute
				timer.Stop()
			case <-fs.done:
				timer.Stop()
				return
			}
			continue
		}
		it := heap.Pop(&fs.heap).(*schedItem)
		fs.heapOps.Add(1)
		fs.delivering++
		fs.mu.Unlock()
		it.dir.deliver(it.data)
		fs.mu.Lock()
		fs.delivering--
		fs.mu.Unlock()
	}
}

// schedItem is one in-flight frame awaiting delivery.
type schedItem struct {
	dir   *linkDir
	data  []byte
	due   time.Time
	seq   uint64
	index int
}

// schedHeap is a min-heap of frames by (due, arrival).
type schedHeap []*schedItem

func (h schedHeap) Len() int { return len(h) }
func (h schedHeap) Less(i, j int) bool {
	if !h[i].due.Equal(h[j].due) {
		return h[i].due.Before(h[j].due)
	}
	return h[i].seq < h[j].seq
}
func (h schedHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i]; h[i].index = i; h[j].index = j }
func (h *schedHeap) Push(x interface{}) {
	it := x.(*schedItem)
	it.index = len(*h)
	*h = append(*h, it)
}
func (h *schedHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	it.index = -1
	*h = old[:n-1]
	return it
}
