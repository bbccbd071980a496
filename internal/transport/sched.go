package transport

import (
	"container/heap"
	"hash/fnv"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// The sharded frame scheduler and the O(1) busy-probe counters are
// what let one fabric carry 500–1000 simulated peers in CI-viable
// time. Before them every link direction owned a delivery goroutine
// (two per link — at 1000 managed links, thousands of parked
// goroutines) and the virtual clock's busy probe scanned every link
// buffer and every peer under the fabric lock at its 20kHz tick. Now
// a fixed pool of shards drains all in-flight frames from per-shard
// min-heaps, and busyness is three atomic counters maintained at the
// state transitions themselves.

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

// maxSchedShards caps the scheduler pool: enough stripes that link
// directions don't contend on one lock, few enough that the fabric's
// goroutine floor stays trivially small.
const maxSchedShards = 8

// frameSched is the fabric's sharded frame scheduler: every in-flight
// frame of every link direction lives in one of a fixed number of
// per-shard min-heaps keyed (due, arrival), each drained by its own
// goroutine. Link directions are striped over shards by name hash, so
// delivery work parallelizes without funneling through one lock — and
// the fabric's goroutine count is O(shards), not O(links).
type frameSched struct {
	shards []*schedShard

	// frames counts frames accepted for delivery; heapOps counts heap
	// push/pop operations. Their ratio is the benchmark's "scheduler
	// ops per frame" — exactly 2 when nothing is reordered, the
	// O(log n) sift cost being internal to each op.
	frames  atomic.Uint64
	heapOps atomic.Uint64
}

func newFrameSched(clock Clock) *frameSched {
	n := runtime.GOMAXPROCS(0)
	if n > maxSchedShards {
		n = maxSchedShards
	}
	if n < 1 {
		n = 1
	}
	fs := &frameSched{shards: make([]*schedShard, n)}
	for i := range fs.shards {
		s := &schedShard{
			clock: clock,
			kick:  make(chan struct{}, 1),
			done:  make(chan struct{}),
			ops:   &fs.heapOps,
		}
		fs.shards[i] = s
		go s.run()
	}
	return fs
}

// shardFor stripes a link direction over the pool by name hash —
// stable for the direction's lifetime, so its frames always pass
// through one shard and per-direction delivery order is preserved.
func (fs *frameSched) shardFor(name string) *schedShard {
	h := fnv.New32a()
	_, _ = h.Write([]byte(name))
	return fs.shards[h.Sum32()%uint32(len(fs.shards))]
}

// stop releases every shard goroutine. Undelivered frames are
// abandoned, matching the old per-link workers dying with their link.
func (fs *frameSched) stop() {
	for _, s := range fs.shards {
		close(s.done)
	}
}

// busy reports whether any shard holds runnable delivery work: a
// frame whose deadline has passed but which has not yet landed in its
// receive buffer (still heaped, or popped and mid-delivery). Frames
// with future deadlines are timer-waiters, not busy — the virtual
// clock must advance to reach them — but a due frame's timer has
// already fired and consumed itself, so without this check the clock
// could jump a timeout deadline in the window between a shard's timer
// wake and the buffer push that hands coverage to fabricBusy.frames.
//
// A due head also gets its worker kicked. The worker arms its timer
// for a wait it computed before unlocking, and the clock can
// fast-forward in between, so the timer may sit later than the head's
// deadline. Once the clock passes the deadline, this probe holds it
// still, the timer can never fire, and only the kick lets the worker
// deliver.
func (fs *frameSched) busy(now time.Time) bool {
	for _, s := range fs.shards {
		s.mu.Lock()
		due := s.heap.Len() > 0 && !s.heap[0].due.After(now)
		b := s.delivering > 0 || due
		s.mu.Unlock()
		if due {
			s.wake()
		}
		if b {
			return true
		}
	}
	return false
}

// schedShard is one stripe: a min-heap of in-flight frames and the
// goroutine that delivers them when they come due.
type schedShard struct {
	clock Clock
	kick  chan struct{}
	done  chan struct{}
	ops   *atomic.Uint64

	mu         sync.Mutex
	heap       schedHeap
	seq        uint64 // arrival tiebreaker for equal deadlines
	delivering int    // popped frames not yet pushed to their buffer
}

// enqueue accepts one frame for delivery at due. Callers hold their
// linkDir's mutex, which is what makes the arrival tiebreaker a
// per-direction FIFO: frames of one direction enter the shard in send
// order, so equal deadlines (the FIFO floor pins them equal on
// purpose) deliver in send order.
func (s *schedShard) enqueue(d *linkDir, data []byte, due time.Time) {
	s.mu.Lock()
	it := &schedItem{dir: d, data: data, due: due, seq: s.seq}
	s.seq++
	heap.Push(&s.heap, it)
	s.ops.Add(1)
	isHead := s.heap[0] == it
	s.mu.Unlock()
	if isHead {
		// Only a new earliest deadline changes what the worker should
		// be waiting for; anything else rides the already-armed timer.
		s.wake()
	}
}

// wake makes the worker recompute its wait, without blocking.
func (s *schedShard) wake() {
	select {
	case s.kick <- struct{}{}:
	default:
	}
}

// run delivers the shard's frames in deadline order, re-arming one
// timer across waits. Delivery happens outside the shard lock — the
// linkDir's own mutex serializes against close, preserving the
// retirement contract that counter snapshots taken after closeAll are
// exact.
func (s *schedShard) run() {
	var timer Timer
	for {
		s.mu.Lock()
		if s.heap.Len() == 0 {
			s.mu.Unlock()
			select {
			case <-s.kick:
				continue
			case <-s.done:
				return
			}
		}
		head := s.heap[0]
		if wait := s.clock.Until(head.due); wait > 0 {
			s.mu.Unlock()
			if timer == nil {
				timer = s.clock.NewTimer(wait)
			} else {
				timer.Reset(wait)
			}
			select {
			case <-timer.C():
			case <-s.kick: // an earlier deadline arrived; recompute
				timer.Stop()
			case <-s.done:
				timer.Stop()
				return
			}
			continue
		}
		it := heap.Pop(&s.heap).(*schedItem)
		s.ops.Add(1)
		s.delivering++
		s.mu.Unlock()
		it.dir.deliver(it.data)
		s.mu.Lock()
		s.delivering--
		s.mu.Unlock()
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
