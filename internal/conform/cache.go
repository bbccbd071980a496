package conform

import (
	"reflect"
	"sync"
	"sync/atomic"
	"unsafe"

	"pti/internal/guid"
)

// Cache memoizes conformance results keyed by (candidate identity,
// expected identity, policy). The transport layer shares one Cache per
// peer so that repeated receptions of the same type skip rule
// evaluation entirely — the optimization the paper's optimistic
// protocol is built around (Section 6.1).
//
// The cache is striped into shards so that concurrent readers on the
// hot path (every object reception of an already-checked type) never
// serialize on a single lock: the read path takes only a per-shard
// RLock and the hit/miss counters are atomics. Each cached Result also
// carries the compiled invocation plans derived from its mapping (see
// Plan), memoized per concrete target type.
type Cache struct {
	shards [cacheShardCount]cacheShard
}

// cacheShardCount must be a power of two (shard selection masks the
// key hash). 64 shards keep the per-shard collision probability low
// even with hundreds of goroutines hammering the cache.
const cacheShardCount = 64

// cacheShard owns a stripe of the key space. The hit/miss counters
// live per shard too — a single global atomic would put every reader
// back on one shared cache line, undoing the striping — and _pad
// rounds the struct up to a multiple of 128 bytes (two cache lines,
// covering the adjacent-line prefetcher) so neighbouring shards in
// the array never false-share.
type cacheShard struct {
	cacheShardData
	_pad [128 - unsafe.Sizeof(cacheShardData{})%128]byte //nolint:unused // spacer
}

type cacheShardData struct {
	mu sync.RWMutex
	// entries is made by the shard's first put, so a cache that
	// never fills a shard never pays for its map.
	entries map[cacheKey]*cacheEntry
	// order is the insertion ring the second-chance eviction hand
	// sweeps; it mirrors the key set of entries exactly. cap 0 means
	// unbounded.
	order     []cacheKey
	hand      int
	cap       int
	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64
}

type cacheKey struct {
	cand   guid.GUID
	exp    guid.GUID
	policy string
}

// cacheEntry pairs a memoized Result with the compiled invocation
// plans derived from it, one per concrete Go target type.
type cacheEntry struct {
	res   *Result
	plans sync.Map // reflect.Type -> *Plan
	// referenced is the second-chance bit: set on every read hit
	// (under the shard's RLock — hence atomic), cleared when the
	// eviction hand passes over the entry. An entry is only evicted
	// after surviving one full unreferenced sweep interval.
	referenced atomic.Bool
}

// NewCache returns an empty, unbounded Cache.
func NewCache() *Cache { return NewCacheWithCapacity(0) }

// NewCacheWithCapacity returns a Cache bounded to roughly capacity
// entries (0 = unbounded). The bound is enforced per shard — each of
// the 64 stripes holds at most ⌈capacity/64⌉ entries — with cheap
// second-chance eviction: a read hit marks an entry referenced, and
// an insert into a full shard evicts the first entry the clock hand
// finds unmarked, unmarking the ones it passes. Long-lived peers on
// churning type populations stay bounded; hot pairs survive.
func NewCacheWithCapacity(capacity int) *Cache {
	perShard := 0
	if capacity > 0 {
		perShard = (capacity + cacheShardCount - 1) / cacheShardCount
		if perShard < 1 {
			perShard = 1
		}
	}
	c := &Cache{}
	for i := range c.shards {
		c.shards[i].cap = perShard
	}
	return c
}

// Capacity returns the total entry bound (0 = unbounded).
func (c *Cache) Capacity() int {
	if c.shards[0].cap == 0 {
		return 0
	}
	return c.shards[0].cap * cacheShardCount
}

// shardFor selects the shard by an FNV-1a hash of the two identities.
// The policy fingerprint is deliberately excluded: a single checker
// uses one policy, so it carries no entropy worth hashing.
func (c *Cache) shardFor(k cacheKey) *cacheShard {
	h := uint32(2166136261)
	for _, b := range k.cand {
		h = (h ^ uint32(b)) * 16777619
	}
	for _, b := range k.exp {
		h = (h ^ uint32(b)) * 16777619
	}
	return &c.shards[h&(cacheShardCount-1)]
}

// read finds an entry under the shard's read lock. With count set it
// also bumps the hit/miss counters *inside* the critical section, so
// a concurrent Reset (which zeroes counters under the write lock)
// can never interleave between the map read and the counter bump.
func (s *cacheShard) read(k cacheKey, count bool) (*cacheEntry, bool) {
	s.mu.RLock()
	e, ok := s.entries[k]
	// The second-chance bit only matters on bounded shards, and
	// test-then-set keeps steady-state hits read-only — an
	// unconditional Store would bounce the entry's cache line between
	// cores on exactly the hot path the striping protects.
	if ok && s.cap > 0 && !e.referenced.Load() {
		e.referenced.Store(true)
	}
	if count {
		if ok {
			s.hits.Add(1)
		} else {
			s.misses.Add(1)
		}
	}
	s.mu.RUnlock()
	return e, ok
}

// get reports the cached Result for the triple. fp is the caller's
// precomputed policy fingerprint (see Checker), so the read path
// performs no formatting and no allocation.
func (c *Cache) get(cand, exp guid.GUID, fp string) (*Result, bool) {
	if cand.IsNil() || exp.IsNil() {
		return nil, false
	}
	k := cacheKey{cand: cand, exp: exp, policy: fp}
	e, ok := c.shardFor(k).read(k, true)
	if ok {
		return e.res, true
	}
	return nil, false
}

// put stores a Result and returns the canonical one for the key: an
// existing entry is kept (results are deterministic per key, and
// keeping it preserves any plans already compiled against it), and
// the caller is handed that entry's Result so every holder shares one
// Mapping pointer — the identity the plan memoization keys on.
func (c *Cache) put(cand, exp guid.GUID, fp string, r *Result) *Result {
	k := cacheKey{cand: cand, exp: exp, policy: fp}
	s := c.shardFor(k)
	s.mu.Lock()
	if e, ok := s.entries[k]; ok {
		r = e.res
	} else {
		if s.entries == nil {
			s.entries = make(map[cacheKey]*cacheEntry)
		}
		if s.cap > 0 && len(s.entries) >= s.cap {
			s.evictOneLocked()
		}
		s.entries[k] = &cacheEntry{res: r}
		s.order = append(s.order, k)
	}
	s.mu.Unlock()
	return r
}

// evictOneLocked runs the second-chance clock hand: entries with the
// referenced bit set get it cleared and are skipped; the first
// unreferenced entry is evicted. After a full lap everything has been
// unmarked, so the hand's own start position is evicted — the loop
// always terminates within 2·len(order) steps.
func (s *cacheShardData) evictOneLocked() {
	for range [2]struct{}{} {
		for n := len(s.order); n > 0; n-- {
			if s.hand >= len(s.order) {
				s.hand = 0
			}
			k := s.order[s.hand]
			e := s.entries[k]
			if e != nil && e.referenced.Swap(false) {
				s.hand++
				continue
			}
			delete(s.entries, k)
			s.order = append(s.order[:s.hand], s.order[s.hand+1:]...)
			s.evictions.Add(1)
			return
		}
	}
}

// planFor returns the compiled invocation plan for the cached triple
// against the concrete target type, compiling and memoizing it on
// first use. ok is false when the triple is not cached (the caller
// should compile without memoization). The plan is always compiled
// from the *cached* result's mapping — not the caller's — so a lost
// first-Check race cannot pin a plan whose mapping pointer differs
// from the one every future cached Check hands out.
func (c *Cache) planFor(cand, exp guid.GUID, fp string, target reflect.Type) (*Plan, error, bool) {
	if cand.IsNil() || exp.IsNil() {
		return nil, nil, false
	}
	k := cacheKey{cand: cand, exp: exp, policy: fp}
	e, ok := c.shardFor(k).read(k, false)
	if !ok {
		return nil, nil, false
	}
	if p, ok := e.plans.Load(target); ok {
		return p.(*Plan), nil, true
	}
	p, err := CompilePlan(target, e.res.Mapping)
	if err != nil {
		return nil, err, true
	}
	actual, _ := e.plans.LoadOrStore(target, p)
	return actual.(*Plan), nil, true
}

// Len returns the number of cached results.
func (c *Cache) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.RLock()
		n += len(s.entries)
		s.mu.RUnlock()
	}
	return n
}

// Stats returns cumulative cache hits and misses.
func (c *Cache) Stats() (hits, misses uint64) {
	for i := range c.shards {
		hits += c.shards[i].hits.Load()
		misses += c.shards[i].misses.Load()
	}
	return hits, misses
}

// Evictions returns the cumulative number of entries displaced by the
// capacity bound.
func (c *Cache) Evictions() uint64 {
	var n uint64
	for i := range c.shards {
		n += c.shards[i].evictions.Load()
	}
	return n
}

// Reset discards all entries and counters.
func (c *Cache) Reset() {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		s.entries = nil
		s.order = nil
		s.hand = 0
		s.hits.Store(0)
		s.misses.Store(0)
		s.evictions.Store(0)
		s.mu.Unlock()
	}
}
