package conform

import (
	"fmt"
	"sync"
	"testing"

	"pti/internal/guid"
)

// sameShardKeys derives n distinct (cand, exp) pairs that all land in
// one shard, so eviction behaviour can be asserted deterministically.
func sameShardKeys(t *testing.T, c *Cache, n int) []cacheKey {
	t.Helper()
	var keys []cacheKey
	target := -1
	for i := 0; len(keys) < n; i++ {
		k := cacheKey{
			cand: guid.Derive(fmt.Sprintf("bound-cand-%d", i)),
			exp:  guid.Derive(fmt.Sprintf("bound-exp-%d", i)),
		}
		shard := -1
		for s := range c.shards {
			if &c.shards[s] == c.shardFor(k) {
				shard = s
				break
			}
		}
		if target == -1 {
			target = shard
		}
		if shard == target {
			keys = append(keys, k)
		}
		if i > 100000 {
			t.Fatal("could not derive enough same-shard keys")
		}
	}
	return keys
}

// TestCacheCapacityBound churns far more unique pairs through a
// bounded cache than it can hold and asserts the bound holds exactly
// per shard.
func TestCacheCapacityBound(t *testing.T) {
	const capacity = cacheShardCount * 4 // 4 entries per shard
	c := NewCacheWithCapacity(capacity)
	if c.Capacity() != capacity {
		t.Fatalf("Capacity = %d, want %d", c.Capacity(), capacity)
	}
	fp := Strict().fingerprint()
	for i := 0; i < capacity*20; i++ {
		cand := guid.Derive(fmt.Sprintf("churn-cand-%d", i))
		exp := guid.Derive(fmt.Sprintf("churn-exp-%d", i))
		c.put(cand, exp, fp, &Result{Conformant: true})
	}
	if got := c.Len(); got > capacity {
		t.Errorf("Len = %d, exceeds capacity %d", got, capacity)
	}
	if c.Evictions() == 0 {
		t.Error("expected evictions after churning past capacity")
	}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.RLock()
		n, ordered := len(s.entries), len(s.order)
		s.mu.RUnlock()
		if n != ordered {
			t.Fatalf("shard %d: entries=%d order=%d out of sync", i, n, ordered)
		}
		if n > s.cap {
			t.Errorf("shard %d: %d entries, cap %d", i, n, s.cap)
		}
	}
}

// TestCacheSecondChanceKeepsHotEntry pins all keys into one shard and
// verifies the clock hand spares the entry whose referenced bit keeps
// getting set, while cold entries rotate out.
func TestCacheSecondChanceKeepsHotEntry(t *testing.T) {
	c := NewCacheWithCapacity(cacheShardCount * 3) // 3 per shard
	fp := Strict().fingerprint()
	keys := sameShardKeys(t, c, 20)
	hot := keys[0]
	c.put(hot.cand, hot.exp, fp, &Result{Conformant: true})
	for _, k := range keys[1:] {
		// Touch the hot entry before every insert so its referenced
		// bit is always set when the hand sweeps.
		if _, ok := c.get(hot.cand, hot.exp, fp); !ok {
			t.Fatal("hot entry evicted despite constant references")
		}
		c.put(k.cand, k.exp, fp, &Result{Conformant: true})
	}
	if _, ok := c.get(hot.cand, hot.exp, fp); !ok {
		t.Error("hot entry did not survive the churn")
	}
	// The earliest cold keys must be gone: 19 cold inserts rolled
	// through a 3-slot shard that also protects the hot entry.
	if _, ok := c.get(keys[1].cand, keys[1].exp, fp); ok {
		t.Error("coldest entry unexpectedly survived")
	}
}

// TestCacheBoundConcurrentChurn is the -race test the ROADMAP
// follow-up asks for: many goroutines inserting unique pairs past the
// cap while readers hammer a hot set. The assertions are the
// invariants eviction must not break: the bound holds, the hot pair's
// Result pointer stays canonical, and no counter goes missing.
func TestCacheBoundConcurrentChurn(t *testing.T) {
	const (
		capacity   = cacheShardCount * 2
		goroutines = 8
		opsPerG    = 2000
	)
	c := NewCacheWithCapacity(capacity)
	fp := Relaxed(1).fingerprint()
	hotCand, hotExp := guid.Derive("hot-cand"), guid.Derive("hot-exp")
	hotRes := c.put(hotCand, hotExp, fp, &Result{Conformant: true, Reason: "hot"})

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < opsPerG; i++ {
				cand := guid.Derive(fmt.Sprintf("churn-%d-%d-cand", g, i))
				exp := guid.Derive(fmt.Sprintf("churn-%d-%d-exp", g, i))
				got := c.put(cand, exp, fp, &Result{Conformant: i%2 == 0})
				if got == nil {
					t.Error("put returned nil result")
					return
				}
				// Keep the hot pair referenced from every goroutine;
				// when present it must be the canonical pointer.
				if r, ok := c.get(hotCand, hotExp, fp); ok && r != hotRes {
					t.Error("hot result lost canonical identity")
					return
				}
				c.get(cand, exp, fp) // may hit or miss depending on eviction
			}
		}(g)
	}
	wg.Wait()

	if got := c.Len(); got > capacity {
		t.Errorf("Len = %d, exceeds capacity %d", got, capacity)
	}
	hits, misses := c.Stats()
	if hits == 0 || misses == 0 {
		t.Errorf("stats hits=%d misses=%d, both should be nonzero", hits, misses)
	}
	if c.Evictions() == 0 {
		t.Error("expected evictions under churn")
	}
}

// TestUnboundedCacheNeverEvicts pins the historical behaviour of the
// default constructor.
func TestUnboundedCacheNeverEvicts(t *testing.T) {
	c := NewCache()
	if c.Capacity() != 0 {
		t.Fatalf("Capacity = %d, want 0 (unbounded)", c.Capacity())
	}
	fp := Strict().fingerprint()
	const n = cacheShardCount * 10
	for i := 0; i < n; i++ {
		c.put(guid.Derive(fmt.Sprintf("u-cand-%d", i)), guid.Derive(fmt.Sprintf("u-exp-%d", i)),
			fp, &Result{Conformant: true})
	}
	if got := c.Len(); got != n {
		t.Errorf("Len = %d, want %d", got, n)
	}
	if c.Evictions() != 0 {
		t.Errorf("Evictions = %d, want 0", c.Evictions())
	}
}

// TestNewCacheMakesNoShardMaps pins the lazy shards: a new cache is
// one allocation, and a shard makes its map on its first put.
func TestNewCacheMakesNoShardMaps(t *testing.T) {
	if allocs := testing.AllocsPerRun(20, func() { NewCacheWithCapacity(128) }); allocs > 1 {
		t.Errorf("NewCacheWithCapacity allocates %.0f, want 1", allocs)
	}
	c := NewCache()
	r := &Result{Conformant: true}
	a, b := guid.Derive("a"), guid.Derive("b")
	if got := c.put(a, b, "fp", r); got != r {
		t.Fatal("first put did not keep its result")
	}
	if got, ok := c.get(a, b, "fp"); !ok || got != r {
		t.Fatal("put result not found")
	}
	c.Reset()
	if c.Len() != 0 {
		t.Fatalf("Len after Reset = %d", c.Len())
	}
	if _, ok := c.get(a, b, "fp"); ok {
		t.Fatal("entry survived Reset")
	}
	c.put(a, b, "fp", r)
	if c.Len() != 1 {
		t.Fatalf("Len after put following Reset = %d", c.Len())
	}
}
