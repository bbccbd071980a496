package main

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"
)

// percentile returns the q-quantile (0 < q <= 1) of sorted by the
// nearest-rank rule: the smallest sample with at least q·n samples at
// or below it. It returns 0 for no samples.
func percentile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return sorted[i]
}

// median returns the middle of xs (the mean of the two middle values
// for an even count), leaving xs unchanged.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio divides num by den, reading 0 when there is nothing to divide
// by: a per-op rate over zero ops is no activity, not a failure.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// usOf and nsOf convert a duration to fractional micro/nanoseconds.
func usOf(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func nsOf(d time.Duration) float64 { return float64(d) }

// reservoirCap bounds the latency samples one run keeps. Beyond it
// the recorder keeps a uniform random sample, which leaves p50 and p90
// exact to well under a percent while keeping memory fixed, so the
// sample store does not show up in the heap metrics.
const reservoirCap = 1 << 16

// latencies is a concurrency-safe latency recorder with a fixed-size
// uniform reservoir.
type latencies struct {
	mu      sync.Mutex
	seen    int
	samples []float64 // microseconds
	rng     *rand.Rand
}

func newLatencies(seed int64) *latencies {
	return &latencies{samples: make([]float64, 0, reservoirCap), rng: rand.New(rand.NewSource(seed))}
}

// add records one op's latency.
func (l *latencies) add(d time.Duration) {
	us := usOf(d)
	l.mu.Lock()
	l.seen++
	if len(l.samples) < reservoirCap {
		l.samples = append(l.samples, us)
	} else if j := l.rng.Intn(l.seen); j < reservoirCap {
		l.samples[j] = us
	}
	l.mu.Unlock()
}

// drain returns the p50, the p90 and the number of ops recorded since
// the last drain, and empties the recorder. It sorts the samples in
// place, so draining allocates nothing.
func (l *latencies) drain() (p50, p90 float64, n int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	sort.Float64s(l.samples)
	p50, p90, n = percentile(l.samples, 0.5), percentile(l.samples, 0.9), l.seen
	l.samples, l.seen = l.samples[:0], 0
	return p50, p90, n
}
