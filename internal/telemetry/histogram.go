package telemetry

import (
	"math/bits"

	"raidii/internal/sim"
)

// histBuckets is the fixed bucket count: bucket 0 holds zero (and clamped
// negative) durations, bucket i >= 1 holds durations in [2^(i-1), 2^i)
// nanoseconds.  63 value buckets cover every representable sim.Duration,
// so there is no overflow bucket to lose samples in — the top bucket's
// range simply ends at the int64 limit (~292 years), far beyond any
// simulated latency.
const histBuckets = 64

// Histogram is a fixed-size log-2 latency histogram over sim.Duration.
// Memory is constant (64 buckets plus count/sum/min/max) regardless of how
// many samples are observed; quantiles are recovered from the buckets by
// linear interpolation, exact to within a factor-2 bucket width and
// clamped to the observed min/max.
type Histogram struct {
	count   uint64
	sum     int64 // nanoseconds
	min     sim.Duration
	max     sim.Duration
	buckets [histBuckets]uint64
}

// bucketOf maps a duration to its bucket index.
func bucketOf(d sim.Duration) int {
	if d <= 0 {
		return 0
	}
	return bits.Len64(uint64(d))
}

// bucketBounds returns bucket i's value range [lo, hi) in nanoseconds.
func bucketBounds(i int) (lo, hi float64) {
	if i == 0 {
		return 0, 0
	}
	return float64(uint64(1) << (i - 1)), float64(uint64(1) << i)
}

// Observe records one duration.  Negative durations clamp to zero (they
// cannot occur under the engine's monotonic clock, but a histogram must
// not corrupt itself on bad input).
func (h *Histogram) Observe(d sim.Duration) {
	if d < 0 {
		d = 0
	}
	if h.count == 0 || d < h.min {
		h.min = d
	}
	if d > h.max {
		h.max = d
	}
	h.count++
	h.sum += int64(d)
	h.buckets[bucketOf(d)]++
}

// N returns the number of observations.
func (h *Histogram) N() uint64 { return h.count }

// Sum returns the total of all observations.
func (h *Histogram) Sum() sim.Duration { return sim.Duration(h.sum) }

// Min returns the smallest observation, or 0 with none.
func (h *Histogram) Min() sim.Duration {
	if h.count == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest observation, or 0 with none.
func (h *Histogram) Max() sim.Duration { return h.max }

// Mean returns the average observation, or 0 with none.
func (h *Histogram) Mean() sim.Duration {
	if h.count == 0 {
		return 0
	}
	return sim.Duration(h.sum / int64(h.count))
}

// Quantile estimates the q-th quantile (q in [0, 1]) from the buckets: it
// finds the bucket holding the q*N-th observation and interpolates
// linearly within the bucket's range, clamped to the observed min/max so
// single-bucket and extreme quantiles stay tight.  Quantile(0) is the
// minimum, Quantile(1) the maximum; an empty histogram returns 0.
func (h *Histogram) Quantile(q float64) sim.Duration {
	if h.count == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	target := q * float64(h.count)
	var cum float64
	for i, c := range h.buckets {
		if c == 0 {
			continue
		}
		fc := float64(c)
		if cum+fc >= target {
			lo, hi := bucketBounds(i)
			v := lo + (target-cum)/fc*(hi-lo)
			if v < float64(h.min) {
				v = float64(h.min)
			}
			if v > float64(h.max) {
				v = float64(h.max)
			}
			return sim.Duration(v)
		}
		cum += fc
	}
	return h.max
}

// Buckets returns the cumulative bucket counts as (upper-bound, count)
// pairs, one per non-empty value range up to the last occupied bucket.
// Upper bounds are inclusive (Prometheus `le` semantics): bucket i's bound
// is 2^i - 1 ns, the largest duration the bucket holds.
func (h *Histogram) Buckets() []BucketCount {
	last := -1
	for i := histBuckets - 1; i >= 0; i-- {
		if h.buckets[i] > 0 {
			last = i
			break
		}
	}
	if last < 0 {
		return nil
	}
	out := make([]BucketCount, 0, last+1)
	var cum uint64
	for i := 0; i <= last; i++ {
		cum += h.buckets[i]
		if h.buckets[i] == 0 && i != last {
			continue
		}
		var le int64
		if i > 0 {
			le = int64(uint64(1)<<i - 1)
		}
		out = append(out, BucketCount{LE: le, Count: cum})
	}
	return out
}

// BucketCount is one cumulative histogram bucket: Count observations were
// <= LE nanoseconds.
type BucketCount struct {
	LE    int64
	Count uint64
}
