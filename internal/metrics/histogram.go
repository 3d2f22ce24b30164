package metrics

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// Log-linear latency histogram in the HdrHistogram style: values (in
// nanoseconds) are bucketed by power-of-two magnitude, with each
// magnitude split into 16 linear sub-buckets, giving a worst-case
// relative error of 1/16 (~6%) across the full int64 range. Recording
// is a single atomic add on the bucket plus count/sum/max maintenance,
// so mutators can record pauses concurrently with readers taking
// quantiles; a reader sees each counter atomically but the set of
// counters may be mid-update, which shifts a quantile by at most the
// in-flight recordings.
const (
	histSubBits    = 4
	histSubBuckets = 1 << histSubBits // linear sub-buckets per octave

	// Octaves above the linear range run from magnitude histSubBits
	// (values ≥ 16ns) to 62 (the int64 limit), each contributing
	// histSubBuckets buckets, after the histSubBuckets linear buckets
	// for values 0..15ns.
	histBuckets = (62-histSubBits+1)*histSubBuckets + histSubBuckets
)

// histIndex maps a non-negative nanosecond value to its bucket.
func histIndex(v int64) int {
	u := uint64(v)
	if u < histSubBuckets {
		return int(u)
	}
	k := bits.Len64(u) - 1 // magnitude: position of the leading one
	oct := k - histSubBits + 1
	sub := int(u>>uint(k-histSubBits)) & (histSubBuckets - 1)
	return oct*histSubBuckets + sub
}

// histUpper returns the largest value a bucket can hold — the
// conservative (upper-edge) representative used when reporting
// quantiles.
func histUpper(i int) int64 {
	if i < histSubBuckets {
		return int64(i)
	}
	oct := i / histSubBuckets
	sub := i % histSubBuckets
	return int64(histSubBuckets+sub+1)<<uint(oct-1) - 1
}

// Histogram is a concurrent log-linear latency histogram. The zero
// value is ready to use.
type Histogram struct {
	counts [histBuckets]atomic.Int64
	count  atomic.Int64
	sum    atomic.Int64
	max    atomic.Int64
}

// Record adds one observation. Safe for concurrent use from any number
// of goroutines.
func (h *Histogram) Record(d time.Duration) {
	v := int64(d)
	if v < 0 {
		v = 0
	}
	h.counts[histIndex(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		m := h.max.Load()
		if v <= m || h.max.CompareAndSwap(m, v) {
			return
		}
	}
}

// Count returns the number of recorded observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Max returns the largest recorded observation (exact, not bucketed).
func (h *Histogram) Max() time.Duration { return time.Duration(h.max.Load()) }

// Total returns the sum of all recorded observations.
func (h *Histogram) Total() time.Duration { return time.Duration(h.sum.Load()) }

// Quantile returns the value at quantile q in [0,1]: the upper edge of
// the bucket holding the nearest-rank quantile, the ⌈q·Count⌉-th
// smallest observation, clamped to the exact recorded maximum so that
// Quantile(1) == Max().
func (h *Histogram) Quantile(q float64) time.Duration {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	var cum int64
	for i := range h.counts {
		c := h.counts[i].Load()
		if c == 0 {
			continue
		}
		cum += c
		if cum >= rank {
			v := histUpper(i)
			if m := h.max.Load(); v > m {
				v = m
			}
			return time.Duration(v)
		}
	}
	return h.Max()
}

// MergeInto adds this histogram's observations into dst. Both sides may
// be recorded into concurrently; the merge transfers each bucket
// atomically.
func (h *Histogram) MergeInto(dst *Histogram) {
	for i := range h.counts {
		if c := h.counts[i].Load(); c != 0 {
			dst.counts[i].Add(c)
		}
	}
	dst.count.Add(h.count.Load())
	dst.sum.Add(h.sum.Load())
	v := h.max.Load()
	for {
		m := dst.max.Load()
		if v <= m || dst.max.CompareAndSwap(m, v) {
			return
		}
	}
}

// CumulativeLE returns, for each upper bound (in nanoseconds, ascending),
// how many recorded observations are ≤ that bound — the cumulative
// bucket counts of a Prometheus histogram exposition. Observations are
// attributed by their bucket's upper edge, so the result is conservative
// in the same ≤ ~6% sense as Quantile. The final element of the result
// is the sum of every bucket regardless of the last bound (the +Inf
// bucket). It is taken from the same loads as the rest, not from Count:
// Record and MergeInto add to a bucket before the count, so mid-flight
// the two differ, and an exposition must render its _count from this
// element to stay a valid histogram.
func (h *Histogram) CumulativeLE(bounds []int64) []int64 {
	out := make([]int64, len(bounds)+1)
	var cum int64
	j := 0
	for i := range h.counts {
		c := h.counts[i].Load()
		if c == 0 {
			continue
		}
		upper := histUpper(i)
		for j < len(bounds) && upper > bounds[j] {
			out[j] = cum
			j++
		}
		cum += c
	}
	for ; j < len(bounds); j++ {
		out[j] = cum
	}
	out[len(bounds)] = cum
	return out
}

// PauseStats condenses one pause histogram into the figures the paper
// reports: the distribution tail of mutator-visible delay (the paper's
// maximum-pause claims, Figures 16–21, are the Max column here).
type PauseStats struct {
	// Mutator is the owning mutator's id, or -1 for a fleet-wide
	// aggregate.
	Mutator int `metric:"-"`

	// Count is the number of recorded pauses; Total their sum.
	Count int64
	Total time.Duration

	// P50..P999 are bucketed quantiles (upper bucket edge, ≤ ~6%
	// relative error); Max is the exact largest recorded pause.
	P50, P90, P99, P999, Max time.Duration `metric:"gauge"`
}

// Stats snapshots the histogram as PauseStats attributed to mutator id.
func (h *Histogram) Stats(id int) PauseStats {
	return PauseStats{
		Mutator: id,
		Count:   h.Count(),
		Total:   h.Total(),
		P50:     h.Quantile(0.50),
		P90:     h.Quantile(0.90),
		P99:     h.Quantile(0.99),
		P999:    h.Quantile(0.999),
		Max:     h.Max(),
	}
}
