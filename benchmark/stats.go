package main

import (
	"math"
	"math/bits"
	"sort"
	"syscall"
	"time"
)

var epoch = time.Now()

// now is the benchmark's clock: nanoseconds on the monotonic clock since
// the process started (one clock read, where time.Now makes two).
func now() int64 { return int64(time.Since(epoch)) }

// cpuNow is the process's user+system CPU time: every thread, so the
// collector's work counts as well as the mutator's.
func cpuNow() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// quantile is the q-quantile of sorted values, interpolating linearly
// between the two nearest ranks.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(sorted)-1)
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(xs, n=4) does (the method the acceptance check
// uses), or the extremes when there are fewer than two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n < 2 {
		if n == 0 {
			return 0, 0
		}
		return s[0], s[0]
	}
	at := func(k int) float64 { // k-th of 4 cut points, exclusive method
		pos := float64(k*(n+1))/4 - 1
		pos = max(0, min(pos, float64(n-1))) // two values: Python extrapolates, this does not
		lo := min(int(math.Floor(pos)), n-2)
		return s[lo] + (s[lo+1]-s[lo])*(pos-float64(lo))
	}
	return at(1), at(3)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// loghist is a log-linear histogram of nanosecond durations: 8 linear
// sub-buckets per power of two, so a quantile is exact to about 6 %.
// The traced run folds > 10⁷ call spans into these instead of keeping
// them.
type loghist [64 * 8]int64

func histIndex(ns int64) int {
	u := uint64(max(ns, 0))
	if u < 8 {
		return int(u)
	}
	k := bits.Len64(u) - 1
	return (k-2)*8 + int(u>>uint(k-3))&7
}

func (h *loghist) add(ns int64) { h[histIndex(ns)]++ }

// quantile returns the midpoint of the bucket holding the q-quantile.
func (h *loghist) quantile(q float64) float64 {
	var n int64
	for _, c := range h {
		n += c
	}
	if n == 0 {
		return 0
	}
	rank := max(int64(math.Ceil(q*float64(n))), 1)
	var cum int64
	for i, c := range h {
		cum += c
		if cum >= rank {
			if i < 8 {
				return float64(i)
			}
			k, sub := i/8+2, i%8
			lo := float64(uint64(8+sub) << uint(k-3))
			return lo + float64(uint64(1)<<uint(k-3))/2
		}
	}
	return 0
}

// fracAtLeast is the share of observations in buckets at or above ns.
func (h *loghist) fracAtLeast(ns int64) float64 {
	first := histIndex(ns)
	var n, above int64
	for i, c := range h {
		n += c
		if i >= first {
			above += c
		}
	}
	return ratio(float64(above), float64(n))
}
