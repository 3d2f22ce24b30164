package metrics

import (
	"math"
	"sync"
	"testing"
	"time"
)

// TestHistIndexBoundaries checks the bucket function directly: indices
// are monotone in the value, every value fits under its bucket's upper
// edge, and the upper edge is within the advertised ~6% relative error.
func TestHistIndexBoundaries(t *testing.T) {
	// The linear range buckets each value exactly.
	for v := int64(0); v < histSubBuckets; v++ {
		if got := histIndex(v); got != int(v) {
			t.Errorf("histIndex(%d) = %d, want %d", v, got, v)
		}
		if got := histUpper(int(v)); got != v {
			t.Errorf("histUpper(%d) = %d, want %d", v, got, v)
		}
	}
	probe := []int64{
		15, 16, 17, 31, 32, 33, 100, 1000, 4095, 4096, 4097,
		1e6, 1e9, 123456789, math.MaxInt64 / 2, math.MaxInt64,
	}
	for _, v := range probe {
		i := histIndex(v)
		if i < 0 || i >= histBuckets {
			t.Fatalf("histIndex(%d) = %d out of range [0,%d)", v, i, histBuckets)
		}
		upper := histUpper(i)
		if v > upper {
			t.Errorf("value %d above its bucket's upper edge %d", v, upper)
		}
		if i > 0 {
			if below := histUpper(i - 1); v <= below {
				t.Errorf("value %d fits bucket %d (upper %d) but was indexed to %d",
					v, i-1, below, i)
			}
		}
		// Relative error of reporting the upper edge: bounded by the
		// sub-bucket width, 1/16.
		if v >= histSubBuckets {
			if err := float64(upper-v) / float64(v); err > 1.0/histSubBuckets {
				t.Errorf("value %d: upper edge %d has relative error %.3f > 1/%d",
					v, upper, err, histSubBuckets)
			}
		}
	}
	// Index monotonicity over a dense sweep of magnitudes.
	prev := -1
	for k := 0; k < 62; k++ {
		for _, v := range []int64{1 << k, 1<<k + 1<<k/2, 1<<(k+1) - 1} {
			i := histIndex(v)
			if i < prev {
				t.Fatalf("histIndex not monotone at %d: %d < %d", v, i, prev)
			}
			prev = i
		}
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	if got := h.Quantile(0.5); got != 0 {
		t.Errorf("empty histogram quantile = %v, want 0", got)
	}
	// 1..1000µs uniformly: p50 ≈ 500µs, p99 ≈ 990µs within bucket error.
	for i := 1; i <= 1000; i++ {
		h.Record(time.Duration(i) * time.Microsecond)
	}
	if h.Count() != 1000 {
		t.Fatalf("count = %d, want 1000", h.Count())
	}
	if got, want := h.Max(), 1000*time.Microsecond; got != want {
		t.Errorf("max = %v, want exact %v", got, want)
	}
	checkQ := func(q float64, want time.Duration) {
		got := h.Quantile(q)
		if got < want || float64(got) > float64(want)*(1+1.0/histSubBuckets)+1 {
			t.Errorf("Quantile(%v) = %v, want in [%v, %v+6%%]", q, got, want, want)
		}
	}
	checkQ(0.50, 500*time.Microsecond)
	checkQ(0.90, 900*time.Microsecond)
	checkQ(0.99, 990*time.Microsecond)
	if got := h.Quantile(1.0); got != h.Max() {
		t.Errorf("Quantile(1) = %v, want Max() = %v", got, h.Max())
	}
	// Quantiles are monotone in q and never exceed the exact max.
	prev := time.Duration(0)
	for q := 0.0; q <= 1.0; q += 0.01 {
		v := h.Quantile(q)
		if v < prev {
			t.Fatalf("Quantile(%v) = %v < Quantile at lower q = %v", q, v, prev)
		}
		if v > h.Max() {
			t.Fatalf("Quantile(%v) = %v exceeds max %v", q, v, h.Max())
		}
		prev = v
	}
}

// TestHistogramQuantileNearestRank: a quantile is the bucket of the
// ⌈q·n⌉-th smallest observation, never a lower one, so the upper edge
// bounds the exact nearest-rank quantile from above.
func TestHistogramQuantileNearestRank(t *testing.T) {
	var h Histogram
	for _, d := range []time.Duration{1000, 3000, 7000} {
		h.Record(d)
	}
	for _, c := range []struct {
		q    float64
		want time.Duration
	}{{0.2, 1023}, {0.5, 3071}, {0.67, 7000}, {1, 7000}} {
		if got := h.Quantile(c.q); got != c.want {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestHistogramMerge(t *testing.T) {
	var a, b, dst Histogram
	for i := 0; i < 100; i++ {
		a.Record(time.Duration(i) * time.Microsecond)
		b.Record(time.Duration(i) * time.Millisecond)
	}
	a.MergeInto(&dst)
	b.MergeInto(&dst)
	if got := dst.Count(); got != 200 {
		t.Fatalf("merged count = %d, want 200", got)
	}
	if got, want := dst.Max(), b.Max(); got != want {
		t.Errorf("merged max = %v, want %v", got, want)
	}
	if got, want := dst.Total(), a.Total()+b.Total(); got != want {
		t.Errorf("merged total = %v, want %v", got, want)
	}
	// The upper half of the merged distribution is b's milliseconds.
	if p90 := dst.Quantile(0.90); p90 < time.Millisecond {
		t.Errorf("merged p90 = %v, want ≥ 1ms", p90)
	}
}

// TestCumulativeLEInFlightRecord: a Record caught between its bucket
// add and its count add must still yield a valid cumulative series —
// monotone, ending (+Inf) at the bucket sum, not at the lagging count.
func TestCumulativeLEInFlightRecord(t *testing.T) {
	var h Histogram
	h.Record(3 * time.Microsecond)
	h.Record(2 * time.Millisecond)
	h.counts[histIndex(int64(5*time.Millisecond))].Add(1) // in flight: no count yet
	bounds := []int64{int64(time.Microsecond), int64(time.Millisecond), int64(10 * time.Millisecond)}
	cum := h.CumulativeLE(bounds)
	for i := 1; i < len(cum); i++ {
		if cum[i] < cum[i-1] {
			t.Fatalf("cumulative series %v not monotone at %d", cum, i)
		}
	}
	if got := cum[len(bounds)]; got != 3 {
		t.Fatalf("+Inf = %d, want the bucket sum 3 (series %v, count %d)", got, cum, h.Count())
	}
}

// TestHistogramRaceConcurrentRecord hammers one histogram from many
// goroutines while a reader takes quantiles; run under -race via the
// Makefile's race target.
func TestHistogramRaceConcurrentRecord(t *testing.T) {
	var h Histogram
	const writers, perWriter = 8, 5000
	var writerWG, readerWG sync.WaitGroup
	stop := make(chan struct{})
	readerWG.Add(1)
	go func() { // concurrent reader
		defer readerWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = h.Quantile(0.99)
				_ = h.Stats(-1)
			}
		}
	}()
	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func(w int) {
			defer writerWG.Done()
			for i := 0; i < perWriter; i++ {
				h.Record(time.Duration(w*1000+i) * time.Nanosecond)
			}
		}(w)
	}
	writerWG.Wait()
	close(stop)
	readerWG.Wait()
	if got := h.Count(); got != writers*perWriter {
		t.Fatalf("count = %d, want %d", got, writers*perWriter)
	}
	want := time.Duration((writers-1)*1000+perWriter-1) * time.Nanosecond
	if got := h.Max(); got != want {
		t.Fatalf("max = %v, want %v", got, want)
	}
}
