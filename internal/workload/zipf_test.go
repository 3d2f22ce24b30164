package workload

import (
	"math"
	"math/rand"
	"testing"

	"gengc"
)

// TestZipfChiSquared draws a large sample for each matrix skew point
// and checks, chi-squared style, that the empirical rank frequencies
// match the target distribution: the statistic Σ (observed−expected)²/
// expected over the n ranks must stay below a generous p≈1e-4 critical
// value for n−1 degrees of freedom. The draws are seeded, so the test
// is deterministic — the bound guards the generator's shape, not its
// run-to-run luck.
func TestZipfChiSquared(t *testing.T) {
	const (
		ranks   = 64
		samples = 200_000
		// Critical value of χ²(63) at p ≈ 1e-4 is ≈ 117; anything near
		// it means the empirical shape tracks the target closely.
		critical = 120.0
	)
	for _, s := range []float64{0.6, 0.9, 1.2} {
		z := NewZipf(rand.New(rand.NewSource(42)), s, ranks)
		var counts [ranks]int
		for i := 0; i < samples; i++ {
			counts[z.Next()]++
		}
		chi2 := 0.0
		for k := 0; k < ranks; k++ {
			expected := z.Prob(k) * samples
			d := float64(counts[k]) - expected
			chi2 += d * d / expected
		}
		if chi2 > critical {
			t.Errorf("s=%g: chi-squared %.1f > %.1f over %d ranks", s, chi2, critical, ranks)
		}
		// The defining property, independent of the statistic: observed
		// popularity is monotone-ish — rank 0 beats the tail decisively.
		if counts[0] <= counts[ranks-1] {
			t.Errorf("s=%g: rank 0 drawn %d times, tail rank %d — no skew", s, counts[0], counts[ranks-1])
		}
	}
}

// TestZipfSkewOrdering checks that raising s concentrates more mass on
// the hot rank, and that s=0 degenerates to uniform.
func TestZipfSkewOrdering(t *testing.T) {
	const ranks = 128
	prev := -1.0
	for _, s := range []float64{0, 0.6, 0.9, 1.2} {
		z := NewZipf(rand.New(rand.NewSource(1)), s, ranks)
		p0 := z.Prob(0)
		if p0 <= prev {
			t.Errorf("s=%g: P(rank 0)=%g not increasing in s (prev %g)", s, p0, prev)
		}
		prev = p0
		sum := 0.0
		for k := 0; k < ranks; k++ {
			sum += z.Prob(k)
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("s=%g: probabilities sum to %g", s, sum)
		}
	}
	z := NewZipf(rand.New(rand.NewSource(1)), 0, ranks)
	if math.Abs(z.Prob(0)-1.0/ranks) > 1e-9 {
		t.Errorf("s=0: P(rank 0)=%g, want uniform %g", z.Prob(0), 1.0/ranks)
	}
}

// TestZipfDeterminism: the same seed must reproduce the same draw
// sequence exactly — the property the matrix harness relies on to make
// cells comparable across passes and runs.
func TestZipfDeterminism(t *testing.T) {
	a := NewZipf(rand.New(rand.NewSource(7)), 0.9, 1024)
	b := NewZipf(rand.New(rand.NewSource(7)), 0.9, 1024)
	for i := 0; i < 1000; i++ {
		if x, y := a.Next(), b.Next(); x != y {
			t.Fatalf("draw %d: %d != %d under the same seed", i, x, y)
		}
	}
	c := NewZipf(rand.New(rand.NewSource(8)), 0.9, 1024)
	same := true
	for i := 0; i < 1000; i++ {
		if a.Next() != c.Next() {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced an identical 1000-draw sequence")
	}
}

// runProfileThread runs one profile thread against a fresh generational
// runtime and returns the final snapshot. Callers that assert a
// collection happened size ops to cross the young trigger about twice:
// the background collector has to be scheduled and finish a cycle
// before Close, and a trigger that fires in the run's last fifth loses
// that race on a loaded host.
func runProfileThread(t *testing.T, run func(m *gengc.Mutator, ops int) error, ops int) gengc.Snapshot {
	t.Helper()
	rt, err := gengc.New(
		gengc.WithMode(gengc.Generational),
		gengc.WithHeapBytes(32<<20),
		gengc.WithYoungBytes(1<<20),
	)
	if err != nil {
		t.Fatal(err)
	}
	m := rt.NewMutator()
	if err := run(m, ops); err != nil {
		t.Fatal(err)
	}
	m.Detach()
	rt.Close()
	snap := rt.Snapshot()
	if err := rt.Verify(); err != nil {
		t.Fatal(err)
	}
	return snap
}

// TestZipfChurnRuns drives the profile through enough operations to
// trigger partial collections and checks the heap survives Verify and
// the skewed stores produced inter-generational traffic.
func TestZipfChurnRuns(t *testing.T) {
	snap := runProfileThread(t, ZipfChurn{Skew: 1.2, Seed: 3}.RunThread, 60_000)
	if snap.Cycles == 0 {
		t.Error("no collection cycles — workload too small to exercise the matrix")
	}
	if snap.HeapObjects == 0 {
		t.Error("empty heap after run")
	}
}

// TestAuctionRuns drives the auction mix and checks collections
// happened and the verifier stays clean.
func TestAuctionRuns(t *testing.T) {
	snap := runProfileThread(t, Auction{Skew: 1.2, Seed: 5}.RunThread, 160_000)
	if snap.Cycles == 0 {
		t.Error("no collection cycles — workload too small to exercise the matrix")
	}
}

// TestAuctionValidate rejects a broken operation mix.
func TestAuctionValidate(t *testing.T) {
	if err := (Auction{BidFrac: 0.9, ListFrac: 0.2}).Validate(); err == nil {
		t.Error("mix summing past 1 not rejected")
	}
	if err := (Auction{}).Validate(); err != nil {
		t.Errorf("default mix rejected: %v", err)
	}
}
