package workload

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"gengc"
)

// Zipf draws ranks 0..n-1 with P(rank = k) ∝ 1/(k+1)^s: rank 0 is the
// most popular object, rank 1 the second, and so on, with the skew
// exponent s controlling how steeply popularity falls off. s = 0 is the
// uniform distribution; s ≈ 0.6 is mild skew; s ≈ 0.9 matches the
// classic web/OLTP popularity measurements; s ≥ 1.2 concentrates most
// of the probability mass on a handful of hot ranks.
//
// Unlike math/rand's Zipf, any s > 0 is supported (the s ∈ {0.6, 0.9}
// points of the contention matrix are below rand.NewZipf's s > 1
// domain). Draws invert a precomputed CDF with a binary search, so a
// generator costs O(n) to build and O(log n) per draw, and the sequence
// is fully determined by the seed of the supplied *rand.Rand.
type Zipf struct {
	rng *rand.Rand
	cdf []float64
}

// NewZipf builds a generator over n ranks with skew s, drawing from
// rng. It panics on n <= 0 or s < 0 (a workload configuration error).
func NewZipf(rng *rand.Rand, s float64, n int) *Zipf {
	if n <= 0 || s < 0 {
		panic(fmt.Sprintf("workload.NewZipf: need n > 0 and s >= 0, got n=%d s=%g", n, s))
	}
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += math.Pow(float64(i+1), -s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	cdf[n-1] = 1 // guard against rounding leaving the last bucket short
	return &Zipf{rng: rng, cdf: cdf}
}

// Next draws one rank in [0, n).
func (z *Zipf) Next() int {
	return sort.SearchFloat64s(z.cdf, z.rng.Float64())
}

// Prob returns the probability of rank k (for tests and expected-value
// calculations).
func (z *Zipf) Prob(k int) float64 {
	if k == 0 {
		return z.cdf[0]
	}
	return z.cdf[k] - z.cdf[k-1]
}

// ZipfChurn is the Zipf-popularity object-graph profile of the
// contention matrix (cmd/gcsweep): a table of long-lived objects whose
// popularity follows a Zipf distribution, mutated by a stream of young
// allocations. Every operation allocates one short-lived object and
// stores it into a Zipf-chosen table object, so hot table objects
// receive a skewed share of the pointer mutations — after the first
// collection the table is old (black) and every such store is an
// inter-generational write. High skew therefore concentrates card marks
// on a few cards and focuses allocation-death traffic on a few
// size-class shards; low skew spreads the same store volume across the
// table.
// This is the popularity shape that "millions of users" traffic
// actually has, and it is exactly what the uniform churn loop
// (BarrierChurn) cannot express.
//
// The profile is deterministic under a fixed Seed: two runs with the
// same parameters perform the identical sequence of allocations,
// draws and stores.
type ZipfChurn struct {
	// Objects is the popularity-table size (ranks of the Zipf draw).
	// Default 512.
	Objects int

	// Slots is the pointer-slot count of each table object; stores
	// into an object rotate through its slots, so each table object
	// retains at most Slots young objects. Default 8.
	Slots int

	// Skew is the Zipf exponent s. Default 0.9.
	Skew float64

	// Ring is the rooted window of recent young allocations (the
	// die-young nursery). Default 64.
	Ring int

	// ReadEvery, when positive, makes every ReadEvery-th operation a
	// pointer-chase read of a Zipf-chosen table object instead of an
	// allocate-and-store (a browse against the same hot set). Default
	// 8; negative disables reads.
	ReadEvery int

	// Seed anchors the profile's random stream. Threads running
	// concurrently must use distinct seeds (the matrix harness offsets
	// the seed per thread).
	Seed int64
}

// withDefaults fills unset fields.
func (c ZipfChurn) withDefaults() ZipfChurn {
	if c.Objects == 0 {
		c.Objects = 512
	}
	if c.Slots == 0 {
		c.Slots = 8
	}
	if c.Skew == 0 {
		c.Skew = 0.9
	}
	if c.Ring == 0 {
		c.Ring = 64
	}
	if c.ReadEvery == 0 {
		c.ReadEvery = 8
	}
	return c
}

// RunThread executes ops operations on m: build the rooted popularity
// table, then per operation either allocate one young object and store
// it into a Zipf-chosen table object (rotating through the object's
// slots) or chase pointers from a Zipf-chosen table object. Roots are
// left in place; callers detach the mutator or pop them.
func (c ZipfChurn) RunThread(m *gengc.Mutator, ops int) error {
	c = c.withDefaults()
	rng := rand.New(rand.NewSource(c.Seed))
	z := NewZipf(rng, c.Skew, c.Objects)

	table := make([]gengc.Ref, c.Objects)
	for i := range table {
		obj, err := m.Alloc(c.Slots, 0)
		if err != nil {
			return err
		}
		m.PushRoot(obj)
		table[i] = obj
		m.Safepoint()
	}
	ring := make([]int, c.Ring)
	for i := range ring {
		ring[i] = m.PushRoot(gengc.Nil)
	}
	nextSlot := make([]int, c.Objects)
	var sink uint64
	for op := 0; op < ops; op++ {
		rank := z.Next()
		if c.ReadEvery > 0 && op%c.ReadEvery == c.ReadEvery-1 {
			// Browse: walk a few pointers from the hot object.
			x := table[rank]
			for d := 0; d < 3 && x != gengc.Nil; d++ {
				x = m.Read(x, d%c.Slots)
			}
			sink += uint64(x)
		} else {
			y, err := m.Alloc(2, 48)
			if err != nil {
				return err
			}
			m.SetRoot(ring[op%c.Ring], y)
			obj := table[rank]
			m.Write(obj, nextSlot[rank], y)
			nextSlot[rank] = (nextSlot[rank] + 1) % c.Slots
		}
		m.Safepoint()
	}
	_ = sink
	return nil
}
