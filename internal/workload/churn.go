package workload

import "gengc"

// BarrierChurn parameterizes the pointer-write-heavy churn loop behind
// cmd/gcmon's demo load and the expvar scrape-agreement test
// (TestMetricsExpvarRoundTrip). Unlike Profile — which calibrates
// allocation/death rates against the paper's benchmarks — this loop is
// deliberately store-dominated: every operation allocates one small
// object and then fans Fanout pointer stores into a long-lived base
// object, so the per-store barrier cost (shading, card marking) is the
// measured quantity rather than allocation or tracing.
//
// The loop is deterministic (no PRNG): two runs with the same
// parameters perform the identical sequence of allocations and stores.
type BarrierChurn struct {
	// BaseObjects is the number of long-lived Fanout-slot objects per
	// mutator; the fan of stores rotates through them. After the first
	// collection they are old (black), so the stores into them are the
	// inter-generational writes that dirty cards.
	BaseObjects int

	// Fanout is the number of pointer stores per operation — the slot
	// count of each base object.
	Fanout int

	// Ring is the rooted window of recently allocated objects; store
	// values are drawn from it, so every store writes a live young
	// reference (an object that rotates out of the ring stays
	// reachable only through the base slots that still hold it).
	Ring int
}

// withDefaults fills unset fields: 64 base objects, fanout 8, a
// 32-object recent ring.
func (c BarrierChurn) withDefaults() BarrierChurn {
	if c.BaseObjects == 0 {
		c.BaseObjects = 64
	}
	if c.Fanout == 0 {
		c.Fanout = 8
	}
	if c.Ring == 0 {
		c.Ring = 32
	}
	return c
}

// RunThread executes ops churn operations on m: per operation, allocate
// one small object into the rooted ring, then store Fanout references
// from the ring into the slots of the next base object (through the
// write barrier), then pass a safe point. It leaves its roots in place;
// callers detach the mutator or pop them.
func (c BarrierChurn) RunThread(m *gengc.Mutator, ops int) error {
	c = c.withDefaults()
	base := make([]gengc.Ref, c.BaseObjects)
	for i := range base {
		obj, err := m.Alloc(c.Fanout, 0)
		if err != nil {
			return err
		}
		m.PushRoot(obj)
		base[i] = obj
		m.Safepoint()
	}
	ring := make([]int, c.Ring)
	for i := range ring {
		ring[i] = m.PushRoot(gengc.Nil)
	}
	for op := 0; op < ops; op++ {
		y, err := m.Alloc(2, 48)
		if err != nil {
			return err
		}
		m.SetRoot(ring[op%c.Ring], y)
		x := base[op%c.BaseObjects]
		for i := 0; i < c.Fanout; i++ {
			// Spread the fan over the ring without a PRNG; the stride
			// keeps consecutive slots from holding the same value.
			m.Write(x, i, m.Root(ring[(op+i*7)%c.Ring]))
		}
		m.Safepoint()
	}
	return nil
}
