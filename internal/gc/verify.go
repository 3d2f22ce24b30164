package gc

import (
	"fmt"

	"gengc/internal/heap"
)

// Verify audits heap reachability and collector invariants. It must be
// called while the mutators are quiescent (externally synchronized with
// the verifying goroutine) and no collection cycle is running; the usual
// pattern in tests is to join the worker goroutines first.
//
// Checks:
//   - allocator bookkeeping (delegated to heap.CheckIntegrity),
//   - exact shard-counter reconciliation — cached cells and allocation
//     totals against the per-block state and a color census — which is
//     only meaningful at quiescence (heap.ReconcileCounters),
//   - every address reachable from the global roots and the registered
//     mutators' roots is a valid, allocated (not blue) object start —
//     i.e. the collector never freed a live object. This is the model
//     checker's lost-object walk, CheckReachableAllocated.
func (c *Collector) Verify() error {
	c.cycleMu.Lock()
	defer c.cycleMu.Unlock()
	// Fold every attached mutator's pending allocation accounting into
	// the shard counters and the collector's totals so the
	// reconciliation below is exact. Safe because Verify's contract is
	// quiescence: the owners are not allocating while we touch their
	// caches and pending counts.
	c.muts.Lock()
	attached := append([]*Mutator(nil), c.muts.list...)
	c.muts.Unlock()
	for _, m := range attached {
		c.H.PublishAllocs(&m.cache)
		m.publishAllocs()
	}
	if err := c.H.CheckIntegrity(); err != nil {
		return err
	}
	if err := c.H.ReconcileCounters(); err != nil {
		return err
	}
	// With every cache and mutator published both sets of counters are
	// exact, so the collector's totals must agree with the heap's to
	// the object.
	if got, want := c.HeapBytes(), c.H.AllocatedBytes(); got != want {
		return fmt.Errorf("gc: collector heap-bytes total %d, heap counters say %d", got, want)
	}
	if got, want := c.HeapObjects(), c.H.AllocatedObjects(); got != want {
		return fmt.Errorf("gc: collector heap-objects total %d, heap counters say %d", got, want)
	}
	return c.CheckReachableAllocated()
}

// VerifyCardInvariant checks the generational invariant of §3.1: every
// inter-generational pointer (a pointer from an old object to a young
// one) lies on a dirty card. Like Verify it requires quiescence. Only
// meaningful for the generational modes; in the simple-promotion mode
// old means the old code, in the aging mode the old code and tenured.
func (c *Collector) VerifyCardInvariant() error {
	if !c.cfg.Mode.IsGenerational() {
		return nil
	}
	c.cycleMu.Lock()
	defer c.cycleMu.Unlock()
	oldest, old := c.oldestAge(), c.OldColor()
	var firstErr error
	c.H.ForEachObject(func(addr heap.Addr) {
		if firstErr != nil {
			return
		}
		if c.H.Color(addr) != old {
			return
		}
		if c.cfg.Mode == GenerationalAging && c.H.Age(addr) < oldest {
			return
		}
		if addr == c.globals {
			// The globals object is re-grayed as a root every
			// cycle, so it is exempt from the card discipline.
			return
		}
		slots := c.H.Slots(addr)
		for i := 0; i < slots; i++ {
			t := c.H.LoadSlot(addr, i)
			if t == 0 {
				continue
			}
			col := c.H.Color(t)
			young := col != old && col != heap.Blue
			if c.cfg.Mode == GenerationalAging && col == old && c.H.Age(t) < oldest {
				young = true
			}
			if young && !c.Cards.IsDirty(c.Cards.IndexOf(addr)) {
				firstErr = fmt.Errorf(
					"gc: inter-generational pointer %#x[%d] -> %#x (%v) on clean card %d",
					addr, i, t, col, c.Cards.IndexOf(addr))
				return
			}
		}
	})
	return firstErr
}
