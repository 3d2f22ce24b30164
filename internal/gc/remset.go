package gc

import (
	"gengc/internal/fault"
	"gengc/internal/heap"
)

// Remembered-set support: §3.1 discusses the choice between card marking
// and remembered sets for tracking inter-generational pointers and notes
// the authors used only card marking (no free header bit, and Java's
// high update rate). This file implements the road not taken, as an
// extension: the write barrier records updated *old* (black) objects in
// a per-mutator buffer instead of marking cards, and the collector
// re-grays the recorded objects at the start of a partial collection.
//
// The simple promotion scheme makes the set discardable per cycle: every
// survivor is promoted, so recorded inter-generational pointers become
// intra-generational, exactly like the unconditional card clearing of
// §3.2. The variant is only supported with Mode == Generational.

// remember records an updated object for the next partial collection.
// Only black (old) objects matter — pointers from young objects are
// reached by the ordinary young trace — which is the filtering the paper
// mentions skipping in its card-marking collector.
func (m *Mutator) remember(x heap.Addr) {
	if m.c.H.Color(x) != heap.Black {
		return
	}
	m.rem.Lock()
	m.rem.buf = append(m.rem.buf, x)
	m.rem.Unlock()
}

// drainRememberedSet replaces ClearCards in a remembered-set partial
// collection: every recorded old object is re-grayed so the trace scans
// it for pointers into the young generation. Duplicates are cheap: the
// black→gray CAS admits each object once.
func (c *Collector) drainRememberedSet() {
	c.muts.Lock()
	snapshot := append([]*Mutator(nil), c.muts.list...)
	c.muts.Unlock()
	w0 := c.workers[0]
	drain := func(buf []heap.Addr) {
		if len(buf) == 0 {
			return
		}
		// Per-buffer seam hit (delay only): the inter-generational
		// re-scan ordering step of a remembered-set partial — the
		// remset counterpart of the card scan's §7.2 window.
		c.seamDelay(fault.RemsetDrain)
		for _, x := range buf {
			c.H.Pages.TouchHeap(x, 1)
			if c.H.Color(x) == heap.Black && c.H.CasColor(x, heap.Black, heap.Gray) {
				w0.stack = append(w0.stack, x)
				size := c.H.SizeOf(x)
				c.cyc.InterGenScanned++
				c.cyc.InterGenBytes += size
				c.cyc.AreaScanned += size
			}
		}
	}
	for _, m := range snapshot {
		m.rem.Lock()
		buf := m.rem.buf
		m.rem.buf = nil
		m.rem.Unlock()
		drain(buf)
	}
	c.remOrphans.Lock()
	buf := c.remOrphans.buf
	c.remOrphans.buf = nil
	c.remOrphans.Unlock()
	drain(buf)
}
