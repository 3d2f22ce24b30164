package gc

import "gengc/internal/heap"

// Toggle-free creation: §2 describes the original DLG create protocol
// that the color toggle of §5 replaces. Without the toggle there is no
// yellow color and the clear color is always white; the color of a new
// object depends on where the collector is:
//
//	idle                   → white (ready for the next collection)
//	tracing (to sweep)     → black (so the trace need not visit it)
//	sweeping, ahead of the sweep pointer → black (the sweep will pass
//	                         it and recolor it white)
//	sweeping, behind the sweep pointer   → white (already passed; it
//	                         is a candidate for the *next* collection)
//	sweeping, at the sweep pointer       → gray ("some extra care must
//	                         be taken here for possible races between
//	                         the create and the sweep")
//
// The gray case resolves the boundary race at block granularity: a cell
// allocated in the very block the sweep is processing might or might
// not be passed, so it is created gray and pushed to the creating
// mutator's gray buffer — gray survives any sweep, and the buffered
// entry makes the next cycle's trace scan it.
//
// This mode exists for the Remark 5.1 ablation (cmd and benchmarks
// compare it against the toggled baseline) and is only supported for
// the non-generational collector, matching the paper: the generational
// design depends on the toggle to separate yellow from white.

// collectorPhase tracks where the collector is, for toggle-free creation.
type collectorPhase uint32

const (
	phaseIdle collectorPhase = iota
	phaseTracing
	phaseSweeping
)

// createColor picks the color for a new object in toggle-free mode.
// addr is the chosen cell (the caller allocates first, then colors).
func (m *Mutator) createColor(addr heap.Addr) heap.Color {
	switch collectorPhase(m.c.phase.Load()) {
	case phaseTracing:
		return heap.Black
	case phaseSweeping:
		block := int32(addr / heap.BlockSize)
		sweep := m.c.sweepBlock.Load()
		switch {
		case block > sweep:
			return heap.Black
		case block < sweep:
			return heap.White
		default:
			return heap.Gray
		}
	default:
		return heap.White
	}
}

// allocToggleFree is the create routine of the original DLG protocol:
// the cell is taken blue, then colored according to the collector's
// phase; a gray creation is published to the gray buffer so the next
// trace scans it.
func (m *Mutator) allocToggleFree(slots, size int) (heap.Addr, int, error) {
	addr, cell, err := m.c.H.Alloc(&m.cache, slots, size, heap.Blue)
	if err != nil {
		return 0, 0, err
	}
	col := m.createColor(addr)
	m.c.H.SetColor(addr, col)
	if col == heap.Gray {
		m.gray.Lock()
		m.gray.buf = append(m.gray.buf, addr)
		m.gray.Unlock()
		m.c.grayProduced.Add(1)
	}
	return addr, cell, nil
}

// sweepToggleFree is the original DLG sweep: reclaim white cells and
// recolor black cells white as the sweep pointer passes them, so that
// the heap is all-white again at the end — no InitFullCollection pass
// and no color exchange.
func (c *Collector) sweepToggleFree() {
	nBlocks := c.H.NumBlocks()
	for b := 1; b < nBlocks; b++ {
		c.sweepBlock.Store(int32(b))
		// Gray (a boundary creation or a late shade) is left as is; its
		// buffered entry makes the next trace process it.
		n, bytes, _ := c.H.SweepBlock(b, heap.White, nil)
		c.H.RecolorBlock(b, heap.Black, heap.Black, heap.White)
		c.cyc.ObjectsFreed += n
		c.cyc.BytesFreed += bytes
		c.noteFreed(n, bytes)
	}
	c.sweepBlock.Store(int32(nBlocks))
}
