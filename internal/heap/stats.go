package heap

import (
	"math/bits"
	"sync/atomic"
)

// Stats is a point-in-time census of the heap's block and object
// population, for diagnostics (cmd/gctrace) and fragmentation analysis.
// Taking a census walks every block; objects allocated or freed
// concurrently may be counted or missed, so treat the numbers as a
// snapshot, exact only at quiescent points.
type Stats struct {
	// Blocks by disposition.
	FreeBlocks  int
	ClassBlocks int
	LargeBlocks int

	// Object census.
	Objects      int
	ObjectBytes  int
	FreeCells    int // blue cells inside assigned blocks
	FreeCellByte int

	// PerClass[i] describes size class i.
	PerClass [NumClasses]ClassStats

	// ColorCounts indexes by Color (Blue..Black); Blue counts free
	// cells in assigned blocks and Black both old codes (Black2 too).
	ColorCounts [5]int

	// Alloc is the tiered allocator's counter snapshot (shard
	// contention, refills, flushes, per-shard free/cached cells),
	// taken at the same census. The shard freeCells/cached counters
	// are the allocator's own accounting; the census FreeCells above
	// is an independent color walk — at quiescence the walk equals
	// Alloc.FreeCells + Alloc.CachedCells (cached cells are blue too).
	Alloc AllocStats
}

// ClassStats is the census of one size class.
type ClassStats struct {
	CellSize  int
	Blocks    int
	Live      int
	FreeCells int
}

// Utilization reports live bytes as a fraction of bytes in assigned
// blocks (1 = no internal fragmentation or free cells at all).
func (s Stats) Utilization() float64 {
	assigned := (s.ClassBlocks + s.LargeBlocks) * BlockSize
	if assigned == 0 {
		return 0
	}
	return float64(s.ObjectBytes) / float64(assigned)
}

// Census walks the heap and returns its population snapshot, counting
// each block's objects by color a color word at a time.
func (h *Heap) Census() Stats {
	var s Stats
	s.Alloc = h.AllocStats()
	for c := 0; c < NumClasses; c++ {
		s.PerClass[c].CellSize = classSizes[c]
	}
	for b := 1; b < h.nBlocks; b++ {
		live := 0
		for i := range h.blockWords(b) {
			w := atomic.LoadUint64(&h.blockWords(b)[i])
			live += bits.OnesCount64(allocated(w))
			for c := White; c <= Black2; c++ {
				s.ColorCounts[min(c, Black)] += bits.OnesCount64(eqMask(w, c))
			}
		}
		s.Objects += live
		switch class := h.blocks[b].class.Load(); class {
		case blockFree:
			s.FreeBlocks++
		case blockLargeCont, blockLargeHead:
			s.LargeBlocks++
			s.ObjectBytes += live * h.SizeOf(Addr(b)*BlockSize)
		default:
			cell, free := classSizes[class], CellsPerBlock(int(class))-live
			s.ClassBlocks++
			s.ObjectBytes += live * cell
			s.FreeCells += free
			s.FreeCellByte += free * cell
			s.ColorCounts[Blue] += free
			cs := &s.PerClass[class]
			cs.Blocks++
			cs.Live += live
			cs.FreeCells += free
		}
	}
	return s
}
