package heap

import (
	"fmt"
	"math/bits"
	"sync/atomic"
)

// lockAll acquires every shard lock in index order, then the page lock —
// the canonical lock order — giving the caller a globally consistent
// view of all central allocator and block-pool state.
func (h *Heap) lockAll() {
	for i := range h.shards {
		h.shards[i].lock()
	}
	h.pages.lock()
}

func (h *Heap) unlockAll() {
	h.pages.unlock()
	for i := len(h.shards) - 1; i >= 0; i-- {
		h.shards[i].unlock()
	}
}

// CheckIntegrity audits the allocator's bookkeeping: block metadata,
// the partial lists, and the blue-cell counts against the color table
// itself. With every shard lock held no block changes hands, so every
// unowned small block's blue cells must equal its freeCells, and those
// sum to the shard's freeCells counter; the owned blocks' counts sum to
// the shard's cached counter, a block is listed as partial exactly when
// it is unowned with a positive count, a free block is all blue, and no
// block without a cell (free, or a large object's continuation) carries
// the all-black hint.
// Owned blocks' colors are not compared here — their counts read high
// by their owners' unpublished claims — but in ReconcileCounters, which
// is exact once every cache has published. Call it when no sweep is
// running (a sweep's uncounted blue cells would read as a mismatch).
func (h *Heap) CheckIntegrity() error { return h.audit(false) }

// audit is CheckIntegrity; owned holds owned blocks' counts to the color
// table too.
func (h *Heap) audit(owned bool) error {
	h.lockAll()
	defer h.unlockAll()
	seenFree := make(map[uint32]bool, len(h.pages.freeBlocks))
	for _, b := range h.pages.freeBlocks {
		if int(b) <= 0 || int(b) >= h.nBlocks {
			return fmt.Errorf("heap: free block index %d out of range", b)
		}
		if seenFree[b] {
			return fmt.Errorf("heap: block %d appears twice in the free pool", b)
		}
		seenFree[b] = true
		if h.blocks[b].class.Load() != blockFree {
			return fmt.Errorf("heap: block %d in free pool but has class %d", b, h.blocks[b].class.Load())
		}
	}
	listed := make(map[uint32]bool)
	for class := range h.partial {
		for _, b := range h.partial[class] {
			if listed[b] {
				return fmt.Errorf("heap: block %d appears twice on the partial lists", b)
			}
			listed[b] = true
			if got := h.blocks[b].class.Load(); got != int32(class) {
				return fmt.Errorf("heap: block %d of class %d on partial list %d", b, got, class)
			}
		}
	}
	var freeByShard, cachedByShard [NumClasses]int64
	for b := 1; b < h.nBlocks; b++ {
		bm := &h.blocks[b]
		class := bm.class.Load()
		if !h.HoldsCells(b) && bm.allBlack.Load() {
			// The sweep skips these blocks and never rewrites their
			// hint, so a set one would outlive the block's next use.
			return fmt.Errorf("heap: block %d holds no cell (class %d) but carries the all-black hint", b, class)
		}
		switch class {
		case blockFree:
			if !seenFree[uint32(b)] {
				return fmt.Errorf("heap: block %d marked free but not in free pool", b)
			}
			// formatBlock relies on a free block being all blue.
			for i := range h.blockWords(b) {
				if w := atomic.LoadUint64(&h.blockWords(b)[i]); w != 0 {
					return fmt.Errorf("heap: free block %d has color word %d = %#x, want all blue", b, i, w)
				}
			}
		case blockLargeHead:
			n := int(bm.nBlocks.Load())
			if n < 1 || b+n > h.nBlocks {
				return fmt.Errorf("heap: large object at block %d spans %d blocks out of range", b, n)
			}
			for i := 1; i < n; i++ {
				if h.blocks[b+i].class.Load() != blockLargeCont {
					return fmt.Errorf("heap: block %d should continue large object at %d", b+i, b)
				}
			}
		case blockLargeCont:
			// validated via its head
		default:
			if class < 0 || int(class) >= NumClasses {
				return fmt.Errorf("heap: block %d has invalid class %d", b, class)
			}
			if want := !bm.owned && bm.freeCells > 0; listed[uint32(b)] != want {
				return fmt.Errorf("heap: block %d (owned %v, %d free cells) on partial list: %v, want %v",
					b, bm.owned, bm.freeCells, listed[uint32(b)], want)
			}
			if blue := h.blueCells(b, int(class)); blue != bm.freeCells && (owned || !bm.owned) {
				return fmt.Errorf("heap: block %d (owned %v) free count %d, color table holds %d blue cells",
					b, bm.owned, bm.freeCells, blue)
			}
			if bm.owned {
				cachedByShard[class] += int64(bm.freeCells)
			} else {
				freeByShard[class] += int64(bm.freeCells)
			}
		}
	}
	for i := range h.shards {
		s := &h.shards[i]
		if got := s.freeCells.Load(); got != freeByShard[i] {
			return fmt.Errorf("heap: shard %d freeCells counter %d, unowned blocks hold %d", i, got, freeByShard[i])
		}
		if got := s.cached.Load(); got != cachedByShard[i] {
			return fmt.Errorf("heap: shard %d cached counter %d, owned blocks hold %d", i, got, cachedByShard[i])
		}
	}
	if h.pages.largeBytes.Load() < 0 || h.pages.largeObjects.Load() < 0 {
		return fmt.Errorf("heap: negative large-object accounting: %d bytes, %d objects",
			h.pages.largeBytes.Load(), h.pages.largeObjects.Load())
	}
	return nil
}

// ReconcileCounters is CheckIntegrity with every small block's count —
// owned blocks included — held to the blue cells the color table holds
// for it, and the shard allocation totals to a color census. It is
// exact only at quiescence (no mutators allocating, no sweep freeing)
// AND once every live cache has published its pending claims — Flush
// and refill publish implicitly, PublishAllocs on demand. Tests and the
// collector's Verify (which publishes every registered mutator's cache
// first) call it at such points.
func (h *Heap) ReconcileCounters() error {
	if err := h.audit(true); err != nil {
		return err
	}
	s := h.Census()
	if int64(s.ObjectBytes) != h.AllocatedBytes() {
		return fmt.Errorf("heap: allocated-bytes counters say %d, census says %d",
			h.AllocatedBytes(), s.ObjectBytes)
	}
	if int64(s.Objects) != h.AllocatedObjects() {
		return fmt.Errorf("heap: allocated-objects counters say %d, census says %d",
			h.AllocatedObjects(), s.Objects)
	}
	return nil
}

// blueCells counts the blue cells of small block b of the class — the
// free list itself, read off the color table.
func (h *Heap) blueCells(b, class int) int32 {
	n := CellsPerBlock(class)
	for i := range h.blockWords(b) {
		n -= bits.OnesCount64(allocated(atomic.LoadUint64(&h.blockWords(b)[i])))
	}
	return int32(n)
}

// CountColor returns how many allocated objects currently have color c,
// counting both old codes as Black (as Census does); test helper.
func (h *Heap) CountColor(c Color) int { return h.Census().ColorCounts[min(c, Black)] }
