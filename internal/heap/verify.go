package heap

import (
	"fmt"
	"sync/atomic"
)

// lockAll acquires every shard lock in index order, then the page lock —
// the canonical lock order — giving the caller a globally consistent
// view of all central free-list and block-pool state.
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
// free-list structure, the blue-color discipline, and the per-shard
// freeCells counters (which must equal the sum of the block free lists
// they cover — the lists and counters only move under the shard locks,
// all of which are held). Cached-cell counters are only checked for
// non-negativity here: the allocation fast path defers its accounting
// in the mutator cache (cached counts read high, allocation totals read
// low — and transiently even negative when frees outrun an unpublished
// run — by the open runs), so they are exact only once every cache has
// published (see ReconcileCounters).
func (h *Heap) CheckIntegrity() error {
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
	var freeByShard [NumClasses]int64
	for b := 1; b < h.nBlocks; b++ {
		bm := &h.blocks[b]
		switch class := bm.class.Load(); class {
		case blockFree:
			if !seenFree[uint32(b)] {
				return fmt.Errorf("heap: block %d marked free but not in free pool", b)
			}
		case blockLargeHead:
			n := int(bm.nBlocks)
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
			if err := h.checkBlockFreeList(b, bm); err != nil {
				return err
			}
			freeByShard[class] += int64(bm.freeCells)
		}
	}
	for i := range h.shards {
		s := &h.shards[i]
		if got := s.freeCells.Load(); got != freeByShard[i] {
			return fmt.Errorf("heap: shard %d freeCells counter %d, block lists hold %d", i, got, freeByShard[i])
		}
		if s.cached.Load() < 0 {
			return fmt.Errorf("heap: shard %d negative cached count %d", i, s.cached.Load())
		}
	}
	if h.pages.largeBytes.Load() < 0 || h.pages.largeObjects.Load() < 0 {
		return fmt.Errorf("heap: negative large-object accounting: %d bytes, %d objects",
			h.pages.largeBytes.Load(), h.pages.largeObjects.Load())
	}
	return nil
}

// ReconcileCounters cross-checks the shard cached counters against the
// per-block cached counts, and the shard allocation totals against a
// color census. It is exact only at quiescence (no mutators allocating,
// no sweep freeing) AND once every live cache has published its pending
// allocation runs — Flush and refill publish implicitly, PublishAllocs
// on demand. Tests and the collector's Verify (which publishes every
// registered mutator's cache first) call it at such points.
func (h *Heap) ReconcileCounters() error {
	var cachedByShard [NumClasses]int64
	for b := 1; b < h.nBlocks; b++ {
		bm := &h.blocks[b]
		if class := bm.class.Load(); class >= 0 {
			cachedByShard[class] += int64(bm.cached.Load())
		}
	}
	for i := range h.shards {
		if got := h.shards[i].cached.Load(); got != cachedByShard[i] {
			return fmt.Errorf("heap: shard %d cached counter %d, blocks hold %d", i, got, cachedByShard[i])
		}
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

// checkBlockFreeList walks one block's free list. Caller holds the
// block's class shard lock.
func (h *Heap) checkBlockFreeList(b int, bm *blockMeta) error {
	class := int(bm.class.Load())
	cell := classSizes[class]
	count := int32(0)
	limit := int32(CellsPerBlock(class))
	for addr := bm.freeHead; addr != 0; {
		if int(addr)/BlockSize != b {
			return fmt.Errorf("heap: block %d free list escapes to address %#x", b, addr)
		}
		if int(addr)%BlockSize%cell != 0 {
			return fmt.Errorf("heap: block %d free list has misaligned cell %#x", b, addr)
		}
		if h.Color(addr) != Blue {
			return fmt.Errorf("heap: free cell %#x has color %v, want blue", addr, h.Color(addr))
		}
		count++
		if count > limit {
			return fmt.Errorf("heap: block %d free list longer than %d cells (cycle?)", b, limit)
		}
		addr = atomic.LoadUint32(&h.mem[addr/WordBytes])
	}
	if count != bm.freeCells {
		return fmt.Errorf("heap: block %d free count %d, list length %d", b, bm.freeCells, count)
	}
	if bm.cached.Load() < 0 {
		return fmt.Errorf("heap: block %d negative cached count %d", b, bm.cached.Load())
	}
	return nil
}

// CountColor returns how many allocated objects currently have color c;
// test helper.
func (h *Heap) CountColor(c Color) int {
	n := 0
	h.ForEachObject(func(addr Addr) {
		if h.Color(addr) == c {
			n++
		}
	})
	return n
}
