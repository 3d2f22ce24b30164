package heap

import (
	"math/bits"
	"sync/atomic"
)

// Cache is a mutator's allocation state: at most one owned block per
// size class and a cursor into that block's color entries. The color
// table is the free list — a cell is free iff it is blue — so the cache
// holds no cells, only the right to claim the blue cells of its blocks.
// It is the stand-in for the DLG thread-local allocation mechanism the
// paper mentions in §7: the common allocation path takes no lock, one
// atomic (the color publication) and touches no cell memory beyond the
// slots it zeroes and their count; the accounting for claimed cells is
// deferred in pend and published in one step (see publishClaims).
type Cache struct {
	cls [NumClasses]classCursor
}

// classCursor is a cache's hold on one size class. cur is the granule
// index of the next color entry to examine in the owned block and end
// the index one past the block's last cell; cur == end means the block
// has nothing left to claim, and both zero that no block is owned
// (block 0 never holds cells). stride is the class's cell size in
// granules, set with the block. pend counts the cells claimed since the
// last publication, all from the owned block.
type classCursor struct {
	cur, end, stride uint32
	pend             int32
}

// block returns the index of the owned block; end must be nonzero.
func (cc *classCursor) block() uint32 { return (cc.end - 1) / (BlockSize / Granule) }

// Claim is the create's lock-free step: it takes the next blue cell of
// the cache's owned block of the class and publishes it as an object
// with the given number of pointer slots (zeroed) and color col. It
// returns 0 when the block has no blue cell left or no block is owned;
// Alloc then refills. The caller supplies the class (ClassFor) and
// charges the cell.
//
// The claim is a scan of the owned block's color bytes, at cell stride
// from the cursor and one load per word, for the next zero one: only the
// owner claims in its block, so a cell seen blue stays blue for it. A
// scan that finds none leaves the cursor at the end, so the refill's
// caller does not rescan the block.
func (h *Heap) Claim(c *Cache, class, slots int, col Color) Addr {
	cc := &c.cls[class]
	var w uint64
	for g, wi := cc.cur, ^uint32(0); g < cc.end; g += cc.stride {
		if g/8 != wi {
			wi = g / 8
			w = atomic.LoadUint64(&h.colors[wi])
		}
		if uint8(w>>(g%8*8)) == 0 {
			cc.cur = g + cc.stride
			cc.pend++
			h.publish(g*Granule, slots, col)
			return g * Granule
		}
	}
	cc.cur = cc.end
	return 0
}

// Alloc allocates an object with the given number of pointer slots and a
// total payload of at least size bytes (the header is added on top), and
// colors it with allocColor — the "create" routine of Figure 1. The
// pointer slots are zeroed. It returns the address, or ErrOutOfMemory
// when the heap cannot satisfy the request even from a fresh block; the
// caller is expected to force a collection and retry. ClassFor gives
// the cell size the object occupies.
//
// A small object is a Claim in the owned block or, when that misses, a
// refill and a Claim in the new block, which cannot miss: a block is
// taken only while unowned with a positive count, and an unowned
// block counts no more blue cells than it has (blockMeta.freeCells).
func (h *Heap) Alloc(c *Cache, slots int, size int, allocColor Color) (Addr, error) {
	class, cell := ClassFor(max(size, HeaderBytes+slots*WordBytes))
	if class < 0 {
		addr, err := h.allocLarge(cell)
		if err == nil {
			h.publish(addr, slots, allocColor)
		}
		return addr, err
	}
	if a := h.Claim(c, class, slots, allocColor); a != 0 {
		return a, nil
	}
	if err := h.refill(&c.cls[class], class); err != nil {
		return 0, err
	}
	a := h.Claim(c, class, slots, allocColor)
	if a == 0 {
		panic("heap: a refilled block has no blue cell")
	}
	return a, nil
}

// publish turns the claimed blue cell at addr into a new object of
// color col. The slot count and the zeroed slots are written first: the
// collector reads the color (acquire) before the rest. The byte is zero
// and only this cache writes it while it is, so the color goes in with
// an OR — the one atomic of a pointer-free create, which has no slot
// count to record and so writes no cell memory. The age (aging only)
// needs no store: a blue cell's is zero (SweepBlock).
func (h *Heap) publish(addr Addr, slots int, col Color) {
	b := uint64(col)
	if slots > 0 {
		b |= hasSlots
		base := int(addr) / WordBytes
		atomic.StoreUint32(&h.mem[base], uint32(slots))
		for i := 0; i < slots; i++ {
			atomic.StoreUint32(&h.mem[base+HeaderBytes/WordBytes+i], 0)
		}
	}
	w, s := h.colorByte(addr)
	atomic.OrUint64(w, b<<s)
}

// publishClaims folds the cursor's pending claims — pend cells taken
// from the owned block since the last publication — into the block and
// shard counters. They move by the same amount in one step, so the
// cached-vs-blocks reconcile holds at every publication boundary; the
// allocation totals simply lag the true values by the open claims (at
// most one block's worth of cells per class per cache) until the next
// refill, Flush or PublishAllocs. Caller holds the class shard lock s.
func (h *Heap) publishClaims(cc *classCursor, class int, s *centralShard) {
	n := cc.pend
	if n == 0 {
		return
	}
	h.blocks[cc.block()].freeCells -= n
	s.cached.Add(-int64(n))
	s.allocatedBytes.Add(int64(n) * int64(classSizes[class]))
	s.allocatedObjects.Add(int64(n))
	cc.pend = 0
}

// PublishAllocs folds all of the cache's pending allocation accounting
// into the shard and block counters without giving up any block. Refill
// and Flush publish implicitly; callers that need the global counters
// exact while keeping the cache warm — the verifier, tests asserting on
// AllocatedBytes — call this. The cache's owner must not be allocating
// concurrently.
func (h *Heap) PublishAllocs(c *Cache) {
	for class := range c.cls {
		if cc := &c.cls[class]; cc.pend != 0 {
			s := h.shardFor(class)
			s.lock()
			h.publishClaims(cc, class, s)
			s.unlock()
		}
	}
}

// refill replaces the cursor's exhausted block: the old block is
// released (its claims published, its leftover blue cells — freed
// behind the cursor — offered to everyone again) and the most recently
// listed partial block is taken over whole, or a fresh block formatted
// if the class has none. One shard-lock acquisition and no per-cell
// work; the page lock is taken briefly inside takeFreeBlock when a new
// block is needed.
func (h *Heap) refill(cc *classCursor, class int) error {
	s := h.shardFor(class)
	s.lock()
	defer s.unlock()
	h.releaseBlock(cc, class, s)
	var b uint32
	if list := h.partial[class]; len(list) > 0 {
		b = list[len(list)-1]
		h.partial[class] = list[:len(list)-1]
	} else {
		var ok bool
		if b, ok = h.takeFreeBlock(class); !ok {
			return ErrOutOfMemory
		}
		h.formatBlock(b, class, s)
	}
	s.refills.Add(1)
	bm := &h.blocks[b]
	bm.owned = true
	s.freeCells.Add(-int64(bm.freeCells))
	s.cached.Add(int64(bm.freeCells))
	cc.cur = b * (BlockSize / Granule)
	cc.end = cc.cur + uint32(CellsPerBlock(class)*classSizes[class]/Granule)
	cc.stride = uint32(classSizes[class] / Granule)
	return nil
}

// releaseBlock gives up the cursor's block, if it owns one: the pending
// claims are published and the block goes back on the partial list when
// it still counts blue cells. Caller holds the class shard lock s.
func (h *Heap) releaseBlock(cc *classCursor, class int, s *centralShard) {
	if cc.end == 0 {
		return
	}
	h.publishClaims(cc, class, s)
	b := cc.block()
	bm := &h.blocks[b]
	bm.owned = false
	s.cached.Add(-int64(bm.freeCells))
	s.freeCells.Add(int64(bm.freeCells))
	if bm.freeCells > 0 {
		h.partial[class] = append(h.partial[class], b)
	}
	cc.cur, cc.end = 0, 0
}

// takeFreeBlock pops one unassigned block from the page pool and stamps
// it with its destination class while still under the page lock: the
// large-object scan (findRun, also under the page lock) must never see
// a block that is neither in the free pool nor assigned, or it could
// hand the same block to two owners. Caller holds the class shard lock
// (shard → page is the lock order).
func (h *Heap) takeFreeBlock(class int) (uint32, bool) {
	p := &h.pages
	p.lock()
	defer p.unlock()
	n := len(p.freeBlocks)
	if n == 0 {
		return 0, false
	}
	b := p.freeBlocks[n-1]
	p.freeBlocks = p.freeBlocks[:n-1]
	h.blocks[b].class.Store(int32(class))
	return b, true
}

// formatBlock counts the cells of a block already stamped with the
// class. They are blue already: a block reaches the free pool only with
// every color byte zero — a small block retires when all its cells are
// blue, a freed large object's head is blued and its other blocks never
// colored — which CheckIntegrity audits. Caller holds the shard lock s.
func (h *Heap) formatBlock(b uint32, class int, s *centralShard) {
	n := CellsPerBlock(class)
	h.blocks[b].freeCells = int32(n)
	s.freeCells.Add(int64(n))
}

// allocLarge claims whole blocks for an object of size bytes, a
// multiple of BlockSize, leaving it blue, and returns its address.
func (h *Heap) allocLarge(size int) (Addr, error) {
	n := size / BlockSize
	p := &h.pages
	p.lock()
	start := h.findRun(n)
	if start < 0 {
		p.unlock()
		return 0, ErrOutOfMemory
	}
	h.blocks[start].nBlocks.Store(uint32(n))
	h.blocks[start].class.Store(blockLargeHead)
	for i := 1; i < n; i++ {
		h.blocks[start+i].class.Store(blockLargeCont)
	}
	h.removeFreeBlocks(start, n)
	p.unlock()
	p.largeBytes.Add(int64(n * BlockSize))
	p.largeObjects.Add(1)
	return Addr(start) * BlockSize, nil
}

// findRun locates n contiguous free blocks, returning the first index or
// -1. Caller holds the page lock. Linear scan: the heap has at most a
// few thousand blocks and large allocations are rare.
func (h *Heap) findRun(n int) int {
	run := 0
	for b := 1; b < h.nBlocks; b++ {
		if h.blocks[b].class.Load() == blockFree {
			run++
			if run == n {
				return b - n + 1
			}
		} else {
			run = 0
		}
	}
	return -1
}

// removeFreeBlocks deletes blocks [start, start+n) from the free stack.
// Caller holds the page lock.
func (h *Heap) removeFreeBlocks(start, n int) {
	out := h.pages.freeBlocks[:0]
	for _, b := range h.pages.freeBlocks {
		if int(b) < start || int(b) >= start+n {
			out = append(out, b)
		}
	}
	h.pages.freeBlocks = out
}

// Flush releases every block the cache owns, publishing its pending
// claims, so the blocks' remaining blue cells can be reused and the
// blocks eventually reclaimed. Called when a mutator detaches. One
// shard-lock acquisition per class with a block, no per-cell work.
func (h *Heap) Flush(c *Cache) {
	for class := range c.cls {
		if cc := &c.cls[class]; cc.end != 0 {
			s := h.shardFor(class)
			s.lock()
			s.flushes.Add(1)
			h.releaseBlock(cc, class, s)
			s.unlock()
		}
	}
}

// SweepBlock is the heap's one reclamation primitive: it frees every
// object of block b colored clear or stale. Neither may be Blue, whose
// byte is also that of every granule but a cell's first; NoColor frees
// nothing.
// each, if non-nil, is shown every other allocated object with its
// color, in address order, may recolor it, and condemns it as well by
// returning true. It returns the objects and bytes (cell sizes: the
// paper's "space freed") freed and whether every cell of the (small)
// block holds the old code old.
//
// The walk takes a color word — eight granules — at a time: a word's
// dead cells are found by byte equality, counted by population count
// and turned blue, which is all "free" means, by one atomic AND. The
// block's new blue cells are counted once after the walk, under one
// shard-lock acquisition, and only if there were any (see
// blockMeta.freeCells for why the colors go first). A heap with ages
// zeroes the dead cells' ages before it blues them, so a create stores
// none. A dead large object returns its blocks to the page pool. No
// cell memory is touched and nothing is allocated. The paper keeps the
// color in the object header, so the Figure 15 page model charges a
// populated block's one page.
//
// Only the collector calls it, and only for cells no mutator can reach,
// so a cell it turns blue races with nothing but the block owner's
// claim of it. Concurrent calls on one block must free disjoint cells.
func (h *Heap) SweepBlock(b int, clear, stale, old Color, each func(addr Addr, col Color) bool) (n, bytes int, allBlack bool) {
	bm := &h.blocks[b]
	class := bm.class.Load()
	if class == blockFree || class == blockLargeCont {
		return 0, 0, false
	}
	blacks, populated := 0, false
	// The colors copied into every byte once per block, not per word:
	// three eqMask calls per word, multiplies included, made a block
	// sweep ~14 % slower.
	clears, stales, olds := uint64(clear)*lo8, uint64(stale)*lo8, uint64(old)*lo8
	words := h.blockWords(b)
	for i := range words {
		w := atomic.LoadUint64(&words[i])
		if w == 0 {
			continue
		}
		populated = true
		blacks += bits.OnesCount64(eqBytes(w, olds))
		dead := eqBytes(w, clears) | eqBytes(w, stales)
		if each != nil {
			for m := allocated(w) &^ dead; m != 0; m &= m - 1 {
				s := bits.TrailingZeros64(m) - 7
				if each(Addr(b*BlockSize+(i*8+s/8)*Granule), Color(w>>s&colorBits)) {
					dead |= 0x80 << s
				}
			}
		}
		if dead != 0 {
			if h.ages != nil {
				// Before the cells turn blue: an owner may claim
				// them from then on, and finds their ages zero.
				g := b*wordsPerBlock*8 + i*8
				for m := dead; m != 0; m &= m - 1 {
					h.ages[g+bits.TrailingZeros64(m)/8] = 0
				}
			}
			atomic.AndUint64(&words[i], ^(dead >> 7 * 0xff))
			n += bits.OnesCount64(dead)
		}
	}
	if populated {
		h.Pages.TouchHeap(Addr(b)*BlockSize, 1)
	}
	if class == blockLargeHead {
		if n > 0 {
			bytes = h.freeLarge(b)
		}
		return n, bytes, false
	}
	cell := classSizes[class]
	allBlack = blacks == BlockSize/cell
	if n == 0 {
		return 0, 0, allBlack
	}
	s := h.shardFor(int(class))
	s.lock()
	before := bm.freeCells
	bm.freeCells += int32(n)
	if bm.owned {
		s.cached.Add(int64(n))
	} else {
		s.freeCells.Add(int64(n))
		if before <= 0 && bm.freeCells > 0 {
			h.partial[class] = append(h.partial[class], uint32(b))
		}
	}
	s.unlock()
	s.allocatedBytes.Add(-int64(n * cell))
	s.allocatedObjects.Add(-int64(n))
	return n, n * cell, allBlack
}

// freeLarge returns the blocks of the (already blue) large object at
// block b to the free pool.
func (h *Heap) freeLarge(b int) int {
	p := &h.pages
	p.lock()
	n := int(h.blocks[b].nBlocks.Load())
	size := n * BlockSize
	for i := 0; i < n; i++ {
		h.blocks[b+i].class.Store(blockFree)
		p.freeBlocks = append(p.freeBlocks, uint32(b+i))
	}
	p.unlock()
	p.largeBytes.Add(-int64(size))
	p.largeObjects.Add(-1)
	return size
}

// ReclaimEmptyBlocks returns fully free small-object blocks (every cell
// blue, not owned by a cache) to the free pool so another size class
// can reuse them. The collector calls it at the end of sweep. Owned
// blocks are not on the partial lists, so walking those is enough; the
// class transition happens under the page lock, taken inside the shard
// lock (the lock order) on the first retirement of each class.
func (h *Heap) ReclaimEmptyBlocks() int {
	p := &h.pages
	freed := 0
	for class := 0; class < NumClasses; class++ {
		s := h.shardFor(class)
		s.lock()
		cells := int32(CellsPerBlock(class))
		out := h.partial[class][:0]
		retired := 0
		for _, b := range h.partial[class] {
			bm := &h.blocks[b]
			if bm.freeCells != cells {
				out = append(out, b)
				continue
			}
			if retired == 0 {
				p.lock()
			}
			retired++
			bm.freeCells = 0
			bm.class.Store(blockFree)
			p.freeBlocks = append(p.freeBlocks, b)
		}
		if retired > 0 {
			p.unlock()
		}
		h.partial[class] = out
		s.freeCells.Add(-int64(retired) * int64(cells))
		s.unlock()
		freed += retired
	}
	return freed
}

// FreeBlockCount reports how many unassigned blocks remain.
func (h *Heap) FreeBlockCount() int {
	h.pages.lock()
	defer h.pages.unlock()
	return len(h.pages.freeBlocks)
}
