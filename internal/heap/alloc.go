package heap

import "sync/atomic"

// Cache is a mutator's allocation state: at most one owned block per
// size class and a cursor into that block's color entries. The color
// table is the free list — a cell is free iff it is blue — so the cache
// holds no cells, only the right to claim the blue cells of its blocks.
// It is the stand-in for the DLG thread-local allocation mechanism the
// paper mentions in §7: the common allocation path takes no lock and no
// atomic read-modify-write, and touches no cell memory beyond the slots
// it zeroes; the accounting for claimed cells is deferred in pend and
// published in one step (see publishClaims).
type Cache struct {
	cls [NumClasses]classCursor
}

// classCursor is a cache's hold on one size class. cur is the granule
// index of the next color entry to examine in the owned block and end
// the index one past the block's last cell; both zero means no block is
// owned (block 0 never holds cells). pend counts the cells claimed
// since the last publication, all from the owned block.
type classCursor struct {
	cur, end uint32
	pend     int32
}

// block returns the index of the owned block; end must be nonzero.
func (cc *classCursor) block() uint32 { return (cc.end - 1) / (BlockSize / Granule) }

// Alloc allocates an object with the given number of pointer slots and a
// total payload of at least size bytes (the header is added on top), and
// colors it with allocColor — the "create" routine of Figure 1. The
// pointer slots are zeroed. It returns ErrOutOfMemory when the heap
// cannot satisfy the request even from a fresh block; the caller is
// expected to force a collection and retry.
func (h *Heap) Alloc(c *Cache, slots int, size int, allocColor Color) (Addr, error) {
	addr, err := h.AllocBlue(c, slots, size)
	if err != nil {
		return 0, err
	}
	h.SetColor(addr, allocColor)
	return addr, nil
}

// AllocBlue allocates and initializes a cell but leaves it blue; the
// caller assigns the final color, and must do so before its next
// allocation from this cache (a blue cell behind the cursor is claimed
// again once the block is released and rescanned). Used by the
// toggle-free create protocol, whose color depends on the sweep
// position: a blue cell is invisible to a concurrently running sweep
// and to the card scan, so the window between claim and coloring is
// safe.
//
// The claim is a scan of the owned block's color entries, at cell
// stride from the cursor, for the next blue one. Only the owner claims
// in its block and only the sweep turns cells blue, so the load needs
// no read-modify-write: a cell seen blue stays blue until this cache
// colors it.
func (h *Heap) AllocBlue(c *Cache, slots int, size int) (Addr, error) {
	need := HeaderBytes + slots*WordBytes
	if size < need {
		size = need
	}
	class, cell := ClassFor(size)
	if class < 0 {
		return h.allocLarge(slots, cell)
	}
	cc := &c.cls[class]
	stride := uint32(cell / Granule)
	for {
		for g := cc.cur; g < cc.end; g += stride {
			if atomic.LoadUint32(&h.colors[g]) == uint32(Blue) {
				cc.cur = g + stride
				cc.pend++
				addr := g * Granule
				h.initObject(addr, slots)
				return addr, nil
			}
		}
		if err := h.refill(cc, class); err != nil {
			return 0, err
		}
	}
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

// initObject prepares a blue cell as a new object, leaving it blue.
// Order matters: the metadata and zeroed slots must be published before
// the caller's color store takes the cell out of blue, because the
// collector reads the color first (acquire) and only then the metadata
// and slots. Accounting is the caller's job (the counter depends on the
// tier the cell came from).
func (h *Heap) initObject(addr Addr, slots int) {
	g := addr / Granule
	atomic.StoreUint32(&h.slotsOf[g], uint32(slots))
	h.ages[g] = 0
	base := slotIndex(addr, 0)
	for i := 0; i < slots; i++ {
		atomic.StoreUint32(&h.mem[base+i], 0)
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

// formatBlock makes every cell of a block already stamped with the class
// blue and counts them. Caller holds the class shard lock s; the block
// is on no partial list and owned by nobody, so nothing else can touch
// its cells.
func (h *Heap) formatBlock(b uint32, class int, s *centralShard) {
	cell := classSizes[class]
	n := BlockSize / cell
	base := b * BlockSize
	for i := 0; i < n; i++ {
		h.SetColor(base+uint32(i*cell), Blue)
	}
	h.blocks[b].freeCells = int32(n)
	s.freeCells.Add(int64(n))
}

// allocLarge allocates an object spanning whole blocks, leaving it
// blue. size is already rounded to a granule multiple.
func (h *Heap) allocLarge(slots, size int) (Addr, error) {
	n := (size + BlockSize - 1) / BlockSize
	p := &h.pages
	p.lock()
	start := h.findRun(n)
	if start < 0 {
		p.unlock()
		return 0, ErrOutOfMemory
	}
	h.blocks[start].class.Store(blockLargeHead)
	h.blocks[start].nBlocks = uint32(n)
	for i := 1; i < n; i++ {
		h.blocks[start+i].class.Store(blockLargeCont)
	}
	h.removeFreeBlocks(start, n)
	p.unlock()

	addr := Addr(start) * BlockSize
	atomic.StoreUint32(&h.largeSize[addr/Granule], uint32(n*BlockSize))
	h.initObject(addr, slots)
	p.largeBytes.Add(int64(n * BlockSize))
	p.largeObjects.Add(1)
	return addr, nil
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

// SweepBlock is the heap's one reclamation primitive: it shows dead
// every allocated (non-blue) object of block b with its color, in
// address order, and frees the ones dead returns true for. Freeing a
// small cell is a color store — the cell turns blue, which is all
// "free" means — and the block's new blue cells are counted once after
// the walk, under one shard-lock acquisition, and only if there were
// any (see blockMeta.freeCells for why the colors go first). A dead
// large object returns its blocks to the page pool. No cell memory is
// written and nothing is allocated. It returns the objects and bytes
// (cell sizes: what the paper's "space freed" numbers count) freed.
//
// Only the collector calls it, and only for cells no mutator can reach,
// so a cell it turns blue races with nothing but the block owner's
// claim of it. Concurrent calls on one block must free disjoint cells.
func (h *Heap) SweepBlock(b int, dead func(addr Addr, col Color) bool) (objects, bytes int) {
	bm := &h.blocks[b]
	class := bm.class.Load()
	switch class {
	case blockFree, blockLargeCont:
		return 0, 0
	case blockLargeHead:
		addr := Addr(b) * BlockSize
		if col := h.Color(addr); col != Blue && dead(addr, col) {
			return 1, h.freeLarge(addr)
		}
		return 0, 0
	}
	cell := classSizes[class]
	stride := cell / Granule
	g := b * (BlockSize / Granule)
	n := 0
	for end := g + BlockSize/cell*stride; g < end; g += stride {
		col := Color(atomic.LoadUint32(&h.colors[g]))
		if col != Blue && dead(Addr(g*Granule), col) {
			atomic.StoreUint32(&h.colors[g], uint32(Blue))
			n++
		}
	}
	if n == 0 {
		return 0, 0
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
	return n, n * cell
}

// freeLarge returns a large object's blocks to the free pool.
func (h *Heap) freeLarge(addr Addr) int {
	h.SetColor(addr, Blue)
	b := int(addr / BlockSize)
	p := &h.pages
	p.lock()
	n := int(h.blocks[b].nBlocks)
	size := n * BlockSize
	for i := 0; i < n; i++ {
		h.blocks[b+i].class.Store(blockFree)
		h.blocks[b+i].nBlocks = 0
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
