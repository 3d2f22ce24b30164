package heap

import (
	"sync"
	"sync/atomic"
)

// The allocator is tiered: per-mutator Cache (lock-free claims of blue
// cells in the blocks it owns) → per-class central shard (one small lock
// each, for block hand-over and the blue-cell counts) → page allocator
// (one narrow lock for whole-block acquisition and retirement). Every
// size class has its own shard, so two mutators refilling different
// classes never touch the same lock.
//
// Lock ordering: shard → page. A thread holding a shard lock may take
// the page lock (refill formatting a fresh block, reclaim retiring an
// empty one); the reverse order never happens. CheckIntegrity, which
// needs a globally consistent view, takes every shard lock in index
// order and then the page lock — compatible with the same ordering.
//
// Block class transitions (free ↔ assigned, free ↔ large) happen only
// under the page lock, so the large-object scan (findRun), which runs
// under the page lock, always sees each block either in the free pool
// or already stamped with its destination.

// centralShard is one size class's central state: its partial list's
// lock plus the class's counters. Counters are atomics so Stats() never
// needs the lock.
type centralShard struct {
	mu sync.Mutex

	// Contention census. locks counts acquisitions, contended the
	// subset that found the lock held (TryLock failed first).
	locks     atomic.Int64
	contended atomic.Int64

	// refills counts blocks handed to caches, flushes blocks handed
	// back by a detaching cache (per class with a block, not per
	// detach).
	refills atomic.Int64
	flushes atomic.Int64

	// freeCells is the sum of blockMeta.freeCells over this shard's
	// unowned blocks — the blue cells any cache may come to claim —
	// and cached the same sum over its owned blocks: blue cells only
	// their owner can claim, reading high by the owners' unpublished
	// claims. Both move only under mu, in step with the block counts.
	freeCells atomic.Int64
	cached    atomic.Int64

	// Bytes/objects currently allocated from this shard's classes.
	allocatedBytes   atomic.Int64
	allocatedObjects atomic.Int64

	// Pad to a multiple of the cache-line size so adjacent shards in
	// the shards slice do not false-share.
	_ [40]byte
}

// lock acquires the shard lock, recording whether the acquisition
// contended. TryLock-then-Lock keeps the uncontended path one CAS.
func (s *centralShard) lock() {
	s.locks.Add(1)
	if s.mu.TryLock() {
		return
	}
	s.contended.Add(1)
	s.mu.Lock()
}

func (s *centralShard) unlock() { s.mu.Unlock() }

// pageAllocator owns whole-block state: the pool of unassigned blocks
// and the contiguous-run scan for large objects. Its lock is the bottom
// of the lock order and is held only for block-granularity operations —
// never while formatting or walking a block's cells.
type pageAllocator struct {
	mu         sync.Mutex
	locks      atomic.Int64
	contended  atomic.Int64
	freeBlocks []uint32 // indices of unassigned blocks

	// Bytes/objects currently allocated as large (multi-block) objects.
	largeBytes   atomic.Int64
	largeObjects atomic.Int64
}

func (p *pageAllocator) lock() {
	p.locks.Add(1)
	if p.mu.TryLock() {
		return
	}
	p.contended.Add(1)
	p.mu.Lock()
}

func (p *pageAllocator) unlock() { p.mu.Unlock() }

// shardFor returns the central shard that owns size class `class`.
func (h *Heap) shardFor(class int) *centralShard { return &h.shards[class] }

// ShardStats is the counter snapshot of one central shard: its lock
// acquisitions and the contended ones, the blocks caches acquired from
// it and handed back, the blue cells of its unowned and owned blocks,
// and the bytes and objects currently allocated in its size class.
type ShardStats struct {
	Locks, Contended int64
	Refills, Flushes int64
	FreeCells        int64 `metric:"gauge"`
	CachedCells      int64 `metric:"gauge"`
	AllocatedBytes   int64 `metric:"gauge"`
	AllocatedObjects int64 `metric:"gauge"`
}

// AllocStats aggregates the allocator's contention and throughput
// counters across tiers. ShardLocks and ShardContended sum the central
// shards' lock acquisitions and contended ones, PageLocks and
// PageContended the page allocator's. Refills is block acquisitions by
// caches and Flushes blocks handed back, FreeCells the blue cells of
// unowned blocks and CachedCells the blue cells of owned ones;
// CachedCells reads high while mutators run, by the claims their caches
// have not published. Everything else is exact at the instant each
// atomic was read. PerShard[i] is the shard of size class i.
type AllocStats struct {
	ShardLocks, ShardContended int64
	PageLocks, PageContended   int64
	Refills, Flushes           int64
	FreeCells, CachedCells     int64 `metric:"gauge"`
	PerShard                   []ShardStats
}

// Contended is the total count of contended lock acquisitions across
// tiers — the scalar the repository benchmark reports per thousand
// allocations as heap.alloc.lock_contended_per_kalloc.
func (a AllocStats) Contended() int64 {
	return a.ShardContended + a.PageContended
}

// AllocStats snapshots the tiered allocator's counters.
func (h *Heap) AllocStats() AllocStats {
	a := AllocStats{
		PageLocks:     h.pages.locks.Load(),
		PageContended: h.pages.contended.Load(),
		PerShard:      make([]ShardStats, len(h.shards)),
	}
	for i := range h.shards {
		s := &h.shards[i]
		ss := ShardStats{
			Locks:            s.locks.Load(),
			Contended:        s.contended.Load(),
			Refills:          s.refills.Load(),
			Flushes:          s.flushes.Load(),
			FreeCells:        s.freeCells.Load(),
			CachedCells:      s.cached.Load(),
			AllocatedBytes:   s.allocatedBytes.Load(),
			AllocatedObjects: s.allocatedObjects.Load(),
		}
		a.PerShard[i] = ss
		a.ShardLocks += ss.Locks
		a.ShardContended += ss.Contended
		a.Refills += ss.Refills
		a.Flushes += ss.Flushes
		a.FreeCells += ss.FreeCells
		a.CachedCells += ss.CachedCells
	}
	return a
}
