// Package heap implements the non-moving, block-structured heap that the
// on-the-fly collector of Domani, Kolodner and Petrank (PLDI 2000) runs
// against. It is the stand-in for the prototype JVM heap of the paper:
// a byte-addressed space carved into 4 KB blocks, each block dedicated to
// one size class, with per-object colors — and, for the aging
// collector, ages — in side tables of one byte per granule each. The
// color table is also the free list: a cell is free iff it is blue.
//
// Addresses are plain byte offsets (Addr). Address 0 is never allocated
// and serves as the nil reference. Objects never move; promotion between
// generations is purely logical (a color), exactly as in the paper.
package heap

import (
	"errors"
	"fmt"
	"sync/atomic"
)

// Addr is a heap address: a byte offset from the heap base. 0 is nil.
type Addr = uint32

const (
	// Granule is the allocation granularity and minimum cell size in
	// bytes. With 16-byte cards ("object marking") every card covers
	// exactly one granule.
	Granule = 16

	// BlockSize is the unit the heap hands to size classes, and the
	// "block marking" card size of §8.5.1.
	BlockSize = 4096

	// HeaderBytes is the simulated object header: the first two words
	// of every cell, corresponding to the class pointer and hash/lock
	// word of the paper's JVM objects. Pointer slots follow it. Word 0
	// counts them if there are any, as the class would (see Header).
	HeaderBytes = 8

	// WordBytes is the size of one pointer slot.
	WordBytes = 4
)

// MaxSlots returns the number of pointer slots that fit in a cell of
// size bytes.
func MaxSlots(size int) int { return (size - HeaderBytes) / WordBytes }

// Block classes in blockMeta.class beyond the small size classes.
const (
	blockFree      int32 = -1 // not assigned to any class
	blockLargeHead int32 = -2 // first block of a large object
	blockLargeCont int32 = -3 // continuation block of a large object
)

type blockMeta struct {
	// class is the size-class index, or one of the block* sentinels.
	// Transitions to and from blockFree happen only under the page
	// lock; read without any lock by the collector's iteration paths,
	// hence atomic.
	class atomic.Int32

	// nBlocks is the number of blocks of a large object (head only),
	// hence its size. Stored before class publishes the head.
	nBlocks atomic.Uint32

	// freeCells is the shard's count of the block's blue cells — the
	// census of the free list the color table is. Guarded by the class
	// shard lock, and moved in one step per block by each of the two
	// parties that change a cell's blueness:
	//
	//   - the sweep turns a block's dead cells blue FIRST and adds
	//     their number AFTER the walk (SweepBlock);
	//   - the owning cache claims blue cells without the lock and
	//     subtracts its claims later (publishClaims).
	//
	// Color-then-count lets the owner claim a cell the sweep has turned
	// blue but not yet counted, so its publication can leave the count
	// transiently negative — by at most the sweep's unpublished deaths
	// in this block — until the sweep's publication lands. (Counting
	// first would announce cells that are not blue yet: the owner's
	// cursor walks past them, and a release could list a block whose
	// free cells do not exist.) The count is therefore exact only while
	// the block is unowned and no sweep is inside it; while owned it
	// reads high by the owner's open claims. A block is on its class's
	// partial list iff it is unowned and freeCells > 0, so every
	// transition lists a block only when the resulting count is
	// positive.
	freeCells int32

	// owned records that a mutator Cache holds the block as its
	// allocation block for the class: only that cache claims its blue
	// cells, and the block is off the partial list. Guarded by the
	// class shard lock.
	owned bool

	// allBlack hints that every cell of the block is an allocated
	// black (old) object and the block has neither free cells nor an
	// owner. Such a block cannot produce clear-colored cells before the
	// next full collection, so partial sweeps skip it — the reason the
	// paper's partial collections touch only young-generation pages
	// (Figure 15). Written by the collector only.
	allBlack atomic.Bool
}

// Heap is the shared address space. All mutator-visible operations
// (reading and writing pointer slots, colors) use atomic accesses: the
// paper relies on the hardware's per-byte store atomicity, which Go does
// not expose, so a color byte is only ever written by an atomic
// read-modify-write of the 64-bit word containing it — a strictly
// stronger substitute (see colors.go and DESIGN.md).
//
// Central allocator state is sharded per size class (see central.go):
// there is no heap-wide mutex. partial[class] is guarded by
// shardFor(class); the free-block pool by the page allocator's lock.
type Heap struct {
	// SizeBytes is the total heap size.
	SizeBytes int

	nBlocks int

	// mem holds the object bodies: header words and pointer slots.
	mem []uint32

	// colors is the color side table: one byte per granule, eight to a
	// word, and only the byte of an object's first granule is ever
	// nonzero (see colors.go).
	colors []uint64

	// ages is the age side table of §6, one byte per granule; nil
	// unless the heap keeps ages (New). A blue cell's age is zero: the
	// sweep zeroes a dead object's (SweepBlock), so a create writes none.
	ages []uint8

	blocks []blockMeta

	// shards are the per-class central counters and locks;
	// partial[class] is guarded by shardFor(class).mu. pages owns the
	// free-block pool.
	// The array is its own allocation: inline, its write-hot counters
	// would share cache lines with the read-mostly slice headers above,
	// which every Color/SizeOf call of every thread loads.
	shards  *[NumClasses]centralShard
	partial [NumClasses][]uint32 // unowned blocks of a class with blue cells
	pages   pageAllocator

	// Touch instrumentation for the Figure 15 experiment; nil unless
	// page tracking is enabled.
	Pages *PageSet
}

// ErrOutOfMemory is returned when no block can satisfy an allocation.
// Callers (the runtime's allocation slow path) react by requesting a
// full collection and retrying.
var ErrOutOfMemory = errors.New("heap: out of memory")

// New creates a heap of the given size. Size is rounded up to a whole
// number of blocks; block 0 is reserved so that address 0 means nil.
// With ages the heap keeps the age table that only the aging collector
// reads (Age, SetAge); without it those two must not be called.
func New(sizeBytes int, ages bool) (*Heap, error) {
	if sizeBytes < 2*BlockSize {
		return nil, fmt.Errorf("heap: size %d too small (min %d)", sizeBytes, 2*BlockSize)
	}
	nBlocks := (sizeBytes + BlockSize - 1) / BlockSize
	sizeBytes = nBlocks * BlockSize
	h := &Heap{
		SizeBytes: sizeBytes,
		nBlocks:   nBlocks,
		mem:       make([]uint32, sizeBytes/WordBytes),
		colors:    make([]uint64, nBlocks*wordsPerBlock),
		blocks:    make([]blockMeta, nBlocks),
		shards:    new([NumClasses]centralShard),
	}
	if ages {
		h.ages = make([]uint8, sizeBytes/Granule)
	}
	for i := range h.blocks {
		h.blocks[i].class.Store(blockFree)
	}
	// Block 0 reserved: nil must never be a valid object address.
	for i := nBlocks - 1; i >= 1; i-- {
		h.pages.freeBlocks = append(h.pages.freeBlocks, uint32(i))
	}
	return h, nil
}

// NumBlocks returns the number of blocks in the heap (including the
// reserved block 0).
func (h *Heap) NumBlocks() int { return h.nBlocks }

// NumGranules returns the number of granules in the heap.
func (h *Heap) NumGranules() int { return h.SizeBytes / Granule }

// AllocatedBytes returns the bytes currently allocated (live plus not yet
// collected garbage), summed over the class shards and the large-object
// pool; it drives the full-collection trigger. While mutators run the
// value lags the truth by their caches' unpublished claims — bounded
// by one block's worth of cells per class per cache — and is
// exact once every cache has published (refill, Flush, PublishAllocs).
func (h *Heap) AllocatedBytes() int64 {
	total := h.pages.largeBytes.Load()
	for i := range h.shards {
		total += h.shards[i].allocatedBytes.Load()
	}
	return total
}

// AllocatedObjects returns the number of currently allocated objects.
func (h *Heap) AllocatedObjects() int64 {
	total := h.pages.largeObjects.Load()
	for i := range h.shards {
		total += h.shards[i].allocatedObjects.Load()
	}
	return total
}

// Slots returns the number of pointer slots of the object at addr.
func (h *Heap) Slots(addr Addr) int { _, n := h.Header(addr); return n }

// SizeOf returns the cell size in bytes of the object at addr.
func (h *Heap) SizeOf(addr Addr) int {
	b := addr / BlockSize
	switch c := h.blocks[b].class.Load(); c {
	case blockLargeHead:
		return int(h.blocks[b].nBlocks.Load()) * BlockSize
	case blockFree, blockLargeCont:
		return 0
	default:
		return classSizes[c]
	}
}

// slotIndex returns the index in mem of pointer slot i of the object at
// addr. It does no bounds checking against the object's slot count; the
// public accessors do.
func slotIndex(addr Addr, i int) int {
	return int(addr)/WordBytes + HeaderBytes/WordBytes + i
}

// LoadSlot reads pointer slot i of the object at addr.
func (h *Heap) LoadSlot(addr Addr, i int) Addr {
	return atomic.LoadUint32(&h.mem[slotIndex(addr, i)])
}

// StoreSlot writes pointer slot i of the object at addr. The write
// barrier lives above this in the gc package; StoreSlot is the raw
// "heap[x,i] <- y" of Figure 1.
func (h *Heap) StoreSlot(addr Addr, i int, v Addr) {
	atomic.StoreUint32(&h.mem[slotIndex(addr, i)], v)
}

// AllBlackHint reports whether block b was found to be entirely old
// (black, fully allocated) by a previous sweep.
func (h *Heap) AllBlackHint(b int) bool { return h.blocks[b].allBlack.Load() }

// SetAllBlackHint records or clears the all-black hint for block b,
// storing only a change: the walks set every block's hint every cycle.
func (h *Heap) SetAllBlackHint(b int, v bool) {
	if bm := &h.blocks[b]; bm.allBlack.Load() != v {
		bm.allBlack.Store(v)
	}
}

// BlockQuiet reports whether block b currently has no blue cells and no
// owning allocation cache — together with an all-black scan this
// certifies the block cannot change before the next full collection. A
// cache keeps a block it has filled until its next refill of that class
// (or its Flush), so a just-filled block turns quiet one refill later.
func (h *Heap) BlockQuiet(b int) bool {
	bm := &h.blocks[b]
	class := bm.class.Load()
	if class < 0 {
		return false
	}
	s := h.shardFor(int(class))
	s.lock()
	defer s.unlock()
	// Re-check under the lock: the block may have been retired and
	// re-assigned to another class while we were acquiring.
	if bm.class.Load() != class {
		return false
	}
	return bm.freeCells == 0 && !bm.owned
}

// HoldsCells reports whether block b can hold an object's first
// granule: a small-object block or a large object's head. A free block
// and a large object's continuation block hold no cell, so the sweep
// passes them by.
func (h *Heap) HoldsCells(b int) bool {
	class := h.blocks[b].class.Load()
	return class != blockFree && class != blockLargeCont
}

// BlockClass reports the size-class of the block containing addr:
// class index for small-object blocks, -1 for free blocks, -2/-3 for
// large-object blocks.
func (h *Heap) BlockClass(b int) int { return int(h.blocks[b].class.Load()) }

// ValidObject reports whether addr is the start of a currently allocated
// (non-blue) object: only an object's first granule has a non-blue
// color byte. Used by the verifier and tests only.
func (h *Heap) ValidObject(addr Addr) bool {
	return addr != 0 && int(addr) < h.SizeBytes && addr%Granule == 0 && h.Color(addr) != Blue
}
