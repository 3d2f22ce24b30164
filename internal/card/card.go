// Package card implements the card-marking machinery of §3.1 and §7 of
// the paper: the heap is partitioned into cards, mutators mark a card
// dirty whenever they store a pointer into it, and the collector scans
// objects on dirty cards for inter-generational pointers at the start of
// a partial collection.
//
// Card sizes from 16 bytes ("object marking") up to 4096 bytes ("block
// marking") are supported — the full range the paper sweeps in §8.5.3.
//
// The paper keeps a designated byte per card and relies on hardware
// per-byte store atomicity. Go does not expose that, so the table packs
// one bit per card into 64-bit words manipulated with atomic or/and —
// a stronger primitive, which keeps the delicate clear/check/re-set
// protocol of §7.2 intact while letting the collector skip 64 clean
// cards with a single load (the moral equivalent of the paper's tight
// byte-table scan). The scan path goes further: DrainDirtyIn
// fetch-and-clears a whole word of dirty bits in one atomic and-not —
// the §7.2 "clear" step for up to 64 cards at once — and walks the
// snapshot with trailing-zeros, so a scan's cost tracks the number of
// dirty cards rather than the size of the table.
package card

import (
	"fmt"
	"math/bits"
	"sync/atomic"
)

// MinSize and MaxSize bound the supported card sizes (both inclusive,
// powers of two): 16 bytes is the paper's "object marking", 4096 its
// "block marking".
const (
	MinSize = 16
	MaxSize = 4096
)

// Table is a card table over a heap of a fixed size.
type Table struct {
	cardSize int
	shift    uint // log2(cardSize)
	nCards   int
	words    []uint64 // one dirty bit per card
}

// NewTable builds a card table for heapBytes of heap with the given card
// size, which must be a power of two in [MinSize, MaxSize].
func NewTable(heapBytes, cardSize int) (*Table, error) {
	if cardSize < MinSize || cardSize > MaxSize || cardSize&(cardSize-1) != 0 {
		return nil, fmt.Errorf("card: invalid card size %d (want power of two in [%d, %d])", cardSize, MinSize, MaxSize)
	}
	shift := uint(0)
	for 1<<shift != cardSize {
		shift++
	}
	n := (heapBytes + cardSize - 1) / cardSize
	return &Table{cardSize: cardSize, shift: shift, nCards: n, words: make([]uint64, (n+63)/64)}, nil
}

// Size returns the card size in bytes.
func (t *Table) Size() int { return t.cardSize }

// NumCards returns the number of cards in the table.
func (t *Table) NumCards() int { return t.nCards }

// IndexOf returns the card index covering byte address addr.
func (t *Table) IndexOf(addr uint32) int { return int(addr >> t.shift) }

// Bounds returns the byte range [start, end) covered by card ci.
func (t *Table) Bounds(ci int) (start, end uint32) {
	return uint32(ci) << t.shift, uint32(ci+1) << t.shift
}

// Mark dirties the card containing addr. This is the MarkCard of
// Figures 1 and 4; in the aging algorithm the mutator must call it
// after the slot store (the order the §7.2 race argument depends on).
func (t *Table) Mark(addr uint32) {
	ci := addr >> t.shift
	atomic.OrUint64(&t.words[ci>>6], uint64(1)<<(ci&63))
}

// IsDirty reports whether card ci is marked.
func (t *Table) IsDirty(ci int) bool {
	return atomic.LoadUint64(&t.words[ci>>6])&(uint64(1)<<(uint(ci)&63)) != 0
}

// Clear resets card ci. In the aging collector this is step 1 of the
// three-step clear/check/re-set sequence.
func (t *Table) Clear(ci int) {
	atomic.AndUint64(&t.words[ci>>6], ^(uint64(1) << (uint(ci) & 63)))
}

// MarkIndex re-dirties card ci directly (step 3 of the §7.2 sequence,
// when the check of step 2 found a surviving inter-generational
// pointer).
func (t *Table) MarkIndex(ci int) {
	atomic.OrUint64(&t.words[ci>>6], uint64(1)<<(uint(ci)&63))
}

// ClearAll resets every card; used by InitFullCollection in the simple
// algorithm (the aging variant deliberately keeps its marks, §6).
func (t *Table) ClearAll() {
	for i := range t.words {
		atomic.StoreUint64(&t.words[i], 0)
	}
}

// DrainDirtyIn atomically clears the dirty bits in [lo, hi] one word at
// a time and calls fn for every card that was dirty. This fuses the
// per-card "clear" of §7.2 step 1 into one fetch-and-clear per 64
// cards: the and-not returns the word's prior value, so each dirty bit
// is observed by exactly one drainer, and a mutator's concurrent
// re-mark (§7.2 step 3, or a plain Mark racing the drain) lands either
// in the snapshot this call returns or in the table for the next scan —
// never lost. Clean words are detected with a plain load first, so the
// common case (a mostly-clean table) does no read-modify-write at all.
//
// fn runs after the card's bit is already cleared, which is exactly the
// clear-before-scan order the §7.2 race argument requires.
func (t *Table) DrainDirtyIn(lo, hi int, fn func(ci int)) {
	if hi >= t.nCards {
		hi = t.nCards - 1
	}
	for ci := lo; ci <= hi; {
		base := ci &^ 63
		wi := ci >> 6
		// Range mask: bits for cards [max(lo, base), min(hi, base+63)].
		mask := ^uint64(0) << (uint(ci) & 63)
		if hi < base+63 {
			mask &= ^uint64(0) >> (63 - uint(hi-base))
		}
		var dirty uint64
		if atomic.LoadUint64(&t.words[wi])&mask != 0 {
			dirty = atomic.AndUint64(&t.words[wi], ^mask) & mask
		}
		for dirty != 0 {
			fn(base + bits.TrailingZeros64(dirty))
			dirty &= dirty - 1
		}
		ci = base + 64
	}
}

// CountDirty returns the number of dirty cards in [from, to), a
// popcount per word.
func (t *Table) CountDirty(from, to int) int {
	if to > t.nCards {
		to = t.nCards
	}
	if from >= to {
		return 0
	}
	hi := to - 1
	n := 0
	for ci := from; ci <= hi; {
		base := ci &^ 63
		mask := ^uint64(0) << (uint(ci) & 63)
		if hi < base+63 {
			mask &= ^uint64(0) >> (63 - uint(hi-base))
		}
		n += bits.OnesCount64(atomic.LoadUint64(&t.words[ci>>6]) & mask)
		ci = base + 64
	}
	return n
}
