package heap

import (
	"math/bits"
	"sync/atomic"
)

// ForEachObject calls fn for every currently allocated (non-blue) object
// start address, in address order. Objects allocated concurrently may or
// may not be visited; objects freed by fn itself are not revisited.
func (h *Heap) ForEachObject(fn func(addr Addr)) {
	h.ForEachObjectInRange(BlockSize, Addr(h.SizeBytes), fn)
}

// ForEachObjectInRange calls fn for every allocated object whose cell
// starts in [start, end). This is the card-scanning primitive: a card's
// byte range is mapped to the objects that begin on it — the granules
// of the range whose color byte is not blue, read a word at a time.
func (h *Heap) ForEachObjectInRange(start, end Addr, fn func(addr Addr)) {
	end = min(end, Addr(h.SizeBytes))
	lo, hi := (start+Granule-1)/Granule, (end+Granule-1)/Granule
	for wi := lo / 8; wi*8 < hi; wi++ {
		m := allocated(atomic.LoadUint64(&h.colors[wi]))
		if lo > wi*8 {
			m &^= 1<<((lo-wi*8)*8) - 1
		}
		if hi-wi*8 < 8 {
			m &= 1<<((hi-wi*8)*8) - 1
		}
		for ; m != 0; m &= m - 1 {
			fn((wi*8 + Addr(bits.TrailingZeros64(m))/8) * Granule)
		}
	}
}

// AllocatedRegions calls fn(start, end) for every maximal run of blocks
// currently assigned to some class (small or large). Used to compute the
// "allocated cards" denominator of the Figure 22 dirty-card percentages.
func (h *Heap) AllocatedRegions(fn func(start, end Addr)) {
	runStart := -1
	for b := 1; b <= h.nBlocks; b++ {
		assigned := b < h.nBlocks && h.blocks[b].class.Load() != blockFree
		if assigned && runStart < 0 {
			runStart = b
		}
		if !assigned && runStart >= 0 {
			fn(Addr(runStart)*BlockSize, Addr(b)*BlockSize)
			runStart = -1
		}
	}
}
