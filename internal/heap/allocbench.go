package heap

import "sync/atomic"

// Allocation-churn workload of BenchmarkAllocParallel and the central
// shard stress test.

// AllocChurnSizes is the mixed request-size schedule of the allocation
// benchmark: one representative request per frequently used size class,
// so concurrent mutators starting at different offsets exercise
// different classes most of the time — the access pattern the per-class
// central lists are sharded for.
var AllocChurnSizes = [...]int{16, 40, 96, 224, 480, 992}

// allocChurnWindow is how many live cells each churner keeps before
// freeing them all, mimicking the collector's sweep cadence.
const allocChurnWindow = 256

// AllocChurn runs iters allocation operations as one benchmark mutator:
// it owns a private Cache, cycles through AllocChurnSizes offset by id,
// keeps a window of allocChurnWindow live cells, and frees the window
// the way the sweep does — SweepBlock over the blocks the window's
// cells lie in — so blocks recycle and the loop runs indefinitely
// inside a bounded heap. The cache is flushed on return, as a detaching
// mutator would.
//
// Churners share blocks (one fills a block, another later owns it), so
// each stamps its cells' second header word (the first holds the slot
// count) with its own tag, and its sweeps free exactly the cells
// carrying that tag: every live cell of a churner is in its window, so
// that is the window, and no two churners ever free the same cell. A
// sweep zeroes the tag of each cell it frees, so a cell claimed but not
// yet stamped carries no churner's tag.
func (h *Heap) AllocChurn(id, iters int) error {
	var c Cache
	defer h.Flush(&c)
	tag := uint32(id + 1)
	mine := func(addr Addr, _ Color) bool {
		w := &h.mem[addr/WordBytes+1]
		if atomic.LoadUint32(w) != tag {
			return false
		}
		atomic.StoreUint32(w, 0)
		return true
	}
	window := make([]Addr, 0, allocChurnWindow)
	// free sweeps the window's blocks. Requests of one size sit
	// len(AllocChurnSizes) apart in the window and run through one
	// block after another, so walking the window per size visits each
	// block once (a repeat visit would find nothing left to free).
	free := func() {
		for k := 0; k < len(AllocChurnSizes); k++ {
			last := Addr(0)
			for j := k; j < len(window); j += len(AllocChurnSizes) {
				if b := window[j] / BlockSize; b != last {
					h.SweepBlock(int(b), NoColor, NoColor, Black, mine)
					last = b
				}
			}
		}
		window = window[:0]
	}
	for i := 0; i < iters; i++ {
		size := AllocChurnSizes[(i+id)%len(AllocChurnSizes)]
		a, err := h.Alloc(&c, 2, size, White)
		if err != nil {
			return err
		}
		atomic.StoreUint32(&h.mem[a/WordBytes+1], tag)
		window = append(window, a)
		if len(window) == cap(window) {
			free()
		}
	}
	free()
	return nil
}
