package heap

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestShardedAllocReconciles churns allocations from four mutators over
// the per-class shards and checks that the shard counters reconcile
// exactly against the block lists and a color census once the mutators
// quiesce.
func TestShardedAllocReconciles(t *testing.T) {
	h, err := New(1<<20, false)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for id := 0; id < 4; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			if err := h.AllocChurn(id, 20000); err != nil {
				t.Error(err)
			}
		}(id)
	}
	wg.Wait()
	if err := h.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
	if err := h.ReconcileCounters(); err != nil {
		t.Fatal(err)
	}
	if n := h.AllocatedObjects(); n != 0 {
		t.Fatalf("%d objects leaked after churn", n)
	}
}

// TestAllocStatsCounters checks that the contention/throughput counters
// move and aggregate: refills and flushes happen, per-shard rows sum to
// the totals, and freeCells+cached matches the census's blue-cell count
// at quiescence.
func TestAllocStatsCounters(t *testing.T) {
	h, err := New(1<<20, false)
	if err != nil {
		t.Fatal(err)
	}
	var c Cache
	addrs := make([]Addr, 0, 500)
	for i := 0; i < 500; i++ {
		a, err := h.Alloc(&c, 2, 48, White)
		if err != nil {
			t.Fatal(err)
		}
		addrs = append(addrs, a)
	}
	freeCells(h, addrs[:250]...)
	h.Flush(&c)
	st := h.Census()
	a := st.Alloc
	if a.Refills == 0 {
		t.Error("no refills recorded")
	}
	if a.Flushes == 0 {
		t.Error("no flushes recorded")
	}
	if len(a.PerShard) != NumClasses {
		t.Errorf("%d shard rows, want one per size class (%d)", len(a.PerShard), NumClasses)
	}
	var locks, refills, free, cached int64
	for _, ss := range a.PerShard {
		locks += ss.Locks
		refills += ss.Refills
		free += ss.FreeCells
		cached += ss.CachedCells
	}
	if locks != a.ShardLocks || refills != a.Refills ||
		free != a.FreeCells || cached != a.CachedCells {
		t.Errorf("per-shard rows do not sum to totals: %+v", a)
	}
	if cached != 0 {
		t.Errorf("cached = %d after flush, want 0", cached)
	}
	if int(free) != st.FreeCells {
		t.Errorf("shard freeCells %d, census blue cells %d", free, st.FreeCells)
	}
}

// TestCheckIntegrityAuditsColorTable: the color table is the free list,
// so the audit compares every unowned small block's count with the blue
// cells the table actually holds, and the sums with the shard counters.
// Owned blocks' counts read high by their owners' open claims, so their
// colors are compared only by ReconcileCounters, after PublishAllocs.
func TestCheckIntegrityAuditsColorTable(t *testing.T) {
	h, err := New(1<<20, false)
	if err != nil {
		t.Fatal(err)
	}
	var c Cache
	a, _ := h.Alloc(&c, 0, 48, White)
	if err := h.CheckIntegrity(); err != nil {
		t.Fatalf("owned block with an open claim: %v", err)
	}
	if err := h.ReconcileCounters(); err == nil {
		t.Error("ReconcileCounters passed with a claim unpublished")
	}
	h.PublishAllocs(&c)
	if err := h.ReconcileCounters(); err != nil {
		t.Fatalf("owned block after PublishAllocs: %v", err)
	}
	// A blue cell the counts do not know of, in an owned block: invisible
	// to CheckIntegrity, caught by the reconcile.
	h.SetColor(a, Blue)
	if err := h.CheckIntegrity(); err != nil {
		t.Fatalf("owned blocks' colors must not be compared here: %v", err)
	}
	if err := h.ReconcileCounters(); err == nil {
		t.Error("ReconcileCounters missed an uncounted blue cell in an owned block")
	}
	h.SetColor(a, White)

	// The same corruptions in an unowned block fail CheckIntegrity.
	h.Flush(&c)
	if err := h.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
	h.SetColor(a, Blue)
	if err := h.CheckIntegrity(); err == nil {
		t.Error("CheckIntegrity missed an uncounted blue cell in an unowned block")
	}
	h.SetColor(a, White)
	h.SetColor(a+48, White) // a counted free cell that is not blue
	if err := h.CheckIntegrity(); err == nil {
		t.Error("CheckIntegrity missed a counted cell that is not blue")
	}
	h.SetColor(a+48, Blue)
	h.shards[2].freeCells.Add(1)
	if err := h.CheckIntegrity(); err == nil {
		t.Error("CheckIntegrity missed a shard counter off from its blocks' sum")
	}
	h.shards[2].freeCells.Add(-1)
	if err := h.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckIntegrityAuditsHintsOfCelllessBlocks: the sweep passes by
// free blocks and large objects' continuation blocks without rewriting
// their all-black hints, so the audit reports either kind carrying one.
// A large object's head and a full small block may carry it.
func TestCheckIntegrityAuditsHintsOfCelllessBlocks(t *testing.T) {
	h, err := New(1<<20, false)
	if err != nil {
		t.Fatal(err)
	}
	var c Cache
	large, err := h.Alloc(&c, 0, 3*BlockSize, White)
	if err != nil {
		t.Fatal(err)
	}
	head := int(large / BlockSize)
	free := h.NumBlocks() - 1
	if h.HoldsCells(free) || !h.HoldsCells(head) || h.HoldsCells(head+1) {
		t.Fatalf("HoldsCells: free block %v, large head %v, continuation %v",
			h.HoldsCells(free), h.HoldsCells(head), h.HoldsCells(head+1))
	}
	h.SetAllBlackHint(head, true)
	if err := h.CheckIntegrity(); err != nil {
		t.Fatalf("hinted large-object head: %v", err)
	}
	h.SetAllBlackHint(head, false)
	for name, b := range map[string]int{"free block": free, "continuation block": head + 2} {
		h.SetAllBlackHint(b, true)
		if err := h.CheckIntegrity(); err == nil {
			t.Errorf("CheckIntegrity missed the all-black hint on a %s", name)
		}
		h.SetAllBlackHint(b, false)
	}
	if err := h.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

// TestSweepCountsAfterColoring pins the order SweepBlock frees in —
// colors first, count after the walk — and that every publication
// tolerates the window between the two: the owner claims a cell the
// sweep has turned blue but not yet counted, its publication drives the
// block's count below zero, a block released in that state is not
// listed, and the sweep's own publication lists it once the count turns
// positive. The sweep's callback is the window: shown a survivor of the
// block's second color word, it runs after the first word's dead cells
// turned blue and before the count is published.
func TestSweepCountsAfterColoring(t *testing.T) {
	h, err := New(2*BlockSize, false) // one usable block
	if err != nil {
		t.Fatal(err)
	}
	cells := CellsPerBlock(0)
	var filler Cache
	var first Addr
	for i := 0; i < cells; i++ {
		a, err := h.Alloc(&filler, 0, 16, Yellow)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = a
		}
	}
	h.Flush(&filler)
	freeCells(h, first)
	survivor := first + 8*16 // first cell of the second color word
	h.SetColor(survivor, Black)

	// The owner takes the block over with one counted blue cell and
	// claims it.
	var c Cache
	if a, err := h.Alloc(&c, 0, 16, White); err != nil || a != first {
		t.Fatalf("owner got %#x, %v; want the one free cell %#x", a, err, first)
	}
	inWindow := false
	objects, _, _ := h.SweepBlock(int(first/BlockSize), Yellow, NoColor, Black, func(addr Addr, col Color) bool {
		if addr == survivor {
			// Cell 1 is blue and uncounted. The owner claims it,
			// publishes, and lets the block go.
			inWindow = true
			if a, err := h.Alloc(&c, 0, 16, White); err != nil || a != first+16 {
				t.Errorf("owner got %#x, %v; want the just-freed cell %#x", a, err, first+16)
			}
			h.PublishAllocs(&c)
			if got := h.AllocStats().CachedCells; got != -1 {
				t.Errorf("owned block counts %d after the early claim, want -1", got)
			}
			h.Flush(&c)
			if st := h.AllocStats(); st.FreeCells != -1 || st.CachedCells != 0 {
				t.Errorf("released block counts (free %d, cached %d), want (-1, 0)", st.FreeCells, st.CachedCells)
			}
			if _, err := h.Alloc(&c, 0, 16, White); err != ErrOutOfMemory {
				t.Errorf("a block with a non-positive count was offered again: %v", err)
			}
			return true
		}
		return false
	})
	if !inWindow || objects != cells-1 {
		t.Fatalf("sweep freed %d objects (window reached: %v), want %d", objects, inWindow, cells-1)
	}
	// The sweep's publication made the count exact and listed the block.
	if err := h.CheckIntegrity(); err != nil {
		t.Error(err)
	}
	if err := h.ReconcileCounters(); err != nil {
		t.Error(err)
	}
	if got := h.AllocStats().FreeCells; got != int64(cells-2) {
		t.Errorf("free cells = %d, want %d", got, cells-2)
	}
	for i := 0; i < cells-2; i++ {
		if _, err := h.Alloc(&c, 0, 16, White); err != nil {
			t.Fatalf("blue cell %d of %d lost: %v", i, cells-2, err)
		}
	}
	if _, err := h.Alloc(&c, 0, 16, White); err != ErrOutOfMemory {
		t.Errorf("allocation from a full heap: %v", err)
	}
}

// TestRaceSweepIntoOwnedBlock: one goroutine frees dead cells into the
// heap's only block while the block's owner allocates from it, so every
// refill rescans that block and the owner's claims race the sweep's
// color stores and count publications. At quiescence no address was
// handed out twice, none was lost, and the bookkeeping is exact.
func TestRaceSweepIntoOwnedBlock(t *testing.T) {
	h, err := New(2*BlockSize, false) // one usable block
	if err != nil {
		t.Fatal(err)
	}
	const allocs = 100000
	cells := CellsPerBlock(0)
	held := make([]atomic.Bool, h.NumGranules())
	stop := make(chan struct{})
	var sweeper sync.WaitGroup
	freed := 0
	sweeper.Add(1)
	go func() {
		defer sweeper.Done()
		for {
			n, _, _ := h.SweepBlock(1, Yellow, NoColor, Black, nil)
			freed += n
			select {
			case <-stop:
				return
			default:
				runtime.Gosched()
			}
		}
	}()
	var c Cache
	for i := 0; i < allocs; {
		a, err := h.Alloc(&c, 0, 16, White)
		if err == ErrOutOfMemory {
			runtime.Gosched() // every cell is dead or uncounted: let the sweep catch up
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if held[a/Granule].Swap(true) {
			t.Fatalf("address %#x handed out twice", a)
		}
		i++
		// The object dies at once: release the address, then publish the
		// death to the sweep through the clear color.
		held[a/Granule].Store(false)
		h.SetColor(a, Yellow)
	}
	close(stop)
	sweeper.Wait()
	n, _, _ := h.SweepBlock(1, Yellow, NoColor, Black, nil)
	freed += n
	h.Flush(&c)
	if freed != allocs {
		t.Errorf("%d cells allocated, %d freed", allocs, freed)
	}
	if err := h.CheckIntegrity(); err != nil {
		t.Error(err)
	}
	if err := h.ReconcileCounters(); err != nil {
		t.Error(err)
	}
	if st := h.Census(); h.AllocatedObjects() != 0 || st.FreeCells != cells || st.Alloc.FreeCells != int64(cells) {
		t.Errorf("at quiescence: %d objects allocated, %d blue cells, %d counted; want 0, %d, %d",
			h.AllocatedObjects(), st.FreeCells, st.Alloc.FreeCells, cells, cells)
	}
}

// TestSweepBlockAllocatesNothing: the reclamation primitive makes no Go
// allocation however many cells it frees — no batch, no per-class list.
func TestSweepBlockAllocatesNothing(t *testing.T) {
	h, err := New(1<<20, false)
	if err != nil {
		t.Fatal(err)
	}
	var c Cache
	var blocks [8]int
	got := testing.AllocsPerRun(20, func() {
		for i := 0; i < len(blocks)*CellsPerBlock(0); i++ {
			a, err := h.Alloc(&c, 0, 16, Yellow)
			if err != nil {
				t.Fatal(err)
			}
			blocks[i/CellsPerBlock(0)] = int(a / BlockSize)
		}
		for _, b := range blocks {
			if n, _, _ := h.SweepBlock(b, Yellow, NoColor, Black, nil); n != CellsPerBlock(0) {
				t.Fatalf("block %d: freed %d cells, want %d", b, n, CellsPerBlock(0))
			}
		}
		h.ReclaimEmptyBlocks()
	})
	if got != 0 {
		t.Errorf("allocating, sweeping and reclaiming %d blocks made %v Go allocations per run, want 0", len(blocks), got)
	}
}
