package heap

import (
	"errors"
	"math/rand"
	"sync"
	"testing"
)

func newTestHeap(t *testing.T, size int) *Heap {
	t.Helper()
	h, err := New(size, false)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// freeCells frees exactly the given objects through SweepBlock, the way
// a sweep that found them (and nothing else) dead would, and returns the
// bytes freed.
func freeCells(h *Heap, addrs ...Addr) int {
	dead := make(map[Addr]bool, len(addrs))
	for _, a := range addrs {
		dead[a] = true
	}
	swept := make(map[Addr]bool)
	bytes := 0
	for _, a := range addrs {
		if b := a / BlockSize; !swept[b] {
			swept[b] = true
			_, n, _ := h.SweepBlock(int(b), NoColor, NoColor, Black, func(addr Addr, _ Color) bool { return dead[addr] })
			bytes += n
		}
	}
	return bytes
}

func TestNewRejectsTinyHeap(t *testing.T) {
	if _, err := New(BlockSize, false); err == nil {
		t.Fatal("New accepted a one-block heap")
	}
}

func TestAllocBasics(t *testing.T) {
	h := newTestHeap(t, 1<<20)
	var c Cache
	addr, err := h.Alloc(&c, 3, 0, White)
	if err != nil {
		t.Fatal(err)
	}
	if addr == 0 || addr%Granule != 0 {
		t.Fatalf("bad address %#x", addr)
	}
	if got := h.Color(addr); got != White {
		t.Errorf("new object color = %v, want white", got)
	}
	if got := h.Slots(addr); got != 3 {
		t.Errorf("slots = %d, want 3", got)
	}
	for i := 0; i < 3; i++ {
		if v := h.LoadSlot(addr, i); v != 0 {
			t.Errorf("slot %d = %#x, want nil", i, v)
		}
	}
	// Header + 3 slots = 20 bytes -> 32-byte class.
	if got := h.SizeOf(addr); got != 32 {
		t.Errorf("SizeOf = %d, want 32", got)
	}
	if !h.ValidObject(addr) {
		t.Error("ValidObject is false for a fresh object")
	}
	h.PublishAllocs(&c)
	if h.AllocatedObjects() != 1 || h.AllocatedBytes() != 32 {
		t.Errorf("accounting = (%d objects, %d bytes), want (1, 32)",
			h.AllocatedObjects(), h.AllocatedBytes())
	}
}

func TestAllocSlotStores(t *testing.T) {
	h := newTestHeap(t, 1<<20)
	var c Cache
	a, _ := h.Alloc(&c, 2, 0, White)
	b, _ := h.Alloc(&c, 0, 64, White)
	h.StoreSlot(a, 0, b)
	if got := h.LoadSlot(a, 0); got != b {
		t.Errorf("slot round trip = %#x, want %#x", got, b)
	}
	if got := h.LoadSlot(a, 1); got != 0 {
		t.Errorf("untouched slot = %#x, want 0", got)
	}
}

func TestAllocZeroesRecycledSlots(t *testing.T) {
	h := newTestHeap(t, 1<<20)
	var c Cache
	a, _ := h.Alloc(&c, 2, 0, White)
	h.StoreSlot(a, 0, a)
	h.StoreSlot(a, 1, a)
	h.SetColor(a, Yellow) // pretend it's clear-colored garbage
	freeCells(h, a)
	// The recycled cell must come back with zeroed slots. It lies behind
	// the cursor, so it returns once the block is exhausted and rescanned.
	b, _ := h.Alloc(&c, 2, 0, White)
	for i := 0; i < CellsPerBlock(0) && b != a; i++ {
		b, _ = h.Alloc(&c, 2, 0, White)
	}
	if b != a {
		t.Fatal("freed cell was not recycled when its block was rescanned")
	}
	if h.LoadSlot(b, 0) != 0 || h.LoadSlot(b, 1) != 0 {
		t.Error("recycled cell has stale pointer slots")
	}
}

func TestSweepBlockAccounting(t *testing.T) {
	h := newTestHeap(t, 1<<20)
	var c Cache
	addr, _ := h.Alloc(&c, 0, 48, White)
	keep, _ := h.Alloc(&c, 0, 48, Black)
	var seen []Addr
	objects, bytes, _ := h.SweepBlock(int(addr/BlockSize), NoColor, NoColor, Black, func(a Addr, col Color) bool {
		seen = append(seen, a)
		return col == White
	})
	if objects != 1 || bytes != 48 {
		t.Errorf("SweepBlock freed (%d objects, %d bytes), want (1, 48)", objects, bytes)
	}
	if len(seen) != 2 || seen[0] != addr || seen[1] != keep {
		t.Errorf("SweepBlock showed %#x, want exactly the two allocated cells in address order", seen)
	}
	if h.Color(keep) != Black {
		t.Errorf("surviving cell color = %v, want black", h.Color(keep))
	}
	freeCells(h, keep)
	if h.Color(addr) != Blue {
		t.Errorf("freed cell color = %v, want blue", h.Color(addr))
	}
	h.PublishAllocs(&c)
	if h.AllocatedObjects() != 0 || h.AllocatedBytes() != 0 {
		t.Errorf("accounting after free = (%d, %d), want zeros",
			h.AllocatedObjects(), h.AllocatedBytes())
	}
	if err := h.CheckIntegrity(); err != nil {
		t.Error(err)
	}
}

func TestSweepBlockAcrossClasses(t *testing.T) {
	h := newTestHeap(t, 1<<20)
	var c Cache
	var addrs []Addr
	total := 0
	for i := 0; i < 100; i++ {
		a, err := h.Alloc(&c, 1, 32+i%64, White)
		if err != nil {
			t.Fatal(err)
		}
		addrs = append(addrs, a)
		total += h.SizeOf(a)
	}
	if got := freeCells(h, addrs...); got != total {
		t.Errorf("sweeps freed %d bytes, want %d", got, total)
	}
	h.PublishAllocs(&c)
	if h.AllocatedObjects() != 0 {
		t.Errorf("objects after batch free = %d, want 0", h.AllocatedObjects())
	}
	if err := h.CheckIntegrity(); err != nil {
		t.Error(err)
	}
}

func TestLargeObjects(t *testing.T) {
	h := newTestHeap(t, 1<<20)
	var c Cache
	a, err := h.Alloc(&c, 4, 3*BlockSize, White)
	if err != nil {
		t.Fatal(err)
	}
	if a%BlockSize != 0 {
		t.Errorf("large object not block aligned: %#x", a)
	}
	if got := h.SizeOf(a); got != 3*BlockSize {
		t.Errorf("large SizeOf = %d, want %d", got, 3*BlockSize)
	}
	if !h.ValidObject(a) {
		t.Error("large object not valid")
	}
	h.StoreSlot(a, 3, a)
	if h.LoadSlot(a, 3) != a {
		t.Error("large object slot store failed")
	}
	free := h.FreeBlockCount()
	if got := freeCells(h, a); got != 3*BlockSize {
		t.Errorf("freeing large returned %d, want %d", got, 3*BlockSize)
	}
	if h.FreeBlockCount() != free+3 {
		t.Errorf("blocks not returned: %d -> %d", free, h.FreeBlockCount())
	}
	if err := h.CheckIntegrity(); err != nil {
		t.Error(err)
	}
}

func TestLargeObjectOOM(t *testing.T) {
	h := newTestHeap(t, 16*BlockSize)
	var c Cache
	if _, err := h.Alloc(&c, 0, 64*BlockSize, White); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("oversized large alloc error = %v, want ErrOutOfMemory", err)
	}
}

func TestSmallObjectOOMAndRecovery(t *testing.T) {
	h := newTestHeap(t, 16*BlockSize)
	var c Cache
	var addrs []Addr
	for {
		a, err := h.Alloc(&c, 0, 2048, White)
		if err != nil {
			if !errors.Is(err, ErrOutOfMemory) {
				t.Fatalf("unexpected error %v", err)
			}
			break
		}
		addrs = append(addrs, a)
	}
	if len(addrs) == 0 {
		t.Fatal("no allocations succeeded")
	}
	// Free everything; allocation must work again.
	freeCells(h, addrs...)
	if _, err := h.Alloc(&c, 0, 2048, White); err != nil {
		t.Fatalf("allocation after free failed: %v", err)
	}
	if err := h.CheckIntegrity(); err != nil {
		t.Error(err)
	}
}

func TestFlushReleasesOwnedBlocks(t *testing.T) {
	h := newTestHeap(t, 1<<20)
	var c Cache
	a, _ := h.Alloc(&c, 0, 16, White) // takes ownership of a fresh block
	freeCells(h, a)
	if st := h.AllocStats(); st.CachedCells == 0 || st.FreeCells != 0 {
		t.Errorf("owned block's blue cells counted as (cached %d, free %d), want all cached",
			st.CachedCells, st.FreeCells)
	}
	h.Flush(&c)
	if st := h.AllocStats(); st.CachedCells != 0 || st.FreeCells != int64(CellsPerBlock(0)) {
		t.Errorf("after flush (cached %d, free %d), want (0, %d)",
			st.CachedCells, st.FreeCells, CellsPerBlock(0))
	}
	if err := h.CheckIntegrity(); err != nil {
		t.Error(err)
	}
	h.ReclaimEmptyBlocks()
	// After flush + reclaim the heap must be completely free again.
	if got := h.FreeBlockCount(); got != h.NumBlocks()-1 {
		t.Errorf("free blocks = %d, want %d", got, h.NumBlocks()-1)
	}
}

func TestReclaimEmptyBlocksKeepsLiveBlocks(t *testing.T) {
	h := newTestHeap(t, 1<<20)
	var c Cache
	live, _ := h.Alloc(&c, 0, 64, Black)
	var dead []Addr
	for i := 0; i < 200; i++ {
		a, _ := h.Alloc(&c, 0, 64, Yellow)
		dead = append(dead, a)
	}
	freeCells(h, dead...)
	h.Flush(&c)
	before := h.FreeBlockCount()
	if got := h.ReclaimEmptyBlocks(); got == 0 || h.FreeBlockCount() != before+got {
		t.Errorf("reclaimed %d blocks, free pool %d -> %d; the all-dead blocks must retire",
			got, before, h.FreeBlockCount())
	}
	if !h.ValidObject(live) || h.Color(live) != Black {
		t.Error("live object lost after reclaim")
	}
	if err := h.CheckIntegrity(); err != nil {
		t.Error(err)
	}
}

func TestForEachObjectInRange(t *testing.T) {
	h := newTestHeap(t, 1<<20)
	var c Cache
	var addrs []Addr
	for i := 0; i < 50; i++ {
		a, _ := h.Alloc(&c, 0, 48, White)
		addrs = append(addrs, a)
	}
	// Every object must be found exactly once when covering the heap.
	found := map[Addr]int{}
	h.ForEachObjectInRange(0, Addr(h.SizeBytes), func(a Addr) { found[a]++ })
	for _, a := range addrs {
		if found[a] != 1 {
			t.Errorf("object %#x found %d times", a, found[a])
		}
	}
	// A window covering exactly one object's start finds only objects
	// starting in it.
	target := addrs[20]
	h.ForEachObjectInRange(target, target+16, func(a Addr) {
		if a != target {
			t.Errorf("range [%#x,%#x) returned %#x", target, target+16, a)
		}
	})
	// An empty window (free block) finds nothing.
	h.ForEachObjectInRange(Addr(h.SizeBytes-BlockSize), Addr(h.SizeBytes), func(a Addr) {
		t.Errorf("free region returned object %#x", a)
	})
}

func TestAllocatedRegions(t *testing.T) {
	h := newTestHeap(t, 1<<20)
	var c Cache
	if _, err := h.Alloc(&c, 0, 64, White); err != nil {
		t.Fatal(err)
	}
	var total int
	h.AllocatedRegions(func(start, end Addr) {
		if start >= end || start%BlockSize != 0 || end%BlockSize != 0 {
			t.Errorf("bad region [%#x, %#x)", start, end)
		}
		total += int(end - start)
	})
	if total != BlockSize {
		t.Errorf("allocated region bytes = %d, want one block", total)
	}
}

func TestValidObjectRejectsJunk(t *testing.T) {
	h := newTestHeap(t, 1<<20)
	var c Cache
	a, _ := h.Alloc(&c, 0, 48, White)
	cases := []Addr{0, 1, a + 1, a + Granule, Addr(h.SizeBytes), Addr(h.SizeBytes + 64)}
	for _, addr := range cases {
		if h.ValidObject(addr) {
			t.Errorf("ValidObject(%#x) = true, want false", addr)
		}
	}
}

func TestAllBlackHints(t *testing.T) {
	h := newTestHeap(t, 1<<20)
	b := 1
	if h.AllBlackHint(b) {
		t.Error("fresh block hinted all-black")
	}
	h.SetAllBlackHint(b, true)
	if !h.AllBlackHint(b) {
		t.Error("hint not set")
	}
	h.SetAllBlackHint(b, false)
	if h.AllBlackHint(b) {
		t.Error("hint not cleared")
	}
}

// TestBlockQuiet: a block is quiet when it has no blue cells and no
// owner. A cache keeps the block it has filled until its next refill of
// the class (or its Flush) — publishing the claims alone does not give
// the block up — so a just-filled block turns quiet one refill later.
func TestBlockQuiet(t *testing.T) {
	h := newTestHeap(t, 1<<20)
	var c Cache
	a, _ := h.Alloc(&c, 0, 16, White)
	b := int(a / BlockSize)
	if h.BlockQuiet(b) {
		t.Error("owned block with blue cells reported quiet")
	}
	for i := 0; i < CellsPerBlock(0)-1; i++ {
		if _, err := h.Alloc(&c, 0, 16, White); err != nil {
			t.Fatal(err)
		}
	}
	h.PublishAllocs(&c)
	if h.BlockQuiet(b) {
		t.Error("fully allocated block reported quiet while its cache still owns it")
	}
	// The next allocation of the class refills: the full block is
	// released, and is quiet from then on.
	next, err := h.Alloc(&c, 0, 16, White)
	if err != nil {
		t.Fatal(err)
	}
	if int(next/BlockSize) == b {
		t.Fatalf("allocation %#x came from the full block %d", next, b)
	}
	if !h.BlockQuiet(b) {
		t.Error("fully allocated, released block not quiet")
	}
	// A death in it ends the quiet, and the block is offered again.
	freeCells(h, a)
	if h.BlockQuiet(b) {
		t.Error("block with a blue cell reported quiet")
	}
	if err := h.CheckIntegrity(); err != nil {
		t.Error(err)
	}
}

func TestAgeTable(t *testing.T) {
	h, err := New(1<<20, true)
	if err != nil {
		t.Fatal(err)
	}
	var c Cache
	a, _ := h.Alloc(&c, 0, 32, White)
	if h.Age(a) != 0 {
		t.Errorf("fresh age = %d, want 0", h.Age(a))
	}
	h.SetAge(a, 7)
	if h.Age(a) != 7 {
		t.Errorf("age = %d, want 7", h.Age(a))
	}
	// The death zeroes the age, so the reallocation finds it zero.
	freeCells(h, a)
	b, _ := h.Alloc(&c, 0, 32, White)
	for i := 0; b != a && i < CellsPerBlock(1); i++ {
		b, _ = h.Alloc(&c, 0, 32, White)
	}
	if b != a {
		t.Fatal("freed cell was not recycled when its block was rescanned")
	}
	if h.Age(a) != 0 {
		t.Errorf("recycled age = %d, want 0", h.Age(a))
	}
}

func TestColorTransitions(t *testing.T) {
	h := newTestHeap(t, 1<<20)
	var c Cache
	a, _ := h.Alloc(&c, 0, 32, White)
	if !h.CasColor(a, White, NoColor, Gray) {
		t.Fatal("CAS white->gray failed")
	}
	if h.CasColor(a, White, NoColor, Black) {
		t.Fatal("CAS from a color the object no longer has succeeded")
	}
	h.SetColor(a, Black)
	if h.Color(a) != Black {
		t.Fatal("SetColor lost")
	}
	// The alias matches as well as the from color: the stale old code
	// of a full collection goes straight to the new one.
	if !h.CasColor(a, Yellow, Black, Black2) || h.Color(a) != Black2 {
		t.Fatalf("CAS black->black2 through the alias failed: %v", h.Color(a))
	}
	if h.CasColor(a, Yellow, NoColor, Gray) || h.CasColor(a, Yellow, Black, Gray) {
		t.Fatal("CAS matched neither from nor alias and still succeeded")
	}
}

// TestConcurrentAllocFree hammers the allocator from several goroutines
// while another frees, then audits the heap.
func TestConcurrentAllocFree(t *testing.T) {
	h := newTestHeap(t, 4<<20)
	var wg sync.WaitGroup
	freeCh := make(chan Addr, 1024)
	done := make(chan struct{})
	// Dedicated freer simulates the collector (the only freer).
	go func() {
		for a := range freeCh {
			h.SetColor(a, Yellow)
			freeCells(h, a)
		}
		close(done)
	}()
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			var c Cache
			defer h.Flush(&c)
			for i := 0; i < 5000; i++ {
				a, err := h.Alloc(&c, rng.Intn(3), 16+rng.Intn(200), White)
				if err != nil {
					t.Errorf("alloc: %v", err)
					return
				}
				freeCh <- a
			}
		}(int64(w))
	}
	wg.Wait()
	close(freeCh)
	<-done
	if err := h.CheckIntegrity(); err != nil {
		t.Error(err)
	}
	if h.AllocatedObjects() != 0 {
		t.Errorf("leaked %d objects", h.AllocatedObjects())
	}
}

// TestAllocStressAllClasses allocates randomly across every size class
// including large, frees half, and audits.
func TestAllocStressAllClasses(t *testing.T) {
	h := newTestHeap(t, 8<<20)
	var c Cache
	rng := rand.New(rand.NewSource(7))
	var addrs []Addr
	for i := 0; i < 3000; i++ {
		size := 16 + rng.Intn(3000)
		if rng.Intn(50) == 0 {
			size = BlockSize * (1 + rng.Intn(3))
		}
		a, err := h.Alloc(&c, rng.Intn(4), size, White)
		if err != nil {
			t.Fatalf("alloc %d bytes: %v", size, err)
		}
		addrs = append(addrs, a)
	}
	for i, a := range addrs {
		if i%2 == 0 {
			h.SetColor(a, Yellow)
		}
	}
	for b := 1; b < h.NumBlocks(); b++ {
		h.SweepBlock(b, Yellow, NoColor, Black, nil)
	}
	if err := h.CheckIntegrity(); err != nil {
		t.Error(err)
	}
	h.PublishAllocs(&c)
	if err := h.ReconcileCounters(); err != nil {
		t.Error(err)
	}
	if got := int(h.AllocatedObjects()); got != len(addrs)/2 {
		t.Errorf("allocated objects = %d, want %d", got, len(addrs)/2)
	}
	// The surviving half must still be valid.
	for i, a := range addrs {
		if i%2 == 1 && !h.ValidObject(a) {
			t.Errorf("survivor %#x invalid", a)
		}
	}
}

func TestCountColor(t *testing.T) {
	h := newTestHeap(t, 1<<20)
	var c Cache
	for i := 0; i < 5; i++ {
		if _, err := h.Alloc(&c, 0, 32, Black); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		if _, err := h.Alloc(&c, 0, 32, White); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		if _, err := h.Alloc(&c, 0, 32, Black2); err != nil {
			t.Fatal(err)
		}
	}
	// Both old codes count as black, whichever one is asked for.
	if got := h.CountColor(Black); got != 7 {
		t.Errorf("CountColor(black) = %d, want 7", got)
	}
	if got := h.CountColor(Black2); got != 7 {
		t.Errorf("CountColor(black2) = %d, want 7", got)
	}
	if got := h.CountColor(White); got != 3 {
		t.Errorf("CountColor(white) = %d, want 3", got)
	}
}

// TestRangePartitionProperty: splitting the address space into disjoint
// windows must enumerate exactly the same objects as one full pass, for
// random window sizes (the card-scan correctness property).
func TestRangePartitionProperty(t *testing.T) {
	h := newTestHeap(t, 1<<20)
	var c Cache
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		if _, err := h.Alloc(&c, rng.Intn(3), 16+rng.Intn(400), White); err != nil {
			t.Fatal(err)
		}
	}
	whole := map[Addr]bool{}
	h.ForEachObjectInRange(0, Addr(h.SizeBytes), func(a Addr) { whole[a] = true })

	for _, window := range []int{16, 48, 100, 4096, 10000} {
		seen := map[Addr]bool{}
		for start := 0; start < h.SizeBytes; start += window {
			end := start + window
			if end > h.SizeBytes {
				end = h.SizeBytes
			}
			h.ForEachObjectInRange(Addr(start), Addr(end), func(a Addr) {
				if seen[a] {
					t.Fatalf("window %d: object %#x enumerated twice", window, a)
				}
				seen[a] = true
			})
		}
		if len(seen) != len(whole) {
			t.Fatalf("window %d: %d objects, whole pass found %d", window, len(seen), len(whole))
		}
	}
}
