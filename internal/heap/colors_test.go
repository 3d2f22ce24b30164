package heap

import (
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
)

// TestSideMetadataBudget: the heap keeps one byte of side table per
// granule, the colors, and a second, the ages, only when it keeps ages
// (the aging collector). Every slice field of Heap except the heap
// memory itself and the per-block metadata counts, so another
// per-granule table cannot come back unnoticed.
func TestSideMetadataBudget(t *testing.T) {
	for _, tc := range []struct {
		ages   bool
		budget int
	}{{false, 1}, {true, 2}} {
		h, err := New(32<<20, tc.ages)
		if err != nil {
			t.Fatal(err)
		}
		v := reflect.ValueOf(h).Elem()
		total := 0
		for i := 0; i < v.NumField(); i++ {
			f := v.Field(i)
			name := v.Type().Field(i).Name
			if f.Kind() != reflect.Slice || name == "mem" || name == "blocks" {
				continue
			}
			n := f.Len() * int(f.Type().Elem().Size())
			t.Logf("ages %v: %s: %d bytes", tc.ages, name, n)
			total += n
		}
		if perGranule := float64(total) / float64(h.NumGranules()); perGranule != float64(tc.budget) {
			t.Errorf("ages %v: side tables hold %d bytes, %.2f per granule; the budget is %d",
				tc.ages, total, perGranule, tc.budget)
		}
	}
}

// TestEqMaskMatchesScalar holds the SWAR byte-equality mask to its
// scalar definition — bit 7 of byte i is set iff byte i's color field
// equals c, whatever its hasSlots flag — over random words and the
// boundary words, for every color.
func TestEqMaskMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	words := []uint64{0}
	for c := Blue; c <= Black; c++ {
		words = append(words, uint64(c)*lo8, uint64(c|hasSlots)*lo8)
	}
	for i := 0; i < 20000; i++ {
		var w uint64
		for b := 0; b < 8; b++ {
			w |= uint64(rng.Intn(int(Black)+1)|rng.Intn(2)*hasSlots) << (b * 8)
		}
		words = append(words, w)
	}
	for _, w := range words {
		for c := Blue; c <= Black; c++ {
			var want uint64
			for b := 0; b < 8; b++ {
				if Color(w>>(b*8)&colorBits) == c {
					want |= 0x80 << (b * 8)
				}
			}
			if got := eqMask(w, c); got != want {
				t.Fatalf("eqMask(%#016x, %v) = %#016x, want %#016x", w, c, got, want)
			}
		}
		if got, want := allocated(w), hi8&^eqMask(w, Blue); got != want {
			t.Fatalf("allocated(%#016x) = %#016x, want %#016x", w, got, want)
		}
	}
}

// TestRaceColorWordNeighbours: eight goroutines each own one granule of
// the same color word and run it through every kind of write the table
// takes — the create OR, SetColor, CasColor and the sweep's AND — while
// their seven neighbours do the same. No update of any byte is ever
// lost, and a byte never shows a color (or a slot flag) its owner did
// not write.
func TestRaceColorWordNeighbours(t *testing.T) {
	h := newTestHeap(t, 1<<20)
	var c Cache
	var cells [8]Addr
	for i := range cells {
		a, err := h.Alloc(&c, 0, 16, White)
		if err != nil {
			t.Fatal(err)
		}
		cells[i] = a
	}
	if w0, _ := h.colorByte(cells[0]); cells[0]%(8*Granule) != 0 {
		t.Fatalf("first cell %#x does not start a color word", cells[0])
	} else if w7, _ := h.colorByte(cells[7]); w0 != w7 {
		t.Fatal("the eight cells do not share a color word")
	}
	b := int(cells[0] / BlockSize)
	const rounds = 5000
	var wg sync.WaitGroup
	for i := range cells {
		wg.Add(1)
		go func(a Addr, slots int) {
			defer wg.Done()
			check := func(step string, col Color, n int) bool {
				if gc, gn := h.Header(a); gc != col || gn != n {
					t.Errorf("cell %#x after %s: (%v, %d slots), want (%v, %d)", a, step, gc, gn, col, n)
					return false
				}
				return true
			}
			mine := func(addr Addr, _ Color) bool { return addr == a }
			if !check("setup", White, 0) {
				return
			}
			for r := 0; r < rounds; r++ {
				h.SetColor(a, Yellow)
				ok := check("SetColor", Yellow, slots*(r&1))
				if h.CasColor(a, White, NoColor, Gray) {
					t.Errorf("cell %#x: CasColor from the wrong color succeeded", a)
				}
				if !h.CasColor(a, Yellow, NoColor, Gray) {
					t.Errorf("cell %#x: CasColor from its own color failed", a)
				}
				ok = ok && check("CasColor", Gray, slots*(r&1))
				h.SetColor(a, Black)
				ok = ok && check("SetColor", Black, slots*(r&1))
				if n, _, _ := h.SweepBlock(b, NoColor, NoColor, Black, mine); n != 1 {
					t.Errorf("cell %#x: sweep freed %d cells, want 1", a, n)
				}
				ok = ok && check("sweep", Blue, 0)
				if w, s := h.colorByte(a); uint8(atomic.LoadUint64(w)>>s) != 0 {
					t.Errorf("cell %#x: freed byte is not zero", a)
				}
				// Create, alternately with and without slots.
				h.publish(a, slots*(^r&1), White)
				if !ok || !check("create", White, slots*(^r&1)) {
					return
				}
			}
		}(cells[i], 1+i%2)
	}
	wg.Wait()
}

// populateBlock fills one block of the class in a fresh heap from rng:
// cells of random colors (both old codes among them) and slot counts,
// some freed again, the block left owned, released or — allBlack —
// filled with cells of the old code old only. The same seed builds the
// same heap.
func populateBlock(t *testing.T, class int, seed int64, allBlack bool, old Color) (*Heap, *Cache, int) {
	t.Helper()
	h := newTestHeap(t, 4*BlockSize)
	rng := rand.New(rand.NewSource(seed))
	c := new(Cache)
	cell := ClassSize(class)
	var addrs []Addr
	n := 1 + rng.Intn(CellsPerBlock(class))
	if allBlack {
		n = CellsPerBlock(class)
	}
	for i := 0; i < n; i++ {
		col := old
		if !allBlack {
			col = White + Color(rng.Intn(5))
		}
		a, err := h.Alloc(c, rng.Intn(MaxSlots(cell)+1)%8, cell, col)
		if err != nil {
			t.Fatal(err)
		}
		addrs = append(addrs, a)
	}
	b := int(addrs[0] / BlockSize)
	if !allBlack {
		holes := map[Addr]bool{}
		for i := rng.Intn(len(addrs)); i > 0; i-- {
			holes[addrs[rng.Intn(len(addrs))]] = true
		}
		h.SweepBlock(b, NoColor, NoColor, Black, func(a Addr, _ Color) bool { return holes[a] })
	}
	if rng.Intn(2) == 0 {
		h.Flush(c)
	}
	return h, c, b
}

// referenceSweep is the per-cell sweep SweepBlock replaced, kept as the
// definition the word-at-a-time walk must agree with: examine every
// cell of small block b at stride, turn the clear- and stale-colored
// ones blue, publish the count once.
func referenceSweep(h *Heap, b int, clear, stale, old Color) (n, bytes int, allBlack bool) {
	bm := &h.blocks[b]
	class := int(bm.class.Load())
	cell := classSizes[class]
	allBlack = true
	for i := 0; i < BlockSize/cell; i++ {
		addr := Addr(b*BlockSize + i*cell)
		col := h.Color(addr)
		if col != old {
			allBlack = false
		}
		if col != Blue && (col == clear || col == stale) {
			h.SetColor(addr, Blue)
			n++
		}
	}
	if n == 0 {
		return 0, 0, allBlack
	}
	s := h.shardFor(class)
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

// TestSweepBlockMatchesReference: over random populations of every size
// class, both clear colors and both old codes, with and without a stale
// old code, SweepBlock and the per-cell reference sweep free the same
// set, report the same count, bytes and all-black census, and leave the
// same free count and partial-list membership.
func TestSweepBlockMatchesReference(t *testing.T) {
	listed := func(h *Heap, class, b int) bool {
		for _, x := range h.partial[class] {
			if int(x) == b {
				return true
			}
		}
		return false
	}
	for class := 0; class < NumClasses; class++ {
		for k, cols := range [][3]Color{
			{White, NoColor, Black}, {Yellow, NoColor, Black}, {Yellow, Black, Black2}, {White, Black2, Black},
		} {
			clear, stale, old := cols[0], cols[1], cols[2]
			for trial := 0; trial < 40; trial++ {
				seed := int64(class*1000 + trial + k*100)
				allBlack := trial%8 == 7
				got, gc, b := populateBlock(t, class, seed, allBlack, old)
				want, wc, _ := populateBlock(t, class, seed, allBlack, old)
				gn, gb, gBlack := got.SweepBlock(b, clear, stale, old, nil)
				wn, wb, wBlack := referenceSweep(want, b, clear, stale, old)
				if gn != wn || gb != wb || gBlack != wBlack {
					t.Fatalf("class %d clear %v seed %d: SweepBlock = (%d, %d, %v), reference = (%d, %d, %v)",
						class, clear, seed, gn, gb, gBlack, wn, wb, wBlack)
				}
				if allBlack && !gBlack {
					t.Fatalf("class %d: a block of %v cells only is not all-black", class, old)
				}
				for i, w := range want.blockWords(b) {
					if g := got.blockWords(b)[i]; g != w {
						t.Fatalf("class %d clear %v seed %d: color word %d = %#016x, reference %#016x",
							class, clear, seed, i, g, w)
					}
				}
				if g, w := got.blocks[b].freeCells, want.blocks[b].freeCells; g != w {
					t.Fatalf("class %d clear %v seed %d: freeCells = %d, reference %d", class, clear, seed, g, w)
				}
				if g, w := listed(got, class, b), listed(want, class, b); g != w {
					t.Fatalf("class %d clear %v seed %d: on partial list: %v, reference %v", class, clear, seed, g, w)
				}
				for _, h := range []*Heap{got, want} {
					cache := gc
					if h == want {
						cache = wc
					}
					h.PublishAllocs(cache)
					if err := h.ReconcileCounters(); err != nil {
						t.Fatalf("class %d clear %v seed %d: %v", class, clear, seed, err)
					}
				}
			}
		}
	}
}

// TestSlotsRoundTrip: an object's slot count survives create → Slots for
// every size class and a large object, and lives in the cell only when
// there are slots: creating a pointer-free object writes no cell memory,
// and a cell reused without slots after a tenant with slots reads as
// pointer-free although the stale count is still in its header.
func TestSlotsRoundTrip(t *testing.T) {
	h := newTestHeap(t, 1<<20)
	var c Cache
	sizes := append([]int(nil), classSizes[:]...)
	sizes = append(sizes, 3*BlockSize)
	for _, size := range sizes {
		for _, slots := range []int{0, 1, MaxSlots(size)} {
			a, err := h.Alloc(&c, slots, size, White)
			if err != nil {
				t.Fatal(err)
			}
			if _, cell := ClassFor(size); cell != size || h.SizeOf(a) != size {
				t.Fatalf("size %d: ClassFor gave cell %d, SizeOf %d", size, cell, h.SizeOf(a))
			}
			if col, n := h.Header(a); col != White || n != slots || h.Slots(a) != slots {
				t.Fatalf("size %d: Header = (%v, %d), Slots = %d; want (white, %d)", size, col, n, h.Slots(a), slots)
			}
			for i := 0; i < slots; i++ {
				if h.LoadSlot(a, i) != 0 {
					t.Fatalf("size %d: slot %d of a new object is not nil", size, i)
				}
			}
		}
	}

	const sentinel = 0xdeadbeef
	a, _ := h.Alloc(&c, 2, 0, White)
	for i := 0; i < 16/WordBytes; i++ {
		h.mem[int(a)/WordBytes+i] = sentinel
	}
	freeCells(h, a)
	h.Flush(&c) // the next claim rescans the block from its start
	b, _ := h.Alloc(&c, 0, 16, White)
	if b != a {
		t.Fatalf("reuse got %#x, want the freed cell %#x", b, a)
	}
	for i := 0; i < 16/WordBytes; i++ {
		if got := h.mem[int(a)/WordBytes+i]; got != sentinel {
			t.Errorf("pointer-free create wrote cell word %d: %#x", i, got)
		}
	}
	if h.Slots(b) != 0 {
		t.Errorf("reused cell reads %d slots from its earlier tenant's header", h.Slots(b))
	}
}
