package gc

import (
	"testing"

	"gengc/internal/heap"
)

// TestFilledBlackBlockSkippedByPartials: the Figure 15 working-set
// confinement survives the allocator owning whole blocks. A cache keeps
// a block it has filled until its next refill of that class, so the
// partial that promotes the block's objects still finds it owned and
// cannot hint it; the mutator's next allocation of the class releases
// it, the following partial hints it all-black, and from then on partial
// sweeps do not walk it.
func TestFilledBlackBlockSkippedByPartials(t *testing.T) {
	c := newTestCollector(t, Generational)
	m := c.NewMutator()
	const size = 64
	var objs []heap.Addr
	for i := 0; i < heap.BlockSize/size; i++ {
		a := mustAlloc(t, m, 0, size)
		m.PushRoot(a)
		objs = append(objs, a)
	}
	b := int(objs[0] / heap.BlockSize)
	if last := int(objs[len(objs)-1] / heap.BlockSize); last != b {
		t.Fatalf("objects span blocks %d..%d, want one block", b, last)
	}
	collectWhileCooperating(c, false, m)
	for _, a := range objs {
		if c.H.Color(a) != heap.Black {
			t.Fatalf("object %#x not promoted", a)
		}
	}
	if c.H.AllBlackHint(b) {
		t.Fatal("block hinted all-black while an allocation cache still owns it")
	}
	// The next allocation of the class finds the cursor at the block's
	// end and refills, which releases the block.
	if next := mustAlloc(t, m, 0, size); int(next/heap.BlockSize) == b {
		t.Fatalf("allocation %#x came from the full block", next)
	}
	collectWhileCooperating(c, false, m)
	if !c.H.AllBlackHint(b) {
		t.Fatal("full, all-black, released block not hinted by the following partial")
	}
	// Prove the skip: give one of the block's objects the color the
	// next cycle clears. A sweep that walked the block would free it.
	probe := objs[3]
	c.H.SetColor(probe, c.AllocColor())
	collectWhileCooperating(c, false, m)
	if !c.H.ValidObject(probe) {
		t.Fatal("partial sweep walked a block hinted all-black")
	}
	c.H.SetColor(probe, heap.Black)
	if err := c.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestSweepAllocatesNoGoMemory guards the reclamation path against a
// reintroduced per-batch or per-cycle Go allocation (`make check` runs
// it by name): a warmed partial collection makes the same small number
// of Go allocations — the cycle record's fixed-size slices, the cycle
// log — whether it frees 10 000 cells or 100 000.
func TestSweepAllocatesNoGoMemory(t *testing.T) {
	c, err := New(Config{Mode: Generational, HeapBytes: 16 << 20, YoungBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	perCycle := func(dead int) float64 {
		// The collector alone: the garbage's mutator detaches before
		// the cycle, so no handshake helper goroutine is in the count.
		cycle := func() {
			m := c.NewMutator()
			for i := 0; i < dead; i++ {
				if _, err := m.Alloc(0, 16+i%3*40); err != nil {
					t.Fatal(err)
				}
			}
			m.Detach()
			c.CollectNow(false)
			if got := c.cyc.ObjectsFreed; got != dead {
				t.Fatalf("partial freed %d objects, want %d", got, dead)
			}
		}
		cycle() // warm: partial lists, trace stacks, the free-block pool
		return testing.AllocsPerRun(5, cycle)
	}
	perCycle(100000)
	small, large := perCycle(10000), perCycle(100000)
	t.Logf("Go allocations per partial collection: %v freeing 10 000 cells, %v freeing 100 000", small, large)
	if large > small+2 || small > 64 {
		t.Errorf("Go allocations per partial collection: %v freeing 10 000 cells, %v freeing 100 000; want a small constant", small, large)
	}
}
