package gc

import (
	"sync"
	"testing"
	"time"

	"gengc/internal/heap"
)

// TestTraceDeepStructure: a deep linked structure is fully traced.
func TestTraceDeepStructure(t *testing.T) {
	c := newTestCollector(t, Generational)
	m := c.NewMutator()
	head := mustAlloc(t, m, 1, 0)
	m.PushRoot(head)
	cur := head
	const depth = 5000
	for i := 0; i < depth; i++ {
		n := mustAlloc(t, m, 1, 0)
		m.Update(cur, 0, n)
		cur = n
	}
	collectWhileCooperating(c, false, m)
	// Everything black, nothing freed.
	n := 0
	for x := head; x != 0; x = c.H.LoadSlot(x, 0) {
		if c.H.Color(x) != heap.Black {
			t.Fatalf("node %d not black", n)
		}
		n++
	}
	if n != depth+1 {
		t.Fatalf("chain length %d, want %d", n, depth+1)
	}
}

// TestTraceSharedAndCyclicStructure: diamonds and cycles are traced
// without duplication or hangs, and cyclic garbage is reclaimed.
func TestTraceSharedAndCyclicStructure(t *testing.T) {
	c := newTestCollector(t, Generational)
	m := c.NewMutator()
	a := mustAlloc(t, m, 2, 0)
	b := mustAlloc(t, m, 2, 0)
	d := mustAlloc(t, m, 2, 0)
	m.Update(a, 0, b)
	m.Update(a, 1, d)
	m.Update(b, 0, d) // diamond
	m.Update(d, 0, a) // cycle back to the root
	m.PushRoot(a)

	// Cyclic garbage.
	g1 := mustAlloc(t, m, 1, 0)
	g2 := mustAlloc(t, m, 1, 0)
	m.Update(g1, 0, g2)
	m.Update(g2, 0, g1)

	collectWhileCooperating(c, false, m)
	for _, x := range []heap.Addr{a, b, d} {
		if c.H.Color(x) != heap.Black {
			t.Errorf("live node %#x not black", x)
		}
	}
	if c.H.ValidObject(g1) || c.H.ValidObject(g2) {
		t.Error("cyclic garbage survived")
	}
	if err := c.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestTraceTermination: the trace fixpoint protocol terminates while a
// mutator keeps producing grays throughout.
func TestTraceTermination(t *testing.T) {
	c := newTestCollector(t, Generational)
	m := c.NewMutator()
	x := mustAlloc(t, m, 1, 0)
	m.PushRoot(x)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				m.Cooperate()
				// Churn: overwrite a slot with fresh objects so the
				// deletion barrier keeps firing.
				n, err := m.Alloc(0, 32)
				if err != nil {
					t.Error(err)
					return
				}
				m.Update(x, 0, n)
			}
		}
	}()
	done := make(chan struct{})
	go func() {
		c.CollectNow(false)
		c.CollectNow(true)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("trace did not terminate under churn")
	}
	close(stop)
	wg.Wait()
	if err := c.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestDetachedMutatorGraysAdopted: grays left in a detached mutator's
// buffer are still traced.
func TestDetachedMutatorGraysAdopted(t *testing.T) {
	c := newTestCollector(t, Generational)
	keeper := c.NewMutator()
	temp := c.NewMutator()
	x := mustAlloc(t, temp, 0, 32)
	// Publish x via the globals so it stays reachable, then force a
	// gray into temp's buffer and detach before any trace runs.
	keeper.Update(c.Globals(), 0, x)
	c.switchColors() // x now clear-colored
	temp.markGray(x)
	temp.Detach()
	c.switchColors() // restore toggle state for a clean cycle

	collectWhileCooperating(c, false, keeper)
	if !c.H.ValidObject(x) {
		t.Fatal("object grayed by a detached mutator was lost")
	}
}

// TestMarkBlackCounts: trace work counters reflect the traced graph.
func TestMarkBlackCounts(t *testing.T) {
	c := newTestCollector(t, Generational)
	m := c.NewMutator()
	root := mustAlloc(t, m, 3, 0)
	m.PushRoot(root)
	for i := 0; i < 3; i++ {
		m.Update(root, i, mustAlloc(t, m, 0, 32))
	}
	collectWhileCooperating(c, false, m)
	cs := c.Metrics().Cycles()
	last := cs[len(cs)-1]
	// root + 3 children + globals object.
	if last.ObjectsScanned < 4 || last.ObjectsScanned > 6 {
		t.Errorf("ObjectsScanned = %d, want about 5", last.ObjectsScanned)
	}
	if last.SlotsScanned < 3 {
		t.Errorf("SlotsScanned = %d, want >= 3", last.SlotsScanned)
	}
}

// TestTraceScansRecordedSlots: for every size class and a large object,
// the trace reads an object's slot count where create recorded it (the
// cell's header, flagged in its color byte) and visits exactly that many
// slots.
func TestTraceScansRecordedSlots(t *testing.T) {
	sizes := []int{3 * heap.BlockSize}
	for class := 0; class < heap.NumClasses; class++ {
		sizes = append(sizes, heap.ClassSize(class))
	}
	for _, size := range sizes {
		c := newTestCollector(t, NonGenerational)
		m := c.NewMutator()
		leaf := mustAlloc(t, m, 0, 16)
		slots := heap.MaxSlots(size)
		root := mustAlloc(t, m, slots, size)
		m.PushRoot(root)
		for i := 0; i < slots; i++ {
			m.Update(root, i, leaf)
		}
		collectWhileCooperating(c, true, m)
		cs := c.Metrics().Cycles()
		last := cs[len(cs)-1]
		if want := slots + c.H.Slots(c.globals); last.ObjectsScanned != 3 || last.SlotsScanned != want {
			t.Errorf("size %d: traced %d objects and %d slots, want 3 (root, leaf, globals) and %d",
				size, last.ObjectsScanned, last.SlotsScanned, want)
		}
		if err := c.Verify(); err != nil {
			t.Errorf("size %d: %v", size, err)
		}
	}
}
