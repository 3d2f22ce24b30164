package gc

import (
	"sync"
	"testing"
	"time"

	"gengc/internal/heap"
)

func newToggleFree(t *testing.T) *Collector {
	t.Helper()
	c, err := New(Config{Mode: NonGenerational, HeapBytes: 4 << 20,
		YoungBytes: 1 << 20, DisableColorToggle: true})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestToggleFreeConfigValidation(t *testing.T) {
	for _, mode := range []Mode{Generational, GenerationalAging} {
		if _, err := New(Config{Mode: mode, DisableColorToggle: true}); err == nil {
			t.Errorf("toggle-free accepted with %v", mode)
		}
	}
}

// TestToggleFreeBasicReclaim: garbage dies, live data survives, and the
// heap is all-white between cycles (no toggle, no recolor pass).
func TestToggleFreeBasicReclaim(t *testing.T) {
	c := newToggleFree(t)
	m := c.NewMutator()
	keep := mustAlloc(t, m, 1, 0)
	m.PushRoot(keep)
	child := mustAlloc(t, m, 0, 32)
	m.Update(keep, 0, child)
	var garbage []heap.Addr
	for i := 0; i < 100; i++ {
		garbage = append(garbage, mustAlloc(t, m, 0, 32))
	}
	collectWhileCooperating(c, true, m)
	for _, g := range garbage {
		if c.H.ValidObject(g) {
			t.Fatalf("garbage %#x survived", g)
		}
	}
	if !c.H.ValidObject(keep) || !c.H.ValidObject(child) {
		t.Fatal("live data lost")
	}
	// The survivors must be white again (sweep recolors in place).
	if c.H.Color(keep) != heap.White || c.H.Color(child) != heap.White {
		t.Fatalf("survivors not recolored white: %v/%v",
			c.H.Color(keep), c.H.Color(child))
	}
	// And a second cycle must work identically.
	collectWhileCooperating(c, true, m)
	if !c.H.ValidObject(keep) || !c.H.ValidObject(child) {
		t.Fatal("live data lost in second cycle")
	}
	if err := c.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestToggleFreeCreateColors: creation color follows the collector's
// phase per §2.
func TestToggleFreeCreateColors(t *testing.T) {
	c := newToggleFree(t)
	m := c.NewMutator()

	a := mustAlloc(t, m, 0, 32) // idle: white
	if c.H.Color(a) != heap.White {
		t.Fatalf("idle create color = %v, want white", c.H.Color(a))
	}

	c.phase.Store(uint32(phaseTracing))
	b := mustAlloc(t, m, 0, 32)
	if c.H.Color(b) != heap.Black {
		t.Fatalf("tracing create color = %v, want black", c.H.Color(b))
	}

	c.phase.Store(uint32(phaseSweeping))
	c.sweepBlock.Store(0) // sweep at the very beginning: everything ahead
	d := mustAlloc(t, m, 0, 32)
	if c.H.Color(d) != heap.Black {
		t.Fatalf("create ahead of sweep = %v, want black", c.H.Color(d))
	}
	c.sweepBlock.Store(int32(c.H.NumBlocks())) // sweep done: everything behind
	e := mustAlloc(t, m, 0, 32)
	if c.H.Color(e) != heap.White {
		t.Fatalf("create behind sweep = %v, want white", c.H.Color(e))
	}
	c.sweepBlock.Store(int32(e / heap.BlockSize)) // same block: boundary
	f := mustAlloc(t, m, 0, 32)
	if f/heap.BlockSize == e/heap.BlockSize && c.H.Color(f) != heap.Gray {
		t.Fatalf("boundary create = %v, want gray", c.H.Color(f))
	}
	c.phase.Store(uint32(phaseIdle))
}

// TestToggleFreeBoundaryGraySurvives: a gray boundary creation survives
// the current sweep and is collected in a later cycle once dead, or
// stays if live.
func TestToggleFreeBoundaryGraySurvives(t *testing.T) {
	c := newToggleFree(t)
	m := c.NewMutator()
	c.phase.Store(uint32(phaseSweeping))
	a := mustAlloc(t, m, 0, 32)
	c.sweepBlock.Store(int32(a / heap.BlockSize))
	b := mustAlloc(t, m, 0, 32) // gray boundary creation
	c.phase.Store(uint32(phaseIdle))
	if c.H.Color(b) != heap.Gray {
		t.Skip("allocation landed in a different block")
	}
	m.PushRoot(b)
	collectWhileCooperating(c, true, m)
	if !c.H.ValidObject(b) {
		t.Fatal("gray boundary creation was reclaimed while rooted")
	}
	// Its gray entry was processed: now it cycles like any object.
	m.PopRoots(1)
	collectWhileCooperating(c, true, m)
	collectWhileCooperating(c, true, m)
	if c.H.ValidObject(b) {
		t.Fatal("dead boundary creation never reclaimed")
	}
}

// TestToggleFreeConcurrentChurn: the toggle-free baseline under real
// concurrency, with verification.
func TestToggleFreeConcurrentChurn(t *testing.T) {
	c := newToggleFree(t)
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
		for i := 0; i < 5; i++ {
			c.CollectNow(true)
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("toggle-free cycles did not terminate")
	}
	close(stop)
	wg.Wait()
	if err := c.Verify(); err != nil {
		t.Fatal(err)
	}
	if m.Read(x, 0) == 0 || !c.H.ValidObject(m.Read(x, 0)) {
		t.Fatal("last stored child lost")
	}
}

// TestToggleFreeSlotFlagSurvives: the toggle-free create takes its cell
// blue with only the slot flag set and colors it afterwards, and the
// sweep recolors survivors a word at a time; neither may lose the flag,
// or the next trace would not follow the object's slots.
func TestToggleFreeSlotFlagSurvives(t *testing.T) {
	c := newToggleFree(t)
	m := c.NewMutator()
	keep := mustAlloc(t, m, 2, 0)
	m.PushRoot(keep)
	for cycle := 0; cycle < 3; cycle++ {
		m.Update(keep, cycle%2, mustAlloc(t, m, 0, 32))
		collectWhileCooperating(c, true, m)
		if got := c.H.Slots(keep); got != 2 {
			t.Fatalf("cycle %d: survivor has %d slots, want 2", cycle, got)
		}
		if err := c.CheckReachableAllocated(); err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}
		if err := c.Verify(); err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}
	}
}
