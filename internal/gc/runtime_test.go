package gc

import (
	"errors"
	"testing"
	"time"

	"gengc/internal/heap"
)

// TestBackgroundTrigger: the young-generation trigger fires the
// background collector (§3.3).
func TestBackgroundTrigger(t *testing.T) {
	c, err := New(Config{Mode: Generational, HeapBytes: 8 << 20, YoungBytes: 256 << 10})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer c.Stop()
	m := c.NewMutator()
	defer m.Detach()
	for i := 0; i < 20000; i++ {
		if _, err := m.Alloc(0, 64); err != nil {
			t.Fatal(err)
		}
		m.Cooperate()
	}
	deadline := time.Now().Add(10 * time.Second)
	for c.CyclesDone() == 0 && time.Now().Before(deadline) {
		m.Cooperate()
		time.Sleep(time.Millisecond)
	}
	if c.CyclesDone() == 0 {
		t.Fatal("background partial never ran")
	}
}

// TestOOMTriggersFullCollection: when the heap fills with garbage, the
// allocation slow path forces a full collection and succeeds.
func TestOOMTriggersFullCollection(t *testing.T) {
	c, err := New(Config{
		Mode: NonGenerational, HeapBytes: 2 << 20,
		YoungBytes: 1 << 20, InitialTargetBytes: 1 << 20,
		HeadroomBytes: 512 << 10, FullThreshold: 0.9,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer c.Stop()
	m := c.NewMutator()
	defer m.Detach()
	// All garbage: each allocation replaces the root.
	r := m.PushRoot(0)
	for i := 0; i < 200000; i++ {
		a, err := m.Alloc(0, 256)
		if err != nil {
			t.Fatalf("allocation %d failed: %v", i, err)
		}
		m.SetRoot(r, a)
		m.Cooperate()
		if c.FullsDone() > 2 {
			return // full collections rescued us: done
		}
	}
	if c.FullsDone() == 0 {
		t.Fatal("no full collection despite heap pressure")
	}
}

// TestHopelessOOMReturnsError: a heap packed with live data eventually
// reports out-of-memory instead of hanging.
func TestHopelessOOMReturnsError(t *testing.T) {
	c, err := New(Config{Mode: Generational, HeapBytes: 1 << 20, YoungBytes: 512 << 10,
		InitialTargetBytes: 256 << 10, HeadroomBytes: 128 << 10})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer c.Stop()
	m := c.NewMutator()
	defer m.Detach()
	sawErr := false
	for i := 0; i < 100000; i++ {
		a, err := m.Alloc(0, 2048)
		if err != nil {
			if !errors.Is(err, heap.ErrOutOfMemory) {
				t.Fatalf("unexpected error type: %v", err)
			}
			sawErr = true
			break
		}
		m.PushRoot(a) // everything stays live
		m.Cooperate()
	}
	if !sawErr {
		t.Fatal("allocation never failed on a heap full of live data")
	}
}

// TestStopIsIdempotent: Stop can be called multiple times and before
// Start.
func TestStopIsIdempotent(t *testing.T) {
	c := newTestCollector(t, Generational)
	c.Stop() // not started: no-op
	c.Start()
	c.Start() // double start: no-op
	c.Stop()
	c.Stop()
}

// TestRetargetRatchet: the full-collection target never decreases and
// tracks occupancy plus headroom.
func TestRetargetRatchet(t *testing.T) {
	c := newTestCollector(t, Generational)
	p := c.Pacer()
	before := p.Target()
	p.Retarget(c.H.AllocatedBytes())
	after := p.Target()
	if after < before {
		t.Fatalf("target shrank: %d -> %d", before, after)
	}
	// Force it high, retarget with an empty heap: must not drop.
	p.fullTarget.Store(10 << 20)
	p.Retarget(c.H.AllocatedBytes())
	if p.Target() < 10<<20 {
		t.Fatal("ratchet violated")
	}
}

// TestMutatorCollectHelper: (*Mutator).Collect runs a cycle even without
// the background goroutine.
func TestMutatorCollectHelper(t *testing.T) {
	c := newTestCollector(t, Generational)
	m := c.NewMutator()
	mustAlloc(t, m, 0, 64)
	m.Collect(false)
	if c.CyclesDone() != 1 {
		t.Fatalf("cycles = %d, want 1", c.CyclesDone())
	}
	m.Collect(true)
	if c.FullsDone() != 1 {
		t.Fatalf("fulls = %d, want 1", c.FullsDone())
	}
}

// TestVerifyCatchesDanglingRoot: the verifier reports a root pointing at
// a freed object.
func TestVerifyCatchesDanglingRoot(t *testing.T) {
	c := newTestCollector(t, Generational)
	m := c.NewMutator()
	a := mustAlloc(t, m, 0, 32)
	m.PushRoot(a)
	// Simulate an (incorrect) free of a live object.
	c.H.SweepBlock(int(a/heap.BlockSize), func(x heap.Addr, _ heap.Color) bool { return x == a })
	if err := c.Verify(); err == nil {
		t.Fatal("Verify missed a dangling root")
	}
}
