package gc

import (
	"testing"

	"gengc/internal/heap"
)

// newTestCollector builds a collector without starting the background
// goroutine, so tests can drive phases manually.
func newTestCollector(t *testing.T, mode Mode) *Collector {
	t.Helper()
	c, err := New(Config{Mode: mode, HeapBytes: 4 << 20, YoungBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func mustAlloc(t *testing.T, m *Mutator, slots, size int) heap.Addr {
	t.Helper()
	a, err := m.Alloc(slots, size)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestColorToggleInit(t *testing.T) {
	c := newTestCollector(t, Generational)
	if c.AllocColor() != heap.White || c.ClearColor() != heap.Yellow {
		t.Fatalf("initial colors = %v/%v, want white/yellow",
			c.AllocColor(), c.ClearColor())
	}
	c.switchColors()
	if c.AllocColor() != heap.Yellow || c.ClearColor() != heap.White {
		t.Fatal("toggle did not swap")
	}
	c.switchColors()
	if c.AllocColor() != heap.White || c.ClearColor() != heap.Yellow {
		t.Fatal("double toggle is not identity")
	}
}

func TestCreateUsesAllocationColor(t *testing.T) {
	c := newTestCollector(t, Generational)
	m := c.NewMutator()
	a := mustAlloc(t, m, 0, 32)
	if got := c.H.Color(a); got != heap.White {
		t.Fatalf("created color = %v, want white", got)
	}
	c.switchColors()
	b := mustAlloc(t, m, 0, 32)
	if got := c.H.Color(b); got != heap.Yellow {
		t.Fatalf("created color after toggle = %v, want yellow", got)
	}
}

// writeAPIs lists the entry points of the one write barrier, as "store
// y into slot 0 of x"; the per-phase tests below run once through each.
// Update is the only one: the facade's WriteBatch is a loop over it.
var writeAPIs = []struct {
	name  string
	store func(m *Mutator, x, y heap.Addr)
}{
	{"Update", func(m *Mutator, x, y heap.Addr) { m.Update(x, 0, y) }},
}

// TestBarrierAsyncIdle: during async with the collector idle, a
// generational update only marks the card (Figure 1's final case).
func TestBarrierAsyncIdle(t *testing.T) {
	for _, api := range writeAPIs {
		t.Run(api.name, func(t *testing.T) {
			c := newTestCollector(t, Generational)
			m := c.NewMutator()
			x := mustAlloc(t, m, 2, 0)
			y := mustAlloc(t, m, 0, 32)
			old := mustAlloc(t, m, 0, 32)
			api.store(m, x, old)
			api.store(m, x, y)
			if c.H.LoadSlot(x, 0) != y {
				t.Fatal("store lost")
			}
			// No graying: all three stay white.
			for _, a := range []heap.Addr{x, y, old} {
				if c.H.Color(a) != heap.White {
					t.Errorf("object %#x color %v, want white", a, c.H.Color(a))
				}
			}
			if !c.Cards.IsDirty(c.Cards.IndexOf(x)) {
				t.Error("card of updated object not dirty")
			}
		})
	}
}

// TestBarrierAsyncIdleNonGen: no card marking without generations.
func TestBarrierAsyncIdleNonGen(t *testing.T) {
	c := newTestCollector(t, NonGenerational)
	m := c.NewMutator()
	x := mustAlloc(t, m, 1, 0)
	y := mustAlloc(t, m, 0, 32)
	m.Update(x, 0, y)
	if c.Cards.IsDirty(c.Cards.IndexOf(x)) {
		t.Error("non-generational barrier marked a card")
	}
}

// TestBarrierSyncGraysBoth: between the first and third handshakes the
// barrier grays both the old and the new value, including objects with
// the allocation color (the §7.1 exception).
func TestBarrierSyncGraysBoth(t *testing.T) {
	for _, api := range writeAPIs {
		for _, mode := range []Mode{NonGenerational, Generational} {
			c := newTestCollector(t, mode)
			m := c.NewMutator()
			x := mustAlloc(t, m, 1, 0)
			old := mustAlloc(t, m, 0, 32)
			y := mustAlloc(t, m, 0, 32)
			api.store(m, x, old) // plain store while idle

			// Enter sync1 from the mutator's perspective.
			c.postHandshake(StatusSync1)
			m.Cooperate()

			api.store(m, x, y)
			if c.H.Color(old) != heap.Gray {
				t.Errorf("%s %v: old value color %v, want gray (alloc-color exception)", api.name, mode, c.H.Color(old))
			}
			if c.H.Color(y) != heap.Gray {
				t.Errorf("%s %v: new value color %v, want gray", api.name, mode, c.H.Color(y))
			}
		}
	}
}

// TestBarrierAgingSyncClearOnly: the aging barrier's MarkGray (Figure 4)
// only shades clear-colored objects, even during sync.
func TestBarrierAgingSyncClearOnly(t *testing.T) {
	for _, api := range writeAPIs {
		t.Run(api.name, func(t *testing.T) {
			c := newTestCollector(t, GenerationalAging)
			m := c.NewMutator()
			x := mustAlloc(t, m, 1, 0)
			y := mustAlloc(t, m, 0, 32) // allocation color (white)
			c.postHandshake(StatusSync1)
			m.Cooperate()
			api.store(m, x, y)
			if c.H.Color(y) == heap.Gray {
				t.Error("aging barrier grayed an allocation-colored object")
			}
			if !c.Cards.IsDirty(c.Cards.IndexOf(x)) {
				t.Error("aging barrier must mark cards in every phase")
			}
			c.postHandshake(StatusAsync)
			m.Cooperate()
		})
	}
}

// TestBarrierAsyncTracing: during async while the collector traces, the
// barrier grays the overwritten value (deletion barrier) but not the new
// value.
func TestBarrierAsyncTracing(t *testing.T) {
	for _, api := range writeAPIs {
		t.Run(api.name, func(t *testing.T) {
			c := newTestCollector(t, Generational)
			m := c.NewMutator()
			x := mustAlloc(t, m, 1, 0)
			old := mustAlloc(t, m, 0, 32)
			y := mustAlloc(t, m, 0, 32)
			api.store(m, x, old)

			// Make "old" clear-colored and set the tracing flag, as if a
			// cycle had toggled and is tracing.
			c.switchColors() // white becomes the clear color
			c.tracing.Store(true)
			defer c.tracing.Store(false)
			c.Cards.ClearAll() // the idle store above dirtied x's card

			api.store(m, x, y)
			if c.H.Color(old) != heap.Gray {
				t.Errorf("overwritten value color = %v, want gray", c.H.Color(old))
			}
			if c.H.Color(y) == heap.Gray {
				t.Error("stored value grayed during async trace (insertion barrier must be off)")
			}
			// Figure 1 marks the card whatever x's color: x is young
			// (clear-colored) here, but the trace may promote it before
			// the next partial, which must then find y through the card.
			if c.H.Color(x) != c.ClearColor() || !c.Cards.IsDirty(c.Cards.IndexOf(x)) {
				t.Errorf("x color %v, card dirty %v: want clear-colored x on a dirty card",
					c.H.Color(x), c.Cards.IsDirty(c.Cards.IndexOf(x)))
			}
			// The gray must have been published to the mutator's buffer.
			m.gray.Lock()
			n := len(m.gray.buf)
			m.gray.Unlock()
			if n != 1 {
				t.Errorf("gray buffer has %d entries, want 1", n)
			}
		})
	}
}

// TestShadePublishesOnce: racing shades of one object publish exactly
// one gray entry (the CAS dedups).
func TestShadePublishesOnce(t *testing.T) {
	c := newTestCollector(t, Generational)
	m := c.NewMutator()
	x := mustAlloc(t, m, 0, 32)
	c.switchColors() // make x clear-colored
	m.markGray(x)
	m.markGray(x)
	m.markGray(x)
	m.gray.Lock()
	n := len(m.gray.buf)
	m.gray.Unlock()
	if n != 1 {
		t.Errorf("gray buffer has %d entries, want 1", n)
	}
	if c.grayProduced.Load() != 1 {
		t.Errorf("grayProduced = %d, want 1", c.grayProduced.Load())
	}
}

// TestAgingUpdateMarksCardAfterStore verifies the §7.2 ordering: by the
// time the card is dirty, the slot already holds the new value.
func TestAgingUpdateMarksCardAfterStore(t *testing.T) {
	for _, api := range writeAPIs {
		t.Run(api.name, func(t *testing.T) {
			c := newTestCollector(t, GenerationalAging)
			m := c.NewMutator()
			x := mustAlloc(t, m, 1, 0)
			y := mustAlloc(t, m, 0, 32)
			ci := c.Cards.IndexOf(x)
			c.Cards.Clear(ci)
			api.store(m, x, y)
			if !c.Cards.IsDirty(ci) {
				t.Fatal("card not marked")
			}
			if c.H.LoadSlot(x, 0) != y {
				t.Fatal("slot not stored")
			}
		})
	}
}

func TestReadHasNoBarrier(t *testing.T) {
	c := newTestCollector(t, Generational)
	m := c.NewMutator()
	x := mustAlloc(t, m, 1, 0)
	y := mustAlloc(t, m, 0, 32)
	m.Update(x, 0, y)
	c.switchColors()
	c.tracing.Store(true)
	defer c.tracing.Store(false)
	if got := m.Read(x, 0); got != y {
		t.Fatalf("Read = %#x, want %#x", got, y)
	}
	if c.H.Color(y) != heap.White {
		t.Error("Read changed a color")
	}
}

func TestRootStackOps(t *testing.T) {
	c := newTestCollector(t, Generational)
	m := c.NewMutator()
	a := mustAlloc(t, m, 0, 32)
	i := m.PushRoot(a)
	if m.Root(i) != a || m.NumRoots() != 1 {
		t.Fatal("root push/read broken")
	}
	m.SetRoot(i, 0)
	if m.Root(i) != 0 {
		t.Fatal("SetRoot lost")
	}
	m.PopRoots(1)
	if m.NumRoots() != 0 {
		t.Fatal("PopRoots broken")
	}
}

func TestMutatorIDsUnique(t *testing.T) {
	c := newTestCollector(t, Generational)
	m1 := c.NewMutator()
	m2 := c.NewMutator()
	if m1.ID() == m2.ID() {
		t.Error("duplicate mutator ids")
	}
	m1.Detach()
	m2.Detach()
	if got := len(c.muts.list); got != 0 {
		t.Errorf("registry has %d entries after detach", got)
	}
	// Double detach is a no-op.
	m1.Detach()
}
