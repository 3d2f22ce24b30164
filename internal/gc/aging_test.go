package gc

import (
	"testing"

	"gengc/internal/heap"
)

func newAgingCollector(t *testing.T, oldAge int) *Collector {
	t.Helper()
	c, err := New(Config{
		Mode:      GenerationalAging,
		HeapBytes: 4 << 20, YoungBytes: 1 << 20,
		OldAge: oldAge,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestAgingIncrementsAges: a live young object's age increases by one
// per survived collection; once the sweep finds it at the threshold age
// it stays black — i.e. tenure occurs at survival OldAge+1, matching the
// paper's counting where objects are born with age 1 and "age N is old"
// (§6, Figure 5; our OldAge = paper's N − 1).
func TestAgingIncrementsAges(t *testing.T) {
	const oldAge = 3
	c := newAgingCollector(t, oldAge)
	m := c.NewMutator()
	a := mustAlloc(t, m, 0, 32)
	m.PushRoot(a)
	if c.H.Age(a) != 0 {
		t.Fatalf("birth age = %d", c.H.Age(a))
	}
	for i := 1; i <= oldAge; i++ {
		collectWhileCooperating(c, false, m)
		if got := c.H.Age(a); int(got) != i {
			t.Fatalf("after %d collections age = %d", i, got)
		}
		// Still young: demoted back to the allocation color.
		if got := c.H.Color(a); got != heap.Color(c.allocColor.Load()) {
			t.Fatalf("young survivor color = %v, want allocation color %v",
				got, heap.Color(c.allocColor.Load()))
		}
	}
	// Survival OldAge+1 tenures it: black, age frozen.
	collectWhileCooperating(c, false, m)
	if got := c.H.Color(a); got != heap.Black {
		t.Fatalf("tenured color = %v, want black", got)
	}
	collectWhileCooperating(c, false, m)
	if got := c.H.Age(a); int(got) != oldAge {
		t.Fatalf("tenured age advanced to %d", got)
	}
	if c.H.Color(a) != heap.Black {
		t.Fatal("tenured object demoted")
	}
}

// TestAgingYoungDiesAtAnyAge: a young object that loses its root is
// reclaimed by the next partial regardless of its age (< threshold).
func TestAgingYoungDiesAtAnyAge(t *testing.T) {
	c := newAgingCollector(t, 5)
	m := c.NewMutator()
	a := mustAlloc(t, m, 0, 32)
	r := m.PushRoot(a)
	collectWhileCooperating(c, false, m)
	collectWhileCooperating(c, false, m)
	if c.H.Age(a) != 2 {
		t.Fatalf("age = %d, want 2", c.H.Age(a))
	}
	m.SetRoot(r, 0)
	collectWhileCooperating(c, false, m)
	if c.H.ValidObject(a) {
		t.Fatal("middle-aged garbage survived a partial")
	}
}

// TestAgingCardRetainedAcrossPartials: with aging, an old→young pointer
// stays inter-generational across several partials (the young target
// stays young), so the card must remain dirty (step 3 of §7.2) and the
// young object must keep surviving.
func TestAgingCardRetainedAcrossPartials(t *testing.T) {
	c := newAgingCollector(t, 1)
	m := c.NewMutator()
	old := mustAlloc(t, m, 1, 0)
	m.PushRoot(old)
	collectWhileCooperating(c, false, m)
	collectWhileCooperating(c, false, m) // threshold 1: tenured at the 2nd survival
	if c.H.Color(old) != heap.Black {
		t.Fatalf("setup: old not tenured (color %v, age %d)", c.H.Color(old), c.H.Age(old))
	}

	young := mustAlloc(t, m, 0, 32)
	m.Update(old, 0, young)
	ci := c.Cards.IndexOf(old)
	for i := 0; i < 3; i++ {
		collectWhileCooperating(c, false, m)
		if !c.H.ValidObject(young) {
			t.Fatalf("young target lost at partial %d", i+1)
		}
	}
	// After the target itself tenures (threshold 1, two survivals),
	// the pointer is old→old and the card may finally be cleared.
	if c.H.Color(young) != heap.Black {
		t.Fatalf("target should have tenured by now (color %v)", c.H.Color(young))
	}
	collectWhileCooperating(c, false, m)
	if c.Cards.IsDirty(ci) {
		t.Error("card still dirty after the pointer became intra-generational")
	}
	if err := c.VerifyCardInvariant(); err != nil {
		t.Fatal(err)
	}
}

// TestAgingFullKeepsCards: a full collection must not clear card marks
// in the aging scheme (§6) — they may describe pointers that are again
// inter-generational after re-tenuring.
func TestAgingFullKeepsCards(t *testing.T) {
	c := newAgingCollector(t, 2)
	m := c.NewMutator()
	x := mustAlloc(t, m, 1, 0)
	m.PushRoot(x)
	y := mustAlloc(t, m, 0, 32)
	m.Update(x, 0, y)
	ci := c.Cards.IndexOf(x)
	if !c.Cards.IsDirty(ci) {
		t.Fatal("setup: card clean")
	}
	collectWhileCooperating(c, true, m)
	if !c.Cards.IsDirty(ci) {
		t.Error("full collection cleared a card in aging mode")
	}
}

// TestAgingFullRetenures: tenured objects survive a full collection and
// carry the old code afterwards — the one the full collection flipped to.
func TestAgingFullRetenures(t *testing.T) {
	c := newAgingCollector(t, 1)
	m := c.NewMutator()
	a := mustAlloc(t, m, 0, 32)
	m.PushRoot(a)
	collectWhileCooperating(c, false, m)
	collectWhileCooperating(c, false, m)
	if c.H.Color(a) != heap.Black {
		t.Fatal("setup: not tenured")
	}
	collectWhileCooperating(c, true, m)
	if !c.H.ValidObject(a) || c.H.Color(a) != c.OldColor() {
		t.Fatalf("after full: valid=%v color=%v", c.H.ValidObject(a), c.H.Color(a))
	}
	if got := c.H.Age(a); got != 1 {
		t.Errorf("tenured age after full = %d, want frozen at 1", got)
	}
}

// TestAgingThresholdOne: with threshold 1 (the paper's "age 2 is old",
// its Figure 20 comparison against simple promotion) an object tenures
// at its second survival.
func TestAgingThresholdOne(t *testing.T) {
	c := newAgingCollector(t, 1)
	m := c.NewMutator()
	a := mustAlloc(t, m, 0, 32)
	m.PushRoot(a)
	collectWhileCooperating(c, false, m)
	if c.H.Color(a) == heap.Black {
		t.Fatal("tenured too early")
	}
	collectWhileCooperating(c, false, m)
	if c.H.Color(a) != heap.Black {
		t.Fatal("threshold-1 aging did not promote at the second survival")
	}
}

// TestAgingGarbageTenuredDies: tenured garbage (jess behavior) is
// reclaimed by a full collection.
func TestAgingGarbageTenuredDies(t *testing.T) {
	c := newAgingCollector(t, 1)
	m := c.NewMutator()
	a := mustAlloc(t, m, 0, 32)
	r := m.PushRoot(a)
	collectWhileCooperating(c, false, m)
	collectWhileCooperating(c, false, m) // tenure
	m.SetRoot(r, 0)
	collectWhileCooperating(c, false, m) // partial cannot touch it
	if !c.H.ValidObject(a) {
		t.Fatal("partial collected tenured object")
	}
	collectWhileCooperating(c, true, m)
	if c.H.ValidObject(a) {
		t.Fatal("full collection missed tenured garbage")
	}
}

// TestAgingTenureDoesNotOrphanPointers is the regression test for a
// soundness hole in a literal reading of Figure 6: a young object S
// stores a pointer to a younger object X (card dirtied), survives
// further collections, and silently tenures at a sweep — no store
// happens at tenure, so nothing re-marks S's card. If ClearCards had
// cleared the card while S was young, the partial after S's tenure
// would never trace X and would reclaim it while reachable. Our
// ClearCards keeps cards of young objects that hold young pointers.
func TestAgingTenureDoesNotOrphanPointers(t *testing.T) {
	c := newAgingCollector(t, 2)
	m := c.NewMutator()
	s := mustAlloc(t, m, 1, 0)
	m.PushRoot(s)
	x := mustAlloc(t, m, 0, 32)
	m.Update(s, 0, x) // S -> X, card dirty

	// Run partials until S tenures (threshold 2: three survivals).
	for i := 0; i < 3; i++ {
		collectWhileCooperating(c, false, m)
		if !c.H.ValidObject(x) {
			t.Fatalf("X reclaimed at partial %d while reachable via S", i+1)
		}
	}
	if c.H.Color(s) != heap.Black || c.H.Age(s) < 2 {
		t.Fatalf("setup: S not tenured (color %v, age %d)", c.H.Color(s), c.H.Age(s))
	}
	// S is old now; X may still be young. The pointer S->X is
	// inter-generational and must survive further partials.
	for i := 0; i < 3; i++ {
		collectWhileCooperating(c, false, m)
		if !c.H.ValidObject(x) {
			t.Fatalf("X reclaimed after S tenured (partial %d)", i+1)
		}
		if m.Read(s, 0) != x {
			t.Fatal("S's slot corrupted")
		}
	}
	if err := c.VerifyCardInvariant(); err != nil {
		t.Fatal(err)
	}
}

// TestAgingCardScanRemarksYoungTargets is §7.2's step 3 under aging:
// tenured sources on dirty cards point at a target below the tenure age,
// which the partial keeps young (the sweep demotes it), so both cards
// must stay dirty. Two cards share the target: the scan of the second
// finds it already shaded by the first and must still read it as young.
func TestAgingCardScanRemarksYoungTargets(t *testing.T) {
	c := newAgingCollector(t, 2)
	m := c.NewMutator()
	s1 := mustAlloc(t, m, 1, 0)
	m.PushRoot(s1)
	s2 := mustAlloc(t, m, 1, 0)
	m.PushRoot(s2)
	for i := 0; i < 3; i++ { // threshold 2: tenured at the 3rd survival
		collectWhileCooperating(c, false, m)
	}
	for _, s := range []heap.Addr{s1, s2} {
		if c.H.Color(s) != c.OldColor() || c.H.Age(s) < 2 {
			t.Fatalf("setup: source %#x not tenured (color %v, age %d)", s, c.H.Color(s), c.H.Age(s))
		}
	}
	y := mustAlloc(t, m, 0, 32)
	m.Update(s1, 0, y)
	m.Update(s2, 0, y)
	cards := []int{c.Cards.IndexOf(s1), c.Cards.IndexOf(s2)}
	if cards[0] == cards[1] {
		t.Fatal("setup: both sources on one card")
	}
	collectWhileCooperating(c, false, m)
	if !c.H.ValidObject(y) || c.H.Color(y) == c.OldColor() || c.H.Age(y) != 1 {
		t.Fatalf("setup: target not a young survivor (color %v, age %d)", c.H.Color(y), c.H.Age(y))
	}
	for i, ci := range cards {
		if !c.Cards.IsDirty(ci) {
			t.Errorf("card %d of tenured source %d cleared under a pointer to a young object", ci, i+1)
		}
	}
	if err := c.VerifyCardInvariant(); err != nil {
		t.Fatal(err)
	}
}
