package gengc_test

// Exact-accounting tests for the heap demographics surface: workloads
// with known lifetimes drive manual collections and the promotion,
// survival, and death counters in Snapshot().Demographics must come out
// to the planted values.

import (
	"testing"

	"gengc"
	"gengc/internal/heap"
)

// TestDemographicsSimpleExact plants live objects of one size class
// next to dead ones and checks the simple generational scheme's
// trace-side promotion arithmetic: every traced young object except the
// globals root is promoted, everything untraced dies into its size
// class.
func TestDemographicsSimpleExact(t *testing.T) {
	rt, err := gengc.NewManual(
		gengc.WithMode(gengc.Generational),
		gengc.WithHeapBytes(4<<20))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	m := rt.NewMutator()
	defer m.Detach()

	const size = 64
	const live, dead = 10, 90
	class, cell := heap.ClassFor(size)
	for i := 0; i < live; i++ {
		m.PushRoot(m.MustAlloc(1, size))
	}
	for i := 0; i < dead; i++ {
		m.MustAlloc(1, size)
	}
	m.Collect(false)

	d := rt.Snapshot().Demographics
	if d.PromotedObjects != live {
		t.Fatalf("promoted objects = %d, want %d", d.PromotedObjects, live)
	}
	if d.PromotedBytes != int64(live*cell) {
		t.Fatalf("promoted bytes = %d, want %d", d.PromotedBytes, live*cell)
	}
	// The trace also survives the globals root (excluded from the
	// promotion counts but not from the survivor arithmetic).
	if d.SurvivedObjects != live+1 {
		t.Fatalf("survived objects = %d, want %d", d.SurvivedObjects, live+1)
	}
	if len(d.DeathsByClass) <= class || d.DeathsByClass[class] != dead {
		t.Fatalf("deaths in class %d = %v, want %d", class, d.DeathsByClass, dead)
	}

	// A second batch of garbage accumulates into the same counters and
	// leaves the promoted cohort alone: the ten live objects are old now
	// and never re-traced by a clean partial.
	for i := 0; i < dead; i++ {
		m.MustAlloc(1, size)
	}
	m.Collect(false)
	d = rt.Snapshot().Demographics
	if d.PromotedObjects != live {
		t.Fatalf("promoted after 2nd partial = %d, want %d", d.PromotedObjects, live)
	}
	if d.DeathsByClass[class] != 2*dead {
		t.Fatalf("deaths after 2nd partial = %d, want %d", d.DeathsByClass[class], 2*dead)
	}
}

// TestDemographicsAgingCohort walks a rooted cohort through the aging
// pipeline with OldAge=2: two partial collections demote it with ages
// 0 and 1, the third tenures it, and the fourth no longer sees it.
func TestDemographicsAgingCohort(t *testing.T) {
	const oldAge = 2
	rt, err := gengc.NewManual(
		gengc.WithMode(gengc.GenerationalAging),
		gengc.WithOldAge(oldAge),
		gengc.WithHeapBytes(4<<20))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	m := rt.NewMutator()
	defer m.Detach()

	const size = 64
	const cohort = 8
	class, cell := heap.ClassFor(size)
	for i := 0; i < cohort; i++ {
		m.PushRoot(m.MustAlloc(1, size))
	}

	// Ages 0 and 1: demoted each time, nothing tenured yet.
	for cycle, wantAge := range []int{0, 1} {
		m.Collect(false)
		d := rt.Snapshot().Demographics
		if d.PromotedObjects != 0 {
			t.Fatalf("partial %d promoted %d objects, want 0", cycle+1, d.PromotedObjects)
		}
		if d.SurvivedObjects != int64((cycle+1)*cohort) {
			t.Fatalf("partial %d survived = %d, want %d",
				cycle+1, d.SurvivedObjects, (cycle+1)*cohort)
		}
		if len(d.SurvivalByAge) <= wantAge || d.SurvivalByAge[wantAge] != cohort {
			t.Fatalf("partial %d survival histogram = %v, want %d at age %d",
				cycle+1, d.SurvivalByAge, cohort, wantAge)
		}
	}

	// Third partial: the cohort sits at the threshold and tenures.
	m.Collect(false)
	d := rt.Snapshot().Demographics
	if d.PromotedObjects != cohort {
		t.Fatalf("promoted after tenure partial = %d, want %d", d.PromotedObjects, cohort)
	}
	if d.PromotedBytes != int64(cohort*cell) {
		t.Fatalf("promoted bytes = %d, want %d", d.PromotedBytes, cohort*cell)
	}
	if d.SurvivedObjects != 2*cohort {
		t.Fatalf("survived after tenure partial = %d, want %d", d.SurvivedObjects, 2*cohort)
	}
	want := []int64{cohort, cohort, cohort} // ages 0, 1, and the tenure bucket
	if len(d.SurvivalByAge) != len(want) {
		t.Fatalf("survival histogram = %v, want %v", d.SurvivalByAge, want)
	}
	for age, n := range want {
		if d.SurvivalByAge[age] != n {
			t.Fatalf("survival histogram = %v, want %v", d.SurvivalByAge, want)
		}
	}

	// Fourth partial: the tenured cohort is invisible — no promotion, no
	// survival, no deaths.
	m.Collect(false)
	d = rt.Snapshot().Demographics
	if d.PromotedObjects != cohort || d.SurvivedObjects != 2*cohort {
		t.Fatalf("post-tenure partial moved the counters: promoted=%d survived=%d",
			d.PromotedObjects, d.SurvivedObjects)
	}

	// Dropping the roots and running a full collection reclaims the
	// tenured cohort into its size class; the full cycle adds nothing to
	// the partial-only promotion counters.
	m.PopRoots(cohort)
	m.Collect(true)
	d = rt.Snapshot().Demographics
	if d.PromotedObjects != cohort {
		t.Fatalf("full collection changed promoted to %d", d.PromotedObjects)
	}
	if len(d.DeathsByClass) <= class || d.DeathsByClass[class] < cohort {
		t.Fatalf("deaths in class %d = %v, want >= %d", class, d.DeathsByClass, cohort)
	}
}
