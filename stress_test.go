package gengc_test

import (
	"testing"
	"time"

	"gengc"
	"gengc/internal/workload"
)

var allModes = []gengc.Mode{gengc.NonGenerational, gengc.Generational, gengc.GenerationalAging}

// verifyHeap runs the full audit on a quiescent runtime: reachability
// and allocator integrity (Verify), then the card invariant.
func verifyHeap(t *testing.T, rt *gengc.Runtime) {
	t.Helper()
	if err := rt.Verify(); err != nil {
		t.Fatal(err)
	}
	if err := rt.VerifyCardInvariant(); err != nil {
		t.Fatal(err)
	}
}

// waitCycles fails t unless the background collector has completed a
// cycle; one the workload requested may still be in flight, so it
// polls briefly.
func waitCycles(t *testing.T, rt *gengc.Runtime) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for rt.Stats().NumCycles == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if rt.Stats().NumCycles == 0 {
		t.Error("the soak triggered no collections; the trigger is broken")
	}
}

// TestStressConcurrent runs four workload.Mix mutators against the
// background collector in every mode with a 1 MiB young generation,
// then audits the heap. A fixed mutator count: goroutines interleave
// even on a single CPU, which is what exercises the on-the-fly
// protocol.
func TestStressConcurrent(t *testing.T) {
	soakConcurrent(t, 1<<20, 1000)
}

// TestParallelRaceStress is TestStressConcurrent with a 512 KiB young
// generation (so more partial cycles) and other seeds. Run under -race
// (`make race`) it exercises every cross-thread access path of the
// trace and sweep.
func TestParallelRaceStress(t *testing.T) {
	soakConcurrent(t, 512<<10, 100)
}

// soakConcurrent runs four workload.Mix mutators, seeded from
// mode*seedBase, on a 4 MiB heap with the given young generation in
// every mode, then audits the heap and checks that a cycle ran.
func soakConcurrent(t *testing.T, young int, seedBase int64) {
	ops := 40000
	if testing.Short() {
		ops = 8000
	}
	for _, mode := range allModes {
		t.Run(mode.String(), func(t *testing.T) {
			// The 4 MiB heap is small enough that the soak's
			// allocation volume crosses the full-collection trigger
			// even in non-generational mode.
			rt, err := gengc.New(gengc.WithMode(mode), gengc.WithHeapBytes(4<<20),
				gengc.WithYoungBytes(young), gengc.WithOldAge(2))
			if err != nil {
				t.Fatal(err)
			}
			defer rt.Close()
			if err := workload.RunMix(rt, 4, ops, int64(mode)*seedBase); err != nil {
				t.Fatal(err)
			}
			verifyHeap(t, rt)
			waitCycles(t, rt)
		})
	}
}

// TestStressManyCollections forces frequent cycles with a tiny young
// generation so promotion, card clearing and the color toggle churn.
// The mutators soak in rounds until the runtime has completed at least
// three cycles — a fixed operation count can finish before the
// collector goroutine is scheduled three times on a loaded host — and a
// generous deadline turns a collector that never gets there into a
// failure that names the count.
func TestStressManyCollections(t *testing.T) {
	const wantCycles = 3
	for _, mode := range allModes[1:] {
		t.Run(mode.String(), func(t *testing.T) {
			rt, err := gengc.New(gengc.WithMode(mode), gengc.WithHeapBytes(8<<20),
				gengc.WithYoungBytes(64<<10), gengc.WithOldAge(3))
			if err != nil {
				t.Fatal(err)
			}
			defer rt.Close()
			deadline := time.Now().Add(30 * time.Second)
			for round := int64(0); rt.Stats().NumCycles < wantCycles && time.Now().Before(deadline); round++ {
				if err := workload.RunMix(rt, 4, 30000, 4*round); err != nil {
					t.Fatal(err)
				}
			}
			verifyHeap(t, rt)
			if n := rt.Stats().NumCycles; n < wantCycles {
				t.Errorf("only %d cycles ran within the deadline; expected at least %d", n, wantCycles)
			}
		})
	}
}

// TestWriteBatchChurnRaceStress soaks both write APIs (the Mix's
// Write and WriteBatch operations) under -race with the background
// collector and four mutators — stores landing in whatever phase the
// running cycles are in — with the per-cycle self-check armed, then
// audits every invariant. (The name matters: `make race` selects
// Race|Stress|Parallel tests.)
func TestWriteBatchChurnRaceStress(t *testing.T) {
	rt, err := gengc.New(gengc.WithMode(gengc.Generational), gengc.WithHeapBytes(16<<20),
		gengc.WithYoungBytes(256<<10))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	audit := workload.Audit(rt)
	if err := workload.RunMix(rt, 4, 4000, 7); err != nil {
		t.Error(err)
	}
	rt.Collect(true)
	verifyHeap(t, rt)
	if n, err := audit(); n > 0 {
		t.Errorf("%d self-check violations, first: %v", n, err)
	}
	if rt.Stats().NumCycles == 0 {
		t.Error("the soak never overlapped a collection cycle")
	}
}

// TestSmallHeapSoak: a 2 MiB heap with a 512 KiB young generation, set
// by those two sizes alone besides the mode, must configure, collect
// and verify — the pacer derives its full-collection trigger from the
// heap. Two Mix mutators run 20 000 operations each at seed 1, in four
// rounds with the full audit after every one.
func TestSmallHeapSoak(t *testing.T) {
	for _, mode := range allModes {
		t.Run(mode.String(), func(t *testing.T) {
			rt, err := gengc.New(gengc.WithMode(mode), gengc.WithHeapBytes(2<<20),
				gengc.WithYoungBytes(512<<10))
			if err != nil {
				t.Fatal(err)
			}
			defer rt.Close()
			for round := int64(0); round < 4; round++ {
				if err := workload.RunMix(rt, 2, 5000, 1+1000*round); err != nil {
					t.Fatalf("round %d: %v", round, err)
				}
				verifyHeap(t, rt)
			}
			waitCycles(t, rt)
		})
	}
}
