package gengc

import (
	"sync"
	"testing"
	"time"
)

// buildChurn drives a deterministic single-mutator workload: a long
// chain of survivors plus batches of immediately-dropped garbage, with
// explicit partial and full collections. Identical calls produce an
// identical sequence of heap operations, so two runs differing only in
// collector configuration are directly comparable.
func buildChurn(t *testing.T, rt *Runtime) {
	t.Helper()
	m := rt.NewMutator()
	defer m.Detach()

	head := m.MustAlloc(2, 0)
	root := m.PushRoot(head)
	cur := head
	for round := 0; round < 8; round++ {
		for i := 0; i < 400; i++ {
			n := m.MustAlloc(2, 16)
			m.Write(cur, 0, n)
			cur = n
			// Two garbage leaves per live node.
			m.MustAlloc(0, 32)
			m.MustAlloc(1, 24)
		}
		m.Collect(round%3 == 2)
	}
	// Drop the back half of the chain and collect twice so the color
	// toggle clears the floating garbage deterministically.
	x := m.Root(root)
	for i := 0; i < 1600; i++ {
		x = m.Read(x, 0)
	}
	m.Write(x, 0, Nil)
	m.Collect(true)
	m.Collect(true)
}

// cycleEssence strips a cycle record down to the fields that must be
// reproducible across identical runs: timing and parallel-scheduling
// detail (Duration, HandshakeTime, Steals, per-worker splits) are
// explicitly excluded.
type cycleEssence struct {
	kind           string
	seq            int
	objectsScanned int
	slotsScanned   int
	objectsFreed   int
	bytesFreed     int
	survivors      int
}

func essence(cycles []CycleRecord) []cycleEssence {
	out := make([]cycleEssence, 0, len(cycles))
	for _, c := range cycles {
		out = append(out, cycleEssence{
			kind:           c.Kind.String(),
			seq:            c.Seq,
			objectsScanned: c.ObjectsScanned,
			slotsScanned:   c.SlotsScanned,
			objectsFreed:   c.ObjectsFreed,
			bytesFreed:     c.BytesFreed,
			survivors:      c.Survivors,
		})
	}
	return out
}

// TestParallelWorkersEquivalence runs the same deterministic workload in
// every mode at Workers ∈ {1, 2, 4} and compares each run against a
// reference Workers=1 run of that mode. With the mutator quiescent
// during each manual collection the reachable set — and therefore what
// is scanned and what is freed — must be identical whatever the pool
// size; the Workers=1 row compares two identical runs, pinning that the
// one-worker engine is deterministic.
func TestParallelWorkersEquivalence(t *testing.T) {
	run := func(t *testing.T, mode Mode, workers int) (ce []cycleEssence, objects int64, steals int) {
		rt, err := NewManual(WithMode(mode), WithHeapBytes(8<<20),
			WithYoungBytes(256<<10), WithOldAge(2), WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		defer rt.Close()
		buildChurn(t, rt)
		if err := rt.Verify(); err != nil {
			t.Fatal(err)
		}
		if err := rt.VerifyCardInvariant(); err != nil {
			t.Fatal(err)
		}
		for _, c := range rt.Cycles() {
			steals += c.Steals
		}
		return essence(rt.Cycles()), rt.HeapObjects(), steals
	}
	for _, mode := range []Mode{NonGenerational, Generational, GenerationalAging} {
		t.Run(mode.String(), func(t *testing.T) {
			ref, refObjects, _ := run(t, mode, 1)
			for _, workers := range []int{1, 2, 4} {
				got, objects, steals := run(t, mode, workers)
				if len(got) != len(ref) {
					t.Fatalf("Workers=%d ran %d cycles, the Workers=1 reference %d", workers, len(got), len(ref))
				}
				for i := range ref {
					if got[i] != ref[i] {
						t.Errorf("cycle %d differs between Workers=1 and Workers=%d:\n  ref: %+v\n  got: %+v",
							i+1, workers, ref[i], got[i])
					}
				}
				if objects != refObjects {
					t.Errorf("final heap: %d objects at Workers=1, %d at Workers=%d", refObjects, objects, workers)
				}
				t.Logf("Workers=%d stole %d work batches over %d cycles", workers, steals, len(got))
			}
		})
	}
}

// TestParallelRaceStress is the Workers=4 counterpart of
// TestStressConcurrent: four mutator goroutines race the on-the-fly
// collector and its worker pool in every mode, then the full heap audit
// and the card invariant must hold. Run under -race this exercises every
// cross-thread access path of the pooled trace and sweep.
func TestParallelRaceStress(t *testing.T) {
	ops := 40000
	if testing.Short() {
		ops = 8000
	}
	for _, mode := range []Mode{NonGenerational, Generational, GenerationalAging} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			rt, err := New(
				WithMode(mode),
				WithHeapBytes(8<<20),
				WithYoungBytes(512<<10),
				WithOldAge(2),
				WithFullThreshold(0.3),
				WithWorkers(4),
			)
			if err != nil {
				t.Fatal(err)
			}
			defer rt.Close()
			var wg sync.WaitGroup
			for w := 0; w < 4; w++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					stressMutator(t, rt, seed, ops)
				}(int64(mode)*100 + int64(w))
			}
			wg.Wait()
			if err := rt.Verify(); err != nil {
				t.Fatal(err)
			}
			if err := rt.VerifyCardInvariant(); err != nil {
				t.Fatal(err)
			}
			// A requested cycle may still be in flight; poll briefly.
			deadline := time.Now().Add(5 * time.Second)
			for rt.Stats().NumCycles == 0 && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if rt.Stats().NumCycles == 0 {
				t.Error("stress run triggered no collections")
			}
		})
	}
}

// TestParallelManualAllModes drives the deterministic workload with
// Workers=4 across every mode, including the aging and page-tracking
// paths, and audits the heap after each run.
func TestParallelManualAllModes(t *testing.T) {
	for _, mode := range []Mode{NonGenerational, Generational, GenerationalAging} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			rt, err := NewManual(WithMode(mode), WithHeapBytes(8<<20),
				WithYoungBytes(256<<10), WithOldAge(2), WithWorkers(4),
				WithPageTracking(true))
			if err != nil {
				t.Fatal(err)
			}
			defer rt.Close()
			buildChurn(t, rt)
			if err := rt.Verify(); err != nil {
				t.Fatal(err)
			}
			if err := rt.VerifyCardInvariant(); err != nil {
				t.Fatal(err)
			}
			cycles := rt.Cycles()
			if len(cycles) == 0 {
				t.Fatal("no cycles recorded")
			}
			for _, c := range cycles {
				if c.Workers != 4 {
					t.Errorf("cycle %d recorded Workers=%d, want 4", c.Seq, c.Workers)
				}
				if got := len(c.WorkerScanned); got != 4 {
					t.Errorf("cycle %d has %d per-worker scan counters, want 4", c.Seq, got)
				}
				sum := 0
				for _, n := range c.WorkerScanned {
					sum += n
				}
				if sum != c.ObjectsScanned {
					t.Errorf("cycle %d: per-worker scans sum to %d, total says %d",
						c.Seq, sum, c.ObjectsScanned)
				}
				sum = 0
				for _, n := range c.WorkerFreed {
					sum += n
				}
				if sum != c.ObjectsFreed {
					t.Errorf("cycle %d: per-worker frees sum to %d, total says %d",
						c.Seq, sum, c.ObjectsFreed)
				}
			}
		})
	}
}
