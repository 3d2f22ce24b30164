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
// reproducible across identical runs: timing (Duration, HandshakeTime)
// is explicitly excluded.
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

// TestParallelWorkersEquivalence pins that the collector is
// deterministic: two identical runs of the deterministic workload give
// the same cycle essences and the same final heap in every mode. With
// the mutator quiescent during each manual collection the reachable set
// — and therefore what is scanned and what is freed — is fixed by the
// workload alone.
func TestParallelWorkersEquivalence(t *testing.T) {
	run := func(t *testing.T, mode Mode) ([]cycleEssence, int64) {
		rt, err := NewManual(WithMode(mode), WithHeapBytes(8<<20),
			WithYoungBytes(256<<10), WithOldAge(2))
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
		return essence(rt.Cycles()), rt.HeapObjects()
	}
	for _, mode := range []Mode{NonGenerational, Generational, GenerationalAging} {
		t.Run(mode.String(), func(t *testing.T) {
			ref, refObjects := run(t, mode)
			got, objects := run(t, mode)
			if len(got) != len(ref) {
				t.Fatalf("the second run ran %d cycles, the first %d", len(got), len(ref))
			}
			for i := range ref {
				if got[i] != ref[i] {
					t.Errorf("cycle %d differs between two identical runs:\n  first:  %+v\n  second: %+v",
						i+1, ref[i], got[i])
				}
			}
			if objects != refObjects {
				t.Errorf("final heap: %d objects in the first run, %d in the second", refObjects, objects)
			}
		})
	}
}

// TestParallelRaceStress is TestStressConcurrent with a smaller young
// generation (so more partial cycles) and other seeds: four mutator
// goroutines race the on-the-fly collector in every mode, then the full
// heap audit and the card invariant must hold. Run under -race this
// exercises every cross-thread access path of the trace and sweep.
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
				WithHeapBytes(4<<20),
				WithYoungBytes(512<<10),
				WithOldAge(2),
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

// TestParallelManualAllModes drives the deterministic workload with page
// tracking on across every mode, including the aging path, and audits
// the heap after each run; every cycle must have touched pages.
func TestParallelManualAllModes(t *testing.T) {
	for _, mode := range []Mode{NonGenerational, Generational, GenerationalAging} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			rt, err := NewManual(WithConfig(Config{Mode: mode, HeapBytes: 8 << 20,
				YoungBytes: 256 << 10, OldAge: 2, TrackPages: true}))
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
				if c.PagesTouched == 0 {
					t.Errorf("cycle %d touched no pages with page tracking on", c.Seq)
				}
			}
		})
	}
}
