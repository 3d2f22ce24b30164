package gengc_test

import (
	"testing"

	"gengc"
	"gengc/internal/workload"
)

// buildChurn drives a deterministic single-mutator workload: a long
// chain of survivors plus batches of immediately-dropped garbage, with
// explicit partial and full collections. Identical calls produce an
// identical sequence of heap operations, so two runs differing only in
// collector configuration are directly comparable.
func buildChurn(t *testing.T, rt *gengc.Runtime) {
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
	m.Write(x, 0, gengc.Nil)
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

func essence(cycles []gengc.CycleRecord) []cycleEssence {
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

// equivalent runs drive twice on a fresh manual runtime in every mode
// and requires the two runs to give the same cycle essences and the
// same final heap. With the mutator quiescent during each manual
// collection the reachable set — and therefore what is scanned and
// what is freed — is fixed by the workload alone.
func equivalent(t *testing.T, drive func(*testing.T, *gengc.Runtime)) {
	run := func(t *testing.T, mode gengc.Mode) ([]cycleEssence, int64) {
		rt, err := gengc.NewManual(gengc.WithMode(mode), gengc.WithHeapBytes(8<<20),
			gengc.WithYoungBytes(256<<10), gengc.WithOldAge(2))
		if err != nil {
			t.Fatal(err)
		}
		defer rt.Close()
		drive(t, rt)
		verifyHeap(t, rt)
		return essence(rt.Cycles()), rt.HeapObjects()
	}
	for _, mode := range allModes {
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

// TestParallelWorkersEquivalence pins that the collector is
// deterministic: two identical runs of buildChurn give the same cycles
// and the same final heap in every mode.
func TestParallelWorkersEquivalence(t *testing.T) { equivalent(t, buildChurn) }

// TestMixDeterministic pins that the soaks' randomized mutator replays
// from its seed: one workload.Mix at seed 1, four rounds of 3 000
// operations with a collection after each (the last a full one), gives
// the same cycles and the same final heap in two runs.
func TestMixDeterministic(t *testing.T) {
	equivalent(t, func(t *testing.T, rt *gengc.Runtime) {
		m := rt.NewMutator()
		defer m.Detach()
		mix := workload.NewMix(rt, m, 1)
		for round := 0; round < 4; round++ {
			if err := mix.Run(3000); err != nil {
				t.Fatal(err)
			}
			m.Collect(round == 3)
		}
	})
}

// TestParallelManualAllModes drives the deterministic workload with page
// tracking on across every mode, including the aging path, and audits
// the heap after each run; every cycle must have touched pages.
func TestParallelManualAllModes(t *testing.T) {
	for _, mode := range allModes {
		t.Run(mode.String(), func(t *testing.T) {
			rt, err := gengc.NewManual(gengc.WithConfig(gengc.Config{Mode: mode, HeapBytes: 8 << 20,
				YoungBytes: 256 << 10, OldAge: 2, TrackPages: true}))
			if err != nil {
				t.Fatal(err)
			}
			defer rt.Close()
			buildChurn(t, rt)
			verifyHeap(t, rt)
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
