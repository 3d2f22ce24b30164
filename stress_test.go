package gengc

import (
	"math/rand"
	"sync"
	"testing"
	"time"
)

// stressMutator hammers the heap from one goroutine: it keeps a window
// of live structures in its roots, continuously allocates, links,
// unlinks and publishes objects, while the background collector runs
// on the fly.
func stressMutator(t *testing.T, rt *Runtime, seed int64, ops int) {
	t.Helper()
	m := rt.NewMutator()
	defer m.Detach()
	rng := rand.New(rand.NewSource(seed))

	const window = 64
	slots := make([]int, 0, window)
	for i := 0; i < window; i++ {
		slots = append(slots, m.PushRoot(Nil))
	}
	for op := 0; op < ops; op++ {
		m.Safepoint()
		i := slots[rng.Intn(window)]
		switch rng.Intn(10) {
		case 0, 1, 2, 3: // allocate a small node and root it
			n, err := m.Alloc(rng.Intn(4), 16+rng.Intn(100))
			if err != nil {
				t.Errorf("alloc: %v", err)
				return
			}
			m.SetRoot(i, n)
		case 4, 5: // link: x.slot = y for two rooted objects
			x, y := m.Root(i), m.Root(slots[rng.Intn(window)])
			if x != Nil && m.Slots(x) > 0 {
				m.Write(x, rng.Intn(m.Slots(x)), y)
			}
		case 6: // drop a root
			m.SetRoot(i, Nil)
		case 7: // chase pointers from a root, re-rooting what we find
			x := m.Root(i)
			for d := 0; d < 4 && x != Nil && m.Slots(x) > 0; d++ {
				x = m.Read(x, rng.Intn(m.Slots(x)))
			}
			if x != Nil {
				m.SetRoot(slots[rng.Intn(window)], x)
			}
		case 8: // unlink: clear a slot
			x := m.Root(i)
			if x != Nil && m.Slots(x) > 0 {
				m.Write(x, rng.Intn(m.Slots(x)), Nil)
			}
		case 9: // publish to a global root, or read one back
			g := rng.Intn(16)
			if rng.Intn(2) == 0 {
				rt.SetGlobal(m, g, m.Root(i))
			} else {
				m.SetRoot(i, rt.Global(g))
			}
		}
	}
	// Validate everything reachable from our roots is alive and
	// consistent before detaching.
	for _, i := range slots {
		x := m.Root(i)
		for d := 0; d < 8 && x != Nil; d++ {
			ns := m.Slots(x)
			if ns < 0 || ns > 64 {
				t.Errorf("reachable object %#x has bogus slot count %d", x, ns)
				return
			}
			if ns == 0 {
				break
			}
			x = m.Read(x, rng.Intn(ns))
		}
	}
}

// TestStressConcurrent runs several mutators against the background
// collector in every mode and verifies the heap afterwards.
func TestStressConcurrent(t *testing.T) {
	ops := 40000
	if testing.Short() {
		ops = 8000
	}
	for _, mode := range []Mode{NonGenerational, Generational, GenerationalAging} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			rt, err := New(WithConfig(Config{
				Mode: mode,
				// Small enough that the workload's ~5 MB allocation
				// volume crosses the 3 MB full-collection trigger even
				// in non-generational mode.
				HeapBytes:  4 << 20,
				YoungBytes: 1 << 20,
				OldAge:     2,
			}))
			if err != nil {
				t.Fatal(err)
			}
			defer rt.Close()
			// A fixed worker count: goroutines interleave even on a
			// single CPU, which is what exercises the on-the-fly
			// protocol.
			workers := 4
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					stressMutator(t, rt, seed, ops)
				}(int64(mode)*1000 + int64(w))
			}
			wg.Wait()
			if err := rt.Verify(); err != nil {
				t.Fatal(err)
			}
			if err := rt.VerifyCardInvariant(); err != nil {
				t.Fatal(err)
			}
			// The allocation volume far exceeds the young threshold,
			// so the background trigger must have fired; a requested
			// cycle may still be in flight, so poll briefly.
			deadline := time.Now().Add(5 * time.Second)
			for rt.Stats().NumCycles == 0 && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if rt.Stats().NumCycles == 0 {
				t.Error("stress run triggered no collections; trigger is broken")
			}
		})
	}
}

// TestStressManyCollections forces frequent cycles with a tiny young
// generation so promotion, card clearing and the color toggle churn.
// The mutators churn in rounds until the runtime has completed at least
// three cycles — a fixed operation count can finish before the
// collector goroutine is scheduled three times on a loaded host — and a
// generous deadline turns a collector that never gets there into a
// failure that names the count.
func TestStressManyCollections(t *testing.T) {
	const wantCycles = 3
	for _, mode := range []Mode{Generational, GenerationalAging} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			rt, err := New(WithMode(mode), WithHeapBytes(8<<20),
				WithYoungBytes(64<<10), WithOldAge(3))
			if err != nil {
				t.Fatal(err)
			}
			defer rt.Close()
			deadline := time.Now().Add(30 * time.Second)
			var wg sync.WaitGroup
			for w := 0; w < 4; w++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					for round := int64(0); ; round++ {
						stressMutator(t, rt, seed+4*round, 30000)
						if t.Failed() || rt.Stats().NumCycles >= wantCycles || time.Now().After(deadline) {
							return
						}
					}
				}(int64(w))
			}
			wg.Wait()
			if err := rt.Verify(); err != nil {
				t.Fatal(err)
			}
			if err := rt.VerifyCardInvariant(); err != nil {
				t.Fatal(err)
			}
			if n := rt.Stats().NumCycles; n < wantCycles {
				t.Errorf("only %d cycles ran within the deadline; expected at least %d", n, wantCycles)
			}
		})
	}
}

// TestWriteBatchChurnRaceStress runs both write APIs under -race with
// the background collector and several concurrent mutators — stores
// landing in whatever phase the running cycles are in — then audits
// every invariant. (The name matters: `make race` selects
// Race|Stress|Parallel tests.)
func TestWriteBatchChurnRaceStress(t *testing.T) {
	rt, err := New(WithMode(Generational), WithHeapBytes(16<<20),
		WithYoungBytes(256<<10), WithSelfCheck(true))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	var wg sync.WaitGroup
	for id := 0; id < 4; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			m := rt.NewMutator()
			defer m.Detach()
			rng := rand.New(rand.NewSource(int64(id) + 7))
			live := 0
			for op := 0; op < 4000; op++ {
				switch r := rng.Float64(); {
				case r < 0.5 || live == 0:
					ref, err := m.Alloc(2, 16+rng.Intn(64))
					if err != nil {
						t.Errorf("mutator %d: %v", id, err)
						return
					}
					m.PushRoot(ref)
					live++
				case r < 0.8 && live >= 2:
					a := m.Root(rng.Intn(live))
					vals := []Ref{m.Root(rng.Intn(live)), m.Root(rng.Intn(live))}
					if rng.Intn(2) == 0 {
						m.WriteBatch(a, vals)
					} else {
						m.Write(a, rng.Intn(2), vals[0])
					}
				default:
					drop := 1 + rng.Intn(min(live, 6))
					m.PopRoots(drop)
					live -= drop
				}
				m.Safepoint()
			}
		}(id)
	}
	wg.Wait()
	rt.Collect(true)
	if err := rt.Verify(); err != nil {
		t.Errorf("Verify: %v", err)
	}
	if err := rt.VerifyCardInvariant(); err != nil {
		t.Errorf("card invariant: %v", err)
	}
	if err, n := rt.Collector().SelfCheckErr(); n > 0 {
		t.Errorf("%d self-check violations, first: %v", n, err)
	}
	if rt.Stats().NumCycles == 0 {
		t.Error("stress run never overlapped a collection cycle")
	}
}
