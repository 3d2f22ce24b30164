package workload

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"

	"gengc"
)

const (
	// mixWindow is the number of root slots a Mix works through.
	mixWindow = 128
	// mixGlobals is the number of global root slots a Mix publishes
	// to and reads back.
	mixGlobals = 64
)

// Mix is the randomized mutator of the soaks — the root stress tests,
// the small-heap test and cmd/gcchaos's campaigns, which check the
// paper's §7 safety argument (the SATB barrier, the yellow window, the
// card clear/check/re-set order) by auditing the heap after it ran
// against the on-the-fly collector. One mutator works a window of its
// roots with a seeded random mix of operations: allocate (one in 400 a
// large object), link, unlink, drop, chase-and-re-root, publish or
// read back a global, probe a slot count, and a two-slot WriteBatch. A
// Mix is re-entrant: Run may be called again and again on the same
// mutator, and the root stack never grows past the window NewMix
// pushed.
type Mix struct {
	rt    *gengc.Runtime
	m     *gengc.Mutator
	rng   *rand.Rand
	roots [mixWindow]int
	batch [2]gengc.Ref
}

// NewMix pushes the Mix's window of roots onto m; the seed fixes the
// operation sequence.
func NewMix(rt *gengc.Runtime, m *gengc.Mutator, seed int64) *Mix {
	x := &Mix{rt: rt, m: m, rng: rand.New(rand.NewSource(seed))}
	for i := range x.roots {
		x.roots[i] = m.PushRoot(gengc.Nil)
	}
	return x
}

// Run performs ops operations, passing a safe point before each. It
// returns the first allocation error (wrapping ErrOutOfMemory or
// ErrClosed) or an implausible slot count read from a reachable
// object.
func (x *Mix) Run(ops int) error {
	m, rng := x.m, x.rng
	for op := 0; op < ops; op++ {
		m.Safepoint()
		i := x.roots[rng.Intn(mixWindow)]
		switch rng.Intn(13) {
		case 0, 1, 2, 3, 4: // allocate
			size := 16 + rng.Intn(240)
			if rng.Intn(400) == 0 {
				size = 4096 * (1 + rng.Intn(3))
			}
			n, err := m.Alloc(rng.Intn(5), size)
			if err != nil {
				return fmt.Errorf("alloc: %w", err)
			}
			m.SetRoot(i, n)
		case 5, 6: // link
			a, b := m.Root(i), m.Root(x.roots[rng.Intn(mixWindow)])
			if a != gengc.Nil && m.Slots(a) > 0 {
				m.Write(a, rng.Intn(m.Slots(a)), b)
			}
		case 7: // unlink
			if a := m.Root(i); a != gengc.Nil && m.Slots(a) > 0 {
				m.Write(a, rng.Intn(m.Slots(a)), gengc.Nil)
			}
		case 8: // drop
			m.SetRoot(i, gengc.Nil)
		case 9: // chase and re-root
			a := m.Root(i)
			for d := 0; d < 6 && a != gengc.Nil && m.Slots(a) > 0; d++ {
				a = m.Read(a, rng.Intn(m.Slots(a)))
			}
			if a != gengc.Nil {
				m.SetRoot(x.roots[rng.Intn(mixWindow)], a)
			}
		case 10: // publish a global, or read one back
			g := rng.Intn(mixGlobals)
			if rng.Intn(2) == 0 {
				x.rt.SetGlobal(m, g, m.Root(i))
			} else {
				m.SetRoot(i, x.rt.Global(g))
			}
		case 11: // probe a reachable object's slot count
			if a := m.Root(i); a != gengc.Nil {
				if s := m.Slots(a); s < 0 || s > 64 {
					return fmt.Errorf("object %#x has implausible slot count %d", a, s)
				}
			}
		case 12: // store two roots at once
			if a := m.Root(i); a != gengc.Nil {
				x.batch[0] = m.Root(x.roots[rng.Intn(mixWindow)])
				x.batch[1] = m.Root(x.roots[rng.Intn(mixWindow)])
				m.WriteBatch(a, x.batch[:min(m.Slots(a), len(x.batch))])
			}
		}
	}
	return nil
}

// stormSizes are AllocStorm's object sizes, one per size class tier.
var stormSizes = [...]int{16, 40, 96, 224, 480, 992}

// AllocStorm is the allocation-dominated variant of Mix: every
// operation allocates an object of a random size from stormSizes into a
// random slot of a window of 96 roots, so the slot's previous occupant
// becomes garbage for the concurrent sweep to push back into the class
// shards — unless one time in four the new object links to it. It
// pushes its window onto m and leaves it there.
func AllocStorm(m *gengc.Mutator, seed int64, ops int) error {
	rng := rand.New(rand.NewSource(seed))
	var roots [96]int
	for i := range roots {
		roots[i] = m.PushRoot(gengc.Nil)
	}
	for op := 0; op < ops; op++ {
		ref, err := m.Alloc(2, stormSizes[rng.Intn(len(stormSizes))])
		if err != nil {
			return fmt.Errorf("alloc: %w", err)
		}
		slot := roots[rng.Intn(len(roots))]
		if old := m.Root(slot); old != gengc.Nil && rng.Intn(4) == 0 {
			m.Write(ref, 0, old)
		}
		m.SetRoot(slot, ref)
		m.Safepoint()
	}
	return nil
}

// RunMix runs ops operations of a Mix on each of n mutators at once,
// mutator i seeded seed+i, and returns once all have detached, with
// every mutator's error.
func RunMix(rt *gengc.Runtime, n, ops int, seed int64) error {
	return fleet(rt, n, seed, func(m *gengc.Mutator, seed int64) error {
		return NewMix(rt, m, seed).Run(ops)
	})
}

// RunStorm is RunMix for AllocStorm.
func RunStorm(rt *gengc.Runtime, n, ops int, seed int64) error {
	return fleet(rt, n, seed, func(m *gengc.Mutator, seed int64) error {
		return AllocStorm(m, seed, ops)
	})
}

// fleet runs body on n freshly attached mutators at once, mutator i
// seeded seed+i, and returns their errors joined once every one has
// detached.
func fleet(rt *gengc.Runtime, n int, seed int64, body func(*gengc.Mutator, int64) error) error {
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			m := rt.NewMutator()
			defer m.Detach()
			if err := body(m, seed+int64(i)); err != nil {
				errs[i] = fmt.Errorf("mutator %d: %w", i, err)
			}
		}(i)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// Audit runs the collector's post-cycle self-check (CheckQuiescentCycle)
// from rt's OnCycle hook after every completed cycle, taking that hook.
// The returned report gives the number of cycles that failed it and the
// first failure.
func Audit(rt *gengc.Runtime) (report func() (int, error)) {
	var n atomic.Int64
	var first atomic.Value
	rt.OnCycle(func(c gengc.CycleRecord) {
		if err := rt.Collector().CheckQuiescentCycle(); err != nil && n.Add(1) == 1 {
			first.Store(fmt.Errorf("after %s cycle %d: %w", c.Kind, c.Seq, err))
		}
	})
	return func() (int, error) {
		err, _ := first.Load().(error)
		return int(n.Load()), err
	}
}

// ParseMode reads a collector name as the commands' -mode flags spell
// it: non, nongen or non-generational; gen, generational or simple;
// aging.
func ParseMode(s string) (gengc.Mode, error) {
	switch s {
	case "non", "nongen", "non-generational":
		return gengc.NonGenerational, nil
	case "gen", "generational", "simple":
		return gengc.Generational, nil
	case "aging":
		return gengc.GenerationalAging, nil
	}
	return 0, fmt.Errorf("unknown mode %q (non|gen|aging)", s)
}
