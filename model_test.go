package gengc

import (
	"math/rand"
	"testing"
)

// modelObject mirrors one simulated-heap object in a plain Go reference
// model: same slots, same links. The model is the oracle — after
// quiescent collections, everything reachable in the model must be
// alive in the simulated heap, and (after two full collections, which
// bound floating garbage under the color toggle) everything
// unreachable in the model must be gone.
type modelObject struct {
	ref   Ref
	slots []*modelObject
}

type model struct {
	rt    *Runtime
	m     *Mutator
	roots []*modelObject // parallel to mutator root slots
	all   []*modelObject // every object ever created (for death checks)
}

func newModel(t *testing.T, mode Mode) *model {
	t.Helper()
	rt, err := NewManual(WithMode(mode), WithHeapBytes(16<<20), WithYoungBytes(1<<20), WithOldAge(2))
	if err != nil {
		t.Fatal(err)
	}
	md := &model{rt: rt, m: rt.NewMutator()}
	for i := 0; i < 32; i++ {
		md.m.PushRoot(Nil)
		md.roots = append(md.roots, nil)
	}
	return md
}

func (md *model) alloc(t *testing.T, nslots int) *modelObject {
	t.Helper()
	ref, err := md.m.Alloc(nslots, 0)
	if err != nil {
		t.Fatal(err)
	}
	o := &modelObject{ref: ref, slots: make([]*modelObject, nslots)}
	md.all = append(md.all, o)
	return o
}

func (md *model) setRoot(i int, o *modelObject) {
	md.roots[i] = o
	if o == nil {
		md.m.SetRoot(i, Nil)
	} else {
		md.m.SetRoot(i, o.ref)
	}
}

func (md *model) link(parent *modelObject, slot int, child *modelObject) {
	parent.slots[slot] = child
	if child == nil {
		md.m.Write(parent.ref, slot, Nil)
	} else {
		md.m.Write(parent.ref, slot, child.ref)
	}
}

// reachable computes the model's reachable set.
func (md *model) reachable() map[*modelObject]bool {
	seen := map[*modelObject]bool{}
	var stack []*modelObject
	for _, r := range md.roots {
		if r != nil && !seen[r] {
			seen[r] = true
			stack = append(stack, r)
		}
	}
	for len(stack) > 0 {
		o := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, c := range o.slots {
			if c != nil && !seen[c] {
				seen[c] = true
				stack = append(stack, c)
			}
		}
	}
	return seen
}

// check audits the simulated heap against the model: every
// model-reachable object must be alive with intact links; every
// model-dead object must be reclaimed (checked only when strict, i.e.
// after two back-to-back full collections with no mutation in between).
func (md *model) check(t *testing.T, strict bool) map[*modelObject]bool {
	t.Helper()
	live := md.reachable()
	h := md.rt.Collector().H
	for o := range live {
		if !h.ValidObject(o.ref) {
			t.Fatalf("model-reachable object %#x was reclaimed (color %v, age %d)",
				o.ref, h.Color(o.ref), h.Age(o.ref))
		}
		for i, c := range o.slots {
			got := md.m.Read(o.ref, i)
			want := Nil
			if c != nil {
				want = c.ref
			}
			if got != want {
				t.Fatalf("object %#x slot %d = %#x, model says %#x", o.ref, i, got, want)
			}
		}
	}
	if !strict {
		return live
	}
	// Death auditing cannot be per-object: a reclaimed cell may have
	// been reallocated to a new object, so the old address looking
	// "valid" proves nothing. Counting is identity-free and exact: at
	// a quiescent point after two back-to-back full collections (which
	// bound floating garbage under the color toggle), the heap must
	// hold exactly the model-reachable objects plus the runtime's own
	// global-roots object.
	if got, want := md.rt.HeapObjects(), int64(len(live)+1); got != want {
		t.Fatalf("heap holds %d objects after two full collections, model expects %d", got, want)
	}
	kept := md.all[:0]
	for _, o := range md.all {
		if live[o] {
			kept = append(kept, o)
		}
	}
	md.all = kept
	return live
}

// prune drops pool entries whose objects the model no longer reaches:
// a real mutator cannot hold a reference to a reclaimed object, so the
// test must not either (linking a collected ref would be a dangling
// store, something the type system prevents in a real runtime).
func prune(pool []*modelObject, live map[*modelObject]bool) []*modelObject {
	kept := pool[:0]
	for _, o := range pool {
		if live[o] {
			kept = append(kept, o)
		}
	}
	return kept
}

// TestModelOracle drives random graph mutations against each collector
// mode and audits against the reference model at collection boundaries.
func TestModelOracle(t *testing.T) {
	steps := 6000
	if testing.Short() {
		steps = 1500
	}
	for _, mode := range []Mode{NonGenerational, Generational, GenerationalAging} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			md := newModel(t, mode)
			defer md.rt.Close()
			rng := rand.New(rand.NewSource(int64(mode) + 1))
			var pool []*modelObject // objects we still hold Go references to
			for step := 0; step < steps; step++ {
				md.m.Safepoint()
				switch rng.Intn(10) {
				case 0, 1, 2:
					o := md.alloc(t, rng.Intn(4))
					md.setRoot(rng.Intn(len(md.roots)), o)
					pool = append(pool, o)
				case 3, 4:
					if len(pool) > 0 {
						p := pool[rng.Intn(len(pool))]
						if len(p.slots) > 0 {
							var c *modelObject
							if rng.Intn(4) > 0 && len(pool) > 1 {
								c = pool[rng.Intn(len(pool))]
							}
							md.link(p, rng.Intn(len(p.slots)), c)
						}
					}
				case 5:
					md.setRoot(rng.Intn(len(md.roots)), nil)
				case 6:
					if len(pool) > 512 {
						pool = pool[len(pool)/2:] // forget Go-side handles
					}
				case 7:
					if step%7 == 0 {
						md.m.Collect(false)
						pool = prune(pool, md.check(t, false))
					}
				case 8:
					if step%13 == 0 {
						md.m.Collect(true)
						pool = prune(pool, md.check(t, false))
					}
				default:
					// read probe
					if len(pool) > 0 {
						p := pool[rng.Intn(len(pool))]
						for i, c := range p.slots {
							want := Nil
							if c != nil {
								want = c.ref
							}
							if md.m.Read(p.ref, i) != want {
								t.Fatalf("read mismatch at %#x slot %d", p.ref, i)
							}
						}
					}
				}
			}
			// Quiescent strict audit: two fulls bound floating garbage.
			md.m.Collect(true)
			md.m.Collect(true)
			md.check(t, true)
			if err := md.rt.Verify(); err != nil {
				t.Fatal(err)
			}
			if err := md.rt.VerifyCardInvariant(); err != nil {
				t.Fatal(err)
			}
			md.m.Detach()
		})
	}
}
