package modelcheck

import (
	"fmt"

	"gengc/internal/fault"
	"gengc/internal/gc"
	"gengc/internal/heap"
)

// The needle catalog. Each scenario plants an object whose survival
// depends on one delicate leg of the protocol, then enumerates every
// schedule within the bounds and asserts the needle survived all of
// them — plus the per-step invariants of run.go on the way. The
// scenarios correspond to the historical failure modes of on-the-fly
// collectors: a store during the sync windows (Figure 1's two-shade
// barrier, §7.1's acceptance window), a deletion-barrier shade racing
// the final acknowledgement round, a dropped safe point around a card
// mark (§7.2), a store into an object the running trace then promotes
// (the card mark's independence from the source's color), and the
// non-generational baseline's create racing its sweep (Remark 5.1), a
// deletion racing a full collection's trace over objects whose old
// code the collection flipped away from, and a deletion landing inside
// a batch of the trace's drain, between a member's header load and its
// scan.

// setupOldChain attaches a temporary mutator, allocates an object with
// slots pointer slots, publishes it in globals slot 0, detaches, and
// runs warm partial collections so the object ends up old (black;
// tenured after two cycles in aging mode). The object is left pristine
// — no stores into it — so its card is clean and nothing masks a
// lost card mark.
func setupOldChain(env *Env, name string, slots, warmCycles int) error {
	t := env.C.NewMutator()
	x, err := t.Alloc(slots, 0)
	if err != nil {
		t.Detach()
		return err
	}
	t.Update(env.C.Globals(), 0, x)
	t.Detach()
	for i := 0; i < warmCycles; i++ {
		env.C.CollectNow(false)
	}
	env.Addrs[name] = x
	return nil
}

// syncStoreRace: the protagonist allocates w, roots it, stores it into
// the old object z during whatever phase the schedule lands on, then
// drops the root — w's survival must follow from the phase-dependent
// write-barrier cases of Figure 1 (§7.1's acceptance window included)
// in every interleaving. A rootless, opless bystander mutator rides
// along: its safe-point responses are provably independent of the
// protagonist's steps, which is what the sleep-set reduction prunes.
func syncStoreRace() *Scenario {
	return &Scenario{
		Name: "sync-store-race",
		Description: "store into an old object racing the sync1/sync2 windows; " +
			"the two-shade barrier must keep the stored object alive in every schedule",
		Config:   func() gc.Config { return microConfig(gc.Generational) },
		Setup:    func(env *Env) error { return setupOldChain(env, "z", 2, 1) },
		Mutators: []string{"mut", "idle"},
		Actors: []ActorDecl{
			collectorActor(2, false),
			{Name: "mut", Run: func(env *Env) error {
				return DriveMutator(env, "mut", []Op{
					coopOp(),
					allocRootOp("w", 1),
					coopOp(),
					storeOp("z", 0, "w"),
					coopOp(),
					dropRootOp("w"),
				})
			}},
			{Name: "idle", Run: func(env *Env) error { return DriveMutator(env, "idle", nil) }},
		},
		Indep: func(a, b Choice) bool {
			// The bystander owns no roots and no objects; its
			// safe-point responses touch only its own
			// status/ack words, which the protagonist never reads —
			// and vice versa. Drop variants are never declared
			// independent (a drop changes which future choices exist).
			if a.Drop || b.Drop {
				return false
			}
			return (a.Actor == "mut" && b.Actor == "idle") ||
				(a.Actor == "idle" && b.Actor == "mut")
		},
		AtEnd: func(env *Env) error {
			if err := assertAlive(env, "w"); err != nil {
				return err
			}
			if err := assertSlot(env, "z", 0, "w"); err != nil {
				return err
			}
			if err := assertAlive(env, "z"); err != nil {
				return err
			}
			return quiescentAudit(env)
		},
	}
}

// shadeVsAck: setup leaves old x with x.0 = o (o clear-colored once the
// test cycle toggles) and x's card dirty. The protagonist pre-arms a
// root slot, lets the handshakes pass, then resurrects o into the root
// and deletes x.0 — while the collector traces, the deletion barrier's
// shade of o (the snapshot-at-the-beginning leg of Figure 1) lands in
// the mutator's gray buffer, and the only thing standing between o and
// the sweep is trace termination: the acknowledgement round must not
// let the trace finish while that gray entry is undrained, wherever
// the store falls between the collector's drains and its rounds.
func shadeVsAck() *Scenario {
	return &Scenario{
		Name: "shade-vs-ack",
		Description: "SATB deletion shade racing the trace-termination acknowledgement; " +
			"the shaded object must be traced before the round that lets the trace finish",
		Config: func() gc.Config { return microConfig(gc.Generational) },
		Setup: func(env *Env) error {
			if err := setupOldChain(env, "x", 1, 1); err != nil {
				return err
			}
			// Phase 2: allocate o *after* the warm cycle so the test
			// cycle's color toggle makes it clear-colored (sweepable),
			// and publish x.0 = o, which dirties x's card.
			t := env.C.NewMutator()
			o, err := t.Alloc(1, 0)
			if err != nil {
				t.Detach()
				return err
			}
			t.Update(env.Addrs["x"], 0, o)
			t.Detach()
			env.Addrs["o"] = o
			return nil
		},
		Mutators: []string{"mut"},
		Actors: []ActorDecl{
			collectorActor(1, false),
			{Name: "mut", Run: func(env *Env) error {
				return DriveMutator(env, "mut", []Op{
					pushNilRootOp("root-o"),
					coopOp(),
					coopOp(),
					coopOp(),
					setRootOp("root-o", "o"),
					storeOp("x", 0, ""),
					coopOp(),
				})
			}},
		},
		AtEnd: func(env *Env) error {
			if err := assertAlive(env, "o"); err != nil {
				return err
			}
			if err := assertSlot(env, "x", 0, ""); err != nil {
				return err
			}
			if err := assertAlive(env, "x"); err != nil {
				return err
			}
			return quiescentAudit(env)
		},
	}
}

// droppedHandshake: aging mode with OldAge 1 and a drop budget of one
// safe-point response. The protagonist stores young y into tenured,
// clean-carded x — Figure 4's barrier marks the card after the store —
// and the schedule may make any one Cooperate a missed safe point,
// which moves the store across the collector's phases (a late sync1
// response puts it beside the §7.2 clear/scan/re-set of the card
// scan). The protocol's obligation: whichever side of a scan the mark
// lands on, some scan sees the card dirty before y's root is gone (no
// cycle passes a handshake without a response), so y survives both
// cycles in every schedule including the dropped ones.
func droppedHandshake() *Scenario {
	return &Scenario{
		Name: "dropped-handshake",
		Description: "missed safe point around an old-to-young store; the store's card mark " +
			"must reach a card scan before the young target loses its root",
		Config: func() gc.Config {
			cfg := microConfig(gc.GenerationalAging)
			cfg.OldAge = 1
			return cfg
		},
		Setup: func(env *Env) error {
			// Two warm cycles: survive once (demoted, age 1), survive
			// again at the threshold — x is tenured with a clean card.
			return setupOldChain(env, "x", 2, 2)
		},
		Mutators: []string{"mut"},
		Actors: []ActorDecl{
			collectorActor(2, false),
			{Name: "mut", Run: func(env *Env) error {
				return DriveMutator(env, "mut", []Op{
					allocRootOp("y", 1),
					coopOp(),
					storeOp("x", 0, "y"),
					coopOp(),
					dropRootOp("y"),
					coopOp(),
				})
			}},
		},
		DropPoints: map[string]int{"cooperate": 1},
		AtEnd: func(env *Env) error {
			if err := assertAlive(env, "y"); err != nil {
				return err
			}
			if err := assertSlot(env, "x", 0, "y"); err != nil {
				return err
			}
			return quiescentAudit(env)
		},
	}
}

// promoteAfterStore: the protagonist allocates x before the first
// cycle's toggle, lets the handshakes pass, then — during the async
// phase, while the trace may or may not have reached x — allocates y
// and stores it into x. Whatever x's color at the store, the trace
// promotes x, so the next partial finds an old→young pointer only if
// the store recorded it: Figure 1's barrier marks the card
// unconditionally and the card scan decides at scan time. A barrier
// that filtered on "x is already black" at store time would lose y in
// the schedules where the store beats the trace to x.
func promoteAfterStore() *Scenario {
	return &Scenario{
		Name: "promote-after-store",
		Description: "store into a young object that the running trace then promotes; " +
			"the card mark must bring the new old-to-young pointer to the next partial's scan",
		Config:   func() gc.Config { return microConfig(gc.Generational) },
		Setup:    func(*Env) error { return nil }, // x and y are the mutator's own
		Mutators: []string{"mut"},
		Actors: []ActorDecl{
			collectorActor(2, false),
			{Name: "mut", Run: func(env *Env) error {
				return DriveMutator(env, "mut", []Op{
					allocRootOp("x", 1),
					coopOp(),
					coopOp(),
					coopOp(),
					allocRootOp("y", 1),
					storeOp("x", 0, "y"),
					dropRootOp("y"),
					coopOp(),
					coopOp(),
					coopOp(),
					coopOp(),
				})
			}},
		},
		AtEnd: func(env *Env) error {
			if err := assertAlive(env, "y"); err != nil {
				return err
			}
			return quiescentAudit(env)
		},
	}
}

// createDuringSweep: the non-generational baseline's create protocol.
// The collector runs one full cycle; the mutator answers the three
// handshakes and the trace's acknowledgement round, then allocates and
// roots n once the collector parks at a sweep chunk or finishes, so one
// preemption places the create before, inside or after the sweep's 16
// SweepShard chunks. Remark 5.1's color toggle makes the create color
// the marked color from the toggle through the sweep: a new object is
// never the color the sweep frees, wherever the sweep is.
func createDuringSweep() *Scenario {
	return &Scenario{
		Name: "create-during-sweep",
		Description: "allocation racing the non-generational sweep; " +
			"a new object must never carry the color the sweep frees",
		Config:   func() gc.Config { return microConfig(gc.NonGenerational) },
		Setup:    func(*Env) error { return nil },
		Mutators: []string{"mut"},
		Actors: []ActorDecl{
			collectorActor(1, false),
			{Name: "mut", Run: func(env *Env) error {
				return DriveMutator(env, "mut", []Op{
					coopOp(),
					coopOp(),
					coopOp(),
					coopOp(),
					sweepGated(allocRootOp("n", 1)),
				})
			}},
		},
		AtEnd: func(env *Env) error {
			if err := assertAlive(env, "n"); err != nil {
				return err
			}
			return quiescentAudit(env)
		},
	}
}

// sweepGated holds op until the collector parks at a sweep chunk — the
// sweep is the only walk that passes the SweepShard seam; a full
// collection flips its old code without one — or the run is over.
func sweepGated(op Op) Op {
	op.Gate = func(env *Env, _ *gc.Mutator) func() bool {
		return func() bool {
			return env.Done.Load() || env.VS.parkedAt("collector", fault.SweepShard.String())
		}
	}
	return op
}

// drainGated holds op until the collector parks at a TraceDrain step —
// inside a drain, between two scans — or posts the trace's
// acknowledgement round, or the run is over. Ungated, the op would run
// straight after the async response, before the trace, and placing it
// inside a drain would take a second preemption.
func drainGated(op Op) Op {
	op.Gate = func(env *Env, m *gc.Mutator) func() bool {
		return func() bool {
			return env.Done.Load() || m.PendingResponse() ||
				env.VS.parkedAt("collector", fault.TraceDrain.String())
		}
	}
	return op
}

// staleDeletionShade: the old-code flip. Setup runs a partial that
// promotes a and b (a.0 = b), so both carry the old code. The test
// cycle is full: its flip turns that code stale, which the trace, the
// barrier and the sweep must read as the color the retired recoloring
// walk would have written. After the mutator's sync2 root scan (its
// pre-armed root still nil) it loads b into the root and deletes a.0,
// wherever that falls against the trace's drains: b survives only if
// the deletion barrier shades a stale object as a clear one, or the
// trace reached a first.
func staleDeletionShade() *Scenario {
	return &Scenario{
		Name: "stale-deletion-shade",
		Description: "SATB deletion of an old object during a full collection's old-code flip; " +
			"the barrier must shade the stale code as the clear color",
		Config: func() gc.Config { return microConfig(gc.Generational) },
		Setup: func(env *Env) error {
			t := env.C.NewMutator()
			a, err := t.Alloc(1, 0)
			if err != nil {
				t.Detach()
				return err
			}
			b, err := t.Alloc(1, 0)
			if err != nil {
				t.Detach()
				return err
			}
			t.Update(a, 0, b)
			t.Update(env.C.Globals(), 0, a)
			t.Detach()
			env.C.CollectNow(false)
			env.Addrs["a"], env.Addrs["b"] = a, b
			return nil
		},
		Mutators: []string{"mut"},
		Actors: []ActorDecl{
			collectorActor(1, true),
			{Name: "mut", Run: func(env *Env) error {
				return DriveMutator(env, "mut", []Op{
					pushNilRootOp("root-b"),
					coopOp(),
					coopOp(),
					coopOp(),
					setRootOp("root-b", "b"),
					storeOp("a", 0, ""),
					coopOp(),
				})
			}},
		},
		AtEnd: func(env *Env) error {
			if err := assertAlive(env, "b"); err != nil {
				return err
			}
			if err := assertSlot(env, "a", 0, ""); err != nil {
				return err
			}
			if err := assertAlive(env, "a"); err != nil {
				return err
			}
			return quiescentAudit(env)
		},
	}
}

// wideFrontierOlds is how many old objects wide-frontier puts on dirty
// cards: with the globals root on top, the partial's first drain starts
// at least this deep, the gray-stack depth at which drain works in
// batches.
const wideFrontierOlds = 16

// wideFrontier: the batched drain. Setup promotes wideFrontierOlds old
// objects behind a holder in globals slot 0, then stores a young son
// into each, which dirties their cards. The test partial's card scan
// grays them all, so its first drain gives up the whole stack as one
// batch: it loads every member's header, then scans the globals root
// (pushed last) first and x — the lowest-addressed old object, pushed
// first — last. After the handshakes, wherever the schedule lands it
// against the drain's scans (drainGated), the mutator moves x's son y
// into globals slot 1 and deletes x.0. y survives only if the deletion
// barrier shades it, or x's scan — from the header its batch loaded
// before the mutator ran — reached it first.
func wideFrontier() *Scenario {
	return &Scenario{
		Name: "wide-frontier",
		Description: "deletion of a batched drain member's young son between the member's header load " +
			"and its scan; the son, moved into an already scanned object, must survive",
		Config: func() gc.Config { return microConfig(gc.Generational) },
		Setup: func(env *Env) error {
			t := env.C.NewMutator()
			holder, err := t.Alloc(wideFrontierOlds, 0)
			if err != nil {
				t.Detach()
				return err
			}
			t.Update(env.C.Globals(), 0, holder)
			olds := make([]heap.Addr, wideFrontierOlds)
			for i := range olds {
				if olds[i], err = t.Alloc(1, 0); err != nil {
					t.Detach()
					return err
				}
				t.Update(holder, i, olds[i])
			}
			t.Detach()
			env.C.CollectNow(false) // promotes holder and olds; clears their cards
			t = env.C.NewMutator()
			defer t.Detach()
			x := olds[0]
			for _, o := range olds {
				y, err := t.Alloc(1, 0)
				if err != nil {
					return err
				}
				t.Update(o, 0, y)
				x = min(x, o)
			}
			env.Addrs["globals"] = env.C.Globals()
			env.Addrs["x"] = x
			env.Addrs["y"] = env.C.H.LoadSlot(x, 0)
			return nil
		},
		Mutators: []string{"mut"},
		Actors: []ActorDecl{
			collectorActor(1, false),
			{Name: "mut", Run: func(env *Env) error {
				return DriveMutator(env, "mut", []Op{
					coopOp(),
					coopOp(),
					coopOp(),
					drainGated(storeOp("globals", 1, "y")),
					drainGated(storeOp("x", 0, "")),
					coopOp(),
				})
			}},
		},
		AtEnd: func(env *Env) error {
			cs := env.C.Metrics().Cycles()
			if n := cs[len(cs)-1].InterGenScanned; n < wideFrontierOlds {
				return fmt.Errorf("the card scan grayed %d old objects, want %d: the drain did not batch", n, wideFrontierOlds)
			}
			if err := assertAlive(env, "y"); err != nil {
				return err
			}
			if err := assertSlot(env, "globals", 1, "y"); err != nil {
				return err
			}
			if err := assertSlot(env, "x", 0, ""); err != nil {
				return err
			}
			return quiescentAudit(env)
		},
	}
}

// Scenarios returns the named scenarios in their canonical order.
func Scenarios() []*Scenario {
	return []*Scenario{syncStoreRace(), shadeVsAck(), droppedHandshake(), promoteAfterStore(),
		createDuringSweep(), staleDeletionShade(), wideFrontier()}
}

// ByName resolves one scenario. A retired name — a stale -scenario
// flag or replay file — is told why it cannot run, not that it is
// unknown.
func ByName(name string) (*Scenario, error) {
	for _, sc := range Scenarios() {
		if sc.Name == name {
			return sc, nil
		}
	}
	if name == "remset-drain" {
		return nil, fmt.Errorf("modelcheck: scenario %q was retired with the remembered-set variant it verified; "+
			"promote-after-store checks the card path", name)
	}
	return nil, fmt.Errorf("modelcheck: unknown scenario %q", name)
}
