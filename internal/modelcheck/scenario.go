package modelcheck

import (
	"fmt"
	"sync/atomic"

	"gengc/internal/gc"
	"gengc/internal/heap"
)

// Env is the per-run world shared between setup, actors and checks:
// the fresh collector, the virtual scheduler, and named values (object
// addresses, root indices) that setup hands to the actors and the
// end-state assertions. Access is serialized by construction — setup
// runs before the actors are spawned, and actors execute one at a
// time under the controller — so the maps need no lock.
type Env struct {
	C  *gc.Collector
	VS *VirtualScheduler

	// Done is set by the scenario's collector actor when its cycles
	// are finished; the mutator drivers' idle predicate reads it.
	Done atomic.Bool

	// Addrs and Ints carry named setup/actor results ("x", "y",
	// "root-y") to the end-state assertions.
	Addrs map[string]heap.Addr
	Ints  map[string]int

	// Muts are the scenario's scheduled mutators, attached by the
	// runner (per Scenario.Mutators) after Setup and before the actors
	// spawn — so the collector's handshakes block on the scripted
	// actors from the first level, and their interleavings come from
	// free forced switches rather than costed preemptions.
	Muts map[string]*gc.Mutator
}

func newEnv(c *gc.Collector, vs *VirtualScheduler) *Env {
	return &Env{C: c, VS: vs, Addrs: map[string]heap.Addr{}, Ints: map[string]int{},
		Muts: map[string]*gc.Mutator{}}
}

// ActorDecl declares one scheduled actor. Declaration order is the
// canonical choice order at every level (put the collector first).
type ActorDecl struct {
	Name string
	Run  func(*Env) error
}

// Scenario is one named verification workload: a micro-heap built in
// Setup (seam off), a handful of actors whose interleavings are
// enumerated, optional drop budgets and an independence relation, and
// the assertions.
type Scenario struct {
	Name        string
	Description string

	// Config returns the scenario's collector configuration; the
	// runner installs the virtual scheduler (and the -break flag)
	// itself.
	Config func() gc.Config

	// Setup builds the initial heap state with the seam off. It may
	// attach temporary mutators and run warm-up collections; it must
	// detach every mutator it creates before returning (an attached
	// mutator that answers no handshakes would stall the warm-ups).
	Setup func(*Env) error

	// Mutators names the scheduled mutators; the runner attaches one
	// per name (into Env.Muts) after Setup, so they exist before the
	// scheduled phase starts.
	Mutators []string

	Actors []ActorDecl

	// DropPoints maps a park label (a fault-point name, e.g.
	// "cooperate") to a per-run budget of enumerable Drop decisions —
	// the "missed safe point" branches.
	DropPoints map[string]int

	// Indep, when non-nil, declares two choices independent for
	// sleep-set reduction: they must commute (executing them in
	// either order reaches the same state) and neither may enable or
	// disable the other. Nil disables the reduction — always sound.
	Indep func(a, b Choice) bool

	// AfterStep runs extra per-step invariants (the defaults in
	// stepInvariants always run).
	AfterStep func(*Env, Choice) error

	// AtEnd runs after a clean completion — every actor finished and
	// detached — and asserts the scenario's needle survived plus the
	// full quiescent audits.
	AtEnd func(*Env) error
}

// microConfig is the scenarios' shared heap shape: small enough that a
// schedule is a few hundred steps (256 blocks → 16 sweep-shard steps
// per cycle), large enough that allocation never hits the OOM path.
func microConfig(mode gc.Mode) gc.Config {
	return gc.Config{
		Mode:       mode,
		HeapBytes:  1 << 20,
		YoungBytes: 256 << 10,
		CardBytes:  64,
	}
}

// Op is one scripted mutator operation; the driver parks before each
// op, making every op one schedulable step. An ungated op parks at an
// always-enabled yield; a gated op parks at a wait that is enabled
// only while its predicate holds, which lets safe-point ops pace
// themselves to the collector's handshakes without costing the
// explorer preemptions.
type Op struct {
	Label string
	Gate  func(*Env, *gc.Mutator) func() bool
	Do    func(*Env, *gc.Mutator) error
}

// DriveMutator is the standard mutator actor body: run the script on
// the pre-attached mutator with a yield before every op, then idle —
// answering handshakes as they arrive — until the collector actor
// declares the run over, and detach. The idle wait blocks on
// PendingResponse so an idle mutator contributes no stutter steps, and
// the loop guarantees the liveness the handshake protocol assumes
// (every mutator keeps passing safe points).
func DriveMutator(env *Env, name string, ops []Op) error {
	m := env.Muts[name]
	if m == nil {
		return fmt.Errorf("mutator %q was not declared in Scenario.Mutators", name)
	}
	defer m.Detach()
	for _, op := range ops {
		if op.Gate != nil {
			if !env.VS.WaitDriver(op.Label, op.Gate(env, m)) {
				return nil // unwound
			}
		} else if !env.VS.Yield(op.Label) {
			return nil // unwound
		}
		if err := op.Do(env, m); err != nil {
			return fmt.Errorf("op %q: %w", op.Label, err)
		}
	}
	for {
		if !env.VS.WaitDriver("idle", func() bool { return env.Done.Load() || m.PendingResponse() }) {
			return nil // unwound
		}
		if env.Done.Load() && !m.PendingResponse() {
			return nil
		}
		m.Cooperate()
	}
}

// coopOp is the scripted safe point, gated on a pending handshake (or
// the end of the run, so an extra coop cannot deadlock a schedule): it
// becomes enabled exactly when the collector posts, which paces the
// surrounding ops to the handshake windows. The Cooperate itself is a
// further schedulable step (the "cooperate" fault point) where a drop
// budget can turn the response into a missed safe point.
func coopOp() Op {
	return Op{
		Label: "coop",
		Gate: func(env *Env, m *gc.Mutator) func() bool {
			return func() bool { return env.Done.Load() || m.PendingResponse() }
		},
		Do: func(_ *Env, m *gc.Mutator) error {
			m.Cooperate()
			return nil
		},
	}
}

// allocRootOp allocates a slots-sized object, pushes it on the root
// stack, and records its address and root index under name.
func allocRootOp(name string, slots int) Op {
	return Op{Label: "alloc-" + name, Do: func(env *Env, m *gc.Mutator) error {
		a, err := m.Alloc(slots, 0)
		if err != nil {
			return err
		}
		env.Addrs[name] = a
		env.Ints["root-"+name] = m.PushRoot(a)
		return nil
	}}
}

// storeOp stores Addrs[val] (or nil for "") into Addrs[obj].slot[i].
func storeOp(obj string, i int, val string) Op {
	label := fmt.Sprintf("store-%s.%d=%s", obj, i, valName(val))
	return Op{Label: label, Do: func(env *Env, m *gc.Mutator) error {
		var v heap.Addr
		if val != "" {
			v = env.Addrs[val]
		}
		m.Update(env.Addrs[obj], i, v)
		return nil
	}}
}

func valName(v string) string {
	if v == "" {
		return "nil"
	}
	return v
}

// dropRootOp clears the root slot recorded for name, so the object
// stays reachable only through the heap.
func dropRootOp(name string) Op {
	return Op{Label: "droproot-" + name, Do: func(env *Env, m *gc.Mutator) error {
		m.SetRoot(env.Ints["root-"+name], 0)
		return nil
	}}
}

// setRootOp stores Addrs[name] into the root slot recorded under
// idxName — loading a reference into a stack slot with no barrier,
// the root-resurrection half of the SATB needles.
func setRootOp(idxName, name string) Op {
	return Op{Label: "setroot-" + name, Do: func(env *Env, m *gc.Mutator) error {
		m.SetRoot(env.Ints[idxName], env.Addrs[name])
		return nil
	}}
}

// pushNilRootOp pre-arms an empty root slot (so a later setRootOp is
// a plain store, not a push) and records its index under idxName.
func pushNilRootOp(idxName string) Op {
	return Op{Label: "pushroot-nil", Do: func(env *Env, m *gc.Mutator) error {
		env.Ints[idxName] = m.PushRoot(0)
		return nil
	}}
}

// collectorActor returns the standard collector actor: run cycles
// collections — partial ones unless full — then declare the run over.
func collectorActor(cycles int, full bool) ActorDecl {
	return ActorDecl{Name: "collector", Run: func(env *Env) error {
		for i := 0; i < cycles; i++ {
			if env.VS.Aborted() {
				break
			}
			env.C.CollectNow(full)
		}
		env.Done.Store(true)
		return nil
	}}
}

// assertAlive fails unless Addrs[name] is a live, non-blue object.
func assertAlive(env *Env, name string) error {
	a, ok := env.Addrs[name]
	if !ok || a == 0 {
		return fmt.Errorf("needle %q was never recorded", name)
	}
	if !env.C.H.ValidObject(a) {
		return fmt.Errorf("needle %q (%#x) is no longer a live object — lost", name, a)
	}
	if env.C.H.Color(a) == heap.Blue {
		return fmt.Errorf("needle %q (%#x) is blue (freed) — lost", name, a)
	}
	return nil
}

// assertSlot fails unless Addrs[obj].slot[i] == Addrs[val] (0 for "").
func assertSlot(env *Env, obj string, i int, val string) error {
	var want heap.Addr
	if val != "" {
		want = env.Addrs[val]
	}
	got := env.C.H.LoadSlot(env.Addrs[obj], i)
	if got != want {
		return fmt.Errorf("%s.%d = %#x, want %s (%#x)", obj, i, got, valName(val), want)
	}
	return nil
}

// quiescentAudit is the shared end-of-run audit: the full reachability
// verifier, the card invariant, and the inter-cycle self-check.
func quiescentAudit(env *Env) error {
	if err := env.C.Verify(); err != nil {
		return err
	}
	if err := env.C.VerifyCardInvariant(); err != nil {
		return err
	}
	return env.C.CheckQuiescentCycle()
}
