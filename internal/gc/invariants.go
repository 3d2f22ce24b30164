package gc

import (
	"fmt"

	"gengc/internal/heap"
)

// Shared protocol invariants, used by three auditors: the inter-cycle
// self-check (CheckQuiescentCycle, which callers run from the OnCycle
// hook after every completed cycle), the quiescent verifier (Verify,
// verify.go) and the model checker (internal/modelcheck), which calls
// the step-safe subset after every schedulable step of an enumerated
// interleaving. Keeping the checks here — one body each — means the
// model checker asserts exactly the invariants the runtime audits on
// itself, not a reimplementation that could drift.
//
// Two safety classes:
//
//   - CheckQuiescentCycle is safe on the collector goroutine whenever
//     a cycle just completed (mutators may keep running): it reads only
//     atomics, the collector-owned gray stack, and lock-protected heap
//     bookkeeping.
//
//   - The CheckReachable* walkers read mutator root stacks that belong
//     to their owning goroutines, with no locks. They are step-safe
//     only under a virtual scheduler, where every actor is parked
//     while the checker runs (the scheduler serializes execution);
//     outside model checking, use Verify, which quiesces first.

// CheckQuiescentCycle audits the collector's own post-cycle state:
//
//   - the trace machinery is quiesced (status async, trace predicate
//     off, no gray object queued on the collector's stack),
//   - allocator bookkeeping is consistent (heap.CheckIntegrity counts
//     the blue cells of every unowned block under the shard locks),
//   - no object is left gray — the trace fixpoint plus the final
//     acknowledgement round blackened every gray before the sweep, and
//     in the async window between cycles the write barrier cannot
//     produce new grays (mutators only gray during sync1/sync2 or
//     while the collector is tracing),
//   - the stale old code is retired and no object carries it: a full
//     collection's sweep frees every stale object the trace did not
//     reach, and the trace recolored every one it did.
//
// A violation means the cycle that just finished broke the collector's
// own protocol, independent of whatever the mutators are doing.
func (c *Collector) CheckQuiescentCycle() error {
	if s := Status(c.statusC.Load()); s != StatusAsync {
		return fmt.Errorf("gc: self-check: post-cycle status %v, want async", s)
	}
	if c.tracing.Load() {
		return fmt.Errorf("gc: self-check: trace predicate still set after cycle")
	}
	if n := len(c.gray); n != 0 {
		return fmt.Errorf("gc: self-check: %d objects left queued on the gray stack", n)
	}
	if err := c.H.CheckIntegrity(); err != nil {
		return fmt.Errorf("gc: self-check: %w", err)
	}
	if s := c.stale(); s != heap.NoColor {
		return fmt.Errorf("gc: self-check: stale old code %v still set after cycle", s)
	}
	stale := heap.OtherBlack(c.OldColor())
	var first error
	c.H.ForEachObject(func(addr heap.Addr) {
		if first != nil {
			return
		}
		switch c.H.Color(addr) {
		case heap.Gray:
			first = fmt.Errorf("gc: self-check: object %#x left gray after cycle", addr)
		case stale:
			first = fmt.Errorf("gc: self-check: object %#x still carries the stale old code %v after cycle", addr, stale)
		}
	})
	return first
}

// CheckReachable walks every object reachable from the roots — the
// globals object, every attached mutator's root stack, and the slots of
// everything found — calling visit once per distinct address before its
// slots are followed. visit's error stops the walk and is returned with
// the path context: the root or the object slot that reached the
// address, formatted only then.
//
// Step-safe only under a virtual scheduler: the walk reads mutator root
// stacks without synchronization (see the file comment). Verify runs
// it with the mutators quiesced.
func (c *Collector) CheckReachable(visit func(addr heap.Addr) error) error {
	// reach is one pushed address and how the walk got there: slot i
	// of object from, or (from 0) root i of mutator mut, or the
	// globals object (mut -1).
	type reach struct {
		to, from heap.Addr
		i, mut   int
	}
	seen := make(map[heap.Addr]bool)
	var stack []reach
	push := func(r reach) {
		if r.to != 0 && !seen[r.to] {
			seen[r.to] = true
			stack = append(stack, r)
		}
	}
	push(reach{to: c.globals, mut: -1})
	c.muts.Lock()
	snapshot := append([]*Mutator(nil), c.muts.list...)
	c.muts.Unlock()
	for _, m := range snapshot {
		if m.detached.Load() {
			continue
		}
		for i, a := range m.roots {
			push(reach{to: a, i: i, mut: m.id})
		}
	}
	for len(stack) > 0 {
		r := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if err := visit(r.to); err != nil {
			switch {
			case r.from != 0:
				return fmt.Errorf("%w (reached from object %#x slot %d)", err, r.from, r.i)
			case r.mut >= 0:
				return fmt.Errorf("%w (reached from mutator %d root %d)", err, r.mut, r.i)
			}
			return fmt.Errorf("%w (the global root object)", err)
		}
		if !c.H.ValidObject(r.to) {
			// visit tolerated it; nothing to walk.
			continue
		}
		for i, n := 0, c.H.Slots(r.to); i < n; i++ {
			if a := c.H.LoadSlot(r.to, i); a != 0 {
				push(reach{to: a, from: r.to, i: i})
			}
		}
	}
	return nil
}

// CheckReachableAllocated asserts that every reachable address is a
// live allocated object — the lost-object invariant. It holds at every
// step of every phase: the collector must never free (or recycle the
// cell of) an object the mutators can still reach. This is the needle
// detector for the protocol's historical failure modes (a store during
// sync2 whose target the trace missed, a deletion shade racing the
// final acknowledgement, a dropped handshake response).
func (c *Collector) CheckReachableAllocated() error {
	return c.CheckReachable(func(a heap.Addr) error {
		if !c.H.ValidObject(a) {
			return fmt.Errorf("gc: invariant: reachable address %#x is not a live object (freed or corrupt)", a)
		}
		return nil
	})
}

// CheckNoReachableClear asserts that no reachable object still carries
// the clear color (or, in a full collection, the stale old code, which
// the sweep frees alike). Valid only in the window where the trace has
// reached its fixpoint but the cycle's sweep has not completed — from
// tracing.Store(false) through the end of sweep — when every reachable
// object must have been blackened (or be allocation-colored, §7.1); a
// clear-colored reachable object there is about to be freed by the
// ongoing sweep. The model checker runs it at sweep-shard steps.
func (c *Collector) CheckNoReachableClear() error {
	cc := heap.Color(c.clearColor.Load())
	return c.CheckReachable(func(a heap.Addr) error {
		if !c.H.ValidObject(a) {
			return fmt.Errorf("gc: invariant: reachable address %#x is not a live object", a)
		}
		if c.unstale(c.H.Color(a)) == cc {
			return fmt.Errorf("gc: invariant: reachable object %#x still clear-colored (%v) during sweep", a, cc)
		}
		return nil
	})
}
