// Package modelcheck is the deterministic protocol-verification
// harness: it runs a micro-heap workload under a virtual scheduler
// that implements the collector's fault.Scheduler seam, enumerates
// bounded-exhaustive interleavings of the protocol's schedulable steps
// (handshake posts and acknowledgement rounds, safe-point responses,
// card scans, trace drains, sweep shards), and
// asserts the collector's shared invariants
// (gc.CheckReachableAllocated and friends) after every step of every
// schedule.
//
// Architecture (DESIGN.md §10 has the full treatment):
//
//   - Each scenario actor — the collector driving Cycle, and scripted
//     mutators — runs on its own goroutine but executes strictly one
//     at a time: an actor parks at every seam hit and the controller
//     resumes exactly one parked actor per step. The Go runtime never
//     gets a scheduling choice that matters, so a run is a pure
//     function of its choice sequence.
//
//   - Exploration is stateless (CHESS-style): each schedule re-executes
//     the scenario from a fresh collector, steered by a choice prefix;
//     beyond the prefix a deterministic default policy (keep running
//     the current actor) finishes the run. DFS over prefixes with a
//     preemption bound and sleep-set reduction enumerates the space.
//
//   - Violations (a per-step invariant failure, an actor error, a
//     deadlock) are minimized to the shortest controlling prefix and
//     serialized as a replay file (cmd/gcverify -replay).
package modelcheck

import (
	"runtime"
	"sync/atomic"

	"gengc/internal/fault"
)

// parkKind is what a parked actor is waiting at.
type parkKind int

const (
	// parkStart: the actor goroutine exists but has not run its body.
	parkStart parkKind = iota

	// parkStep: the actor is at a seam hit (fault point or driver
	// yield) and resumes with a Decision.
	parkStep

	// parkWait: the actor is at a Scheduler.Wait (or a driver's idle
	// wait) and is enabled only while its ready predicate holds.
	parkWait

	// parkDone: the actor's body returned; it never resumes.
	parkDone
)

// resumeMsg is the controller's answer to one park.
type resumeMsg struct {
	dec fault.Decision
	ok  bool
}

// actor is one scheduled goroutine. The park fields (kind, label,
// ready, err) are written by the actor before it announces itself on
// the scheduler's park channel and read by the controller after the
// receive; the channel provides the happens-before edge both ways.
type actor struct {
	name   string
	resume chan resumeMsg

	kind  parkKind
	label string
	ready func() bool
	err   error
}

// VirtualScheduler implements fault.Scheduler for the gc seam and the
// driver-side yield points. One instance runs one schedule; the
// explorer builds a fresh scheduler (and collector) per run.
type VirtualScheduler struct {
	// on gates the seam: during scenario setup (heap construction,
	// warm-up collections) it is off and every Step/Wait passes
	// through, so only the scheduled phase is enumerated.
	on atomic.Bool

	// aborted flips when the controller unwinds a run; pass-through
	// Waits then report abandonment so the collector takes its
	// close-abort path and drivers stop.
	aborted atomic.Bool

	// parkC carries park announcements to the controller. Buffered so
	// the initial parks of all actors can land before the controller
	// starts receiving.
	parkC chan *actor

	// actors in registration order — the canonical choice order.
	actors []*actor

	// current is the actor the controller resumed last; Step and Wait
	// run on that actor's goroutine (execution is serialized), so the
	// seam needs no actor-identity parameter.
	current *actor
}

// NewVirtualScheduler returns a scheduler with the seam off; arm it
// with on.Store(true) after setup and spawning.
func NewVirtualScheduler() *VirtualScheduler {
	return &VirtualScheduler{parkC: make(chan *actor, 64)}
}

// spawn registers an actor and starts its goroutine parked: the body
// does not run until the controller's first resume.
func (vs *VirtualScheduler) spawn(name string, fn func() error) {
	a := &actor{name: name, resume: make(chan resumeMsg)}
	vs.actors = append(vs.actors, a)
	go func() {
		a.kind, a.label = parkStart, "start"
		vs.parkC <- a
		<-a.resume
		err := fn()
		a.err = err
		a.kind, a.label, a.ready = parkDone, "done", nil
		vs.parkC <- a
	}()
}

// park announces the current actor's state and blocks until resumed.
// Must be called from the goroutine of vs.current (which is the only
// goroutine running while the seam is on).
func (vs *VirtualScheduler) park(kind parkKind, label string, ready func() bool) resumeMsg {
	a := vs.current
	a.kind, a.label, a.ready = kind, label, ready
	vs.parkC <- a
	return <-a.resume
}

// Step implements fault.Scheduler: one schedulable step at a fault
// point. Off (setup/unwind) it decides nothing.
func (vs *VirtualScheduler) Step(p fault.Point) fault.Decision {
	if !vs.on.Load() {
		return fault.Decision{}
	}
	return vs.park(parkStep, p.String(), nil).dec
}

// Wait implements fault.Scheduler: the collector parks until the
// controller finds ready() true and elects to resume it, or the run is
// abandoned (false — the caller's close-abort path). Off, it yields to
// the real scheduler so setup-phase waits still make progress.
func (vs *VirtualScheduler) Wait(p fault.Point, ready func() bool) bool {
	if !vs.on.Load() {
		if vs.aborted.Load() {
			return false
		}
		runtime.Gosched()
		return true
	}
	return vs.park(parkWait, p.String(), ready).ok
}

// Yield is the driver-side scheduling point: scripted mutators park
// between ops so every op is one schedulable step. A false return (or
// a Drop decision) tells the driver to stop its script — the run is
// being unwound.
func (vs *VirtualScheduler) Yield(label string) bool {
	if !vs.on.Load() {
		return !vs.aborted.Load()
	}
	msg := vs.park(parkStep, label, nil)
	return msg.ok && !msg.dec.Drop
}

// WaitDriver is the driver-side gated wait: a mutator blocks here with
// a readiness predicate — typically "the run is over or I have a
// handshake to answer" (gc.Mutator.PendingResponse) — instead of
// spinning through no-op safe points, which would bloat every schedule
// with stutter steps. Gating the scripted safe-point responses this
// way also paces a script across the handshake windows through free
// forced switches, so the explorer's preemption budget is spent on
// genuine perturbations rather than on basic alternation.
func (vs *VirtualScheduler) WaitDriver(label string, ready func() bool) bool {
	if !vs.on.Load() {
		if vs.aborted.Load() {
			return false
		}
		runtime.Gosched()
		return true
	}
	return vs.park(parkWait, label, ready).ok
}

// parkedAt reports whether the named actor is parked at label. It is
// for gate predicates, which only the controller evaluates, while
// every actor is parked.
func (vs *VirtualScheduler) parkedAt(name, label string) bool {
	for _, a := range vs.actors {
		if a.name == name {
			return a.label == label
		}
	}
	return false
}

// Aborted reports whether the controller is unwinding this run.
func (vs *VirtualScheduler) Aborted() bool { return vs.aborted.Load() }
