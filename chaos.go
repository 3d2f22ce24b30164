package gengc

import "gengc/internal/fault"

// Deterministic fault injection (chaos testing). A FaultInjector armed
// with rules and passed to WithFaultInjector makes the runtime's
// coordination seams misbehave on purpose — delayed handshakes, stalled
// safe points, transient allocation failures, failing trace sinks —
// with a schedule that is a pure function of the campaign seed, so a
// failing campaign reruns identically. cmd/gcchaos drives whole
// campaigns; this file only re-exports the vocabulary so embedders can
// run their own.

// FaultInjector decides, at each named injection point, whether to
// delay, drop or fail the operation. Construct with NewFaultInjector,
// arm with Install, and pass to WithFaultInjector. A nil injector (the
// default) disables injection at zero cost.
type FaultInjector = fault.Injector

// FaultRule arms one behavior (FaultKind) at one FaultPoint with a
// firing probability and optional count bound.
type FaultRule = fault.Rule

// FaultPoint names one injection point in the runtime.
type FaultPoint = fault.Point

// FaultKind is what a rule does when it fires: delay, drop or fail.
type FaultKind = fault.Kind

// The injection points. See the fault package for each point's exact
// semantics; points whose operation must not be skipped (handshake
// posting, block-walk chunks) coerce Drop/Fail rules to their Delay.
const (
	FaultHandshakePost = fault.HandshakePost
	FaultHandshakeAck  = fault.HandshakeAck
	FaultCooperate     = fault.Cooperate
	FaultTraceDrain    = fault.TraceDrain
	FaultSweepShard    = fault.SweepShard
	FaultAlloc         = fault.Alloc
	FaultSinkWrite     = fault.SinkWrite
)

// The rule kinds.
const (
	FaultDelay = fault.Delay
	FaultDrop  = fault.Drop
	FaultFail  = fault.Fail
)

// NewFaultInjector returns an injector whose per-point decision streams
// derive deterministically from seed: the same seed and rule set
// reproduce the identical fault schedule at every point, regardless of
// scheduler interleaving.
func NewFaultInjector(seed int64) *FaultInjector { return fault.New(seed) }
