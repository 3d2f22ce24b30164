package gc

import (
	"sync/atomic"
	"time"
)

// Trigger is the pacer's verdict on one allocation: whether the
// collector should be asked for a collection, and which kind.
type Trigger int

const (
	TriggerNone    Trigger = iota
	TriggerPartial         // young allocation passed the generation size (§3.3)
	TriggerFull            // the heap is (almost) full
)

// Pacer owns the collection-scheduling policy that used to be scattered
// through the collector: the young-allocation trigger of §3.3 and the
// adaptive full-collection target modeling the paper's grow-on-demand
// heap.
//
// The pacer is off the per-object path: a mutator hands NoteAlloc its
// requested bytes once per published block (Mutator.publishAllocs), so
// the §3.3 partial trigger fires at most one block late per attached
// mutator. NoteAlloc keeps its own occupancy estimate and compares it
// against cached targets; the estimate is resynchronized against the
// heap's summed per-shard allocation counters once per cycle
// (Reconcile/EndCycle), the only time those are read. In between, sweep
// frees are not subtracted, so the estimate overshoots, which at worst
// requests a collection early — the collector's staleness check (run)
// drops it after consulting the real counters.
type Pacer struct {
	// Policy parameters, fixed at construction.
	generational bool
	youngBytes   int64
	emergency    int64 // fullThreshold · heap size: the hard "almost full" bound

	// young counts bytes allocated since the last collection (the
	// §3.3 partial trigger).
	young atomic.Int64

	// occupancy is the allocated-bytes estimate: incremented by
	// NoteAlloc, resynchronized from the heap's shard counters at
	// every reconcile point.
	occupancy atomic.Int64

	// fullTarget is the adaptive full-collection trigger, compared
	// against old-generation bytes (allocated minus young) in the
	// generational modes and all allocated bytes without generations.
	// It models the paper's growing heap (1 MB initial, 32 MB max): it
	// starts at min(fullHeadroom, emergency), after every full
	// collection it is that quantity plus fullHeadroom, capped at
	// emergency, and it never decreases.
	fullTarget atomic.Int64

	// lastSlip is the unixnano of the most recent allocation-deadline
	// miss (an AllocCtx expiring in the slow path, or an OOM give-up) —
	// the admission controller's SlipWithin signal (admission.go).
	lastSlip atomic.Int64
}

// The full-collection policy is fixed, as in the paper, which starts a
// collection "when the heap is almost full" (§3.3) and sweeps no knob
// of it.
const (
	// fullThreshold is the fraction of the heap at which a full
	// collection is forced whatever the adaptive target says: the
	// emergency bound.
	fullThreshold = 0.75

	// fullHeadroom is both the initial full-collection target and the
	// allocation headroom above the live set at which the next full
	// collection triggers. The paper's grow-on-demand heap keeps
	// roughly constant headroom over the live data (its
	// non-generational javac run collects every ~2.5 MB despite a
	// double-digit-MB live set), which a multiplicative target would
	// not reproduce.
	fullHeadroom = 4 << 20
)

// newPacer derives the pacing policy from the configuration and the
// actual (block-rounded) heap size.
func newPacer(cfg Config, heapSize int) *Pacer {
	p := &Pacer{
		generational: cfg.Mode.IsGenerational(),
		youngBytes:   int64(cfg.YoungBytes),
		emergency:    int64(float64(heapSize) * fullThreshold),
	}
	p.fullTarget.Store(min(fullHeadroom, p.emergency))
	return p
}

// NoteAlloc records bytes of fresh allocation — one mutator's batch
// since its last publication — and returns the collection, if any,
// that they push due. No heap traversal, no locks.
func (p *Pacer) NoteAlloc(bytes int64) Trigger {
	occ := p.occupancy.Add(bytes)
	young := p.young.Add(bytes)
	// Emergency bound: the heap is almost full regardless of mode.
	if occ >= p.emergency {
		return TriggerFull
	}
	if !p.generational {
		// Without generations every collection is full and fires
		// from the adaptive target directly.
		if occ >= p.fullTarget.Load() {
			return TriggerFull
		}
		return TriggerNone
	}
	if young >= p.youngBytes {
		return TriggerPartial
	}
	// Full collections in the generational modes are decided at the
	// end of a partial, from what the partial failed to reclaim
	// (EndCycle): young garbage must not trip the full-heap trigger.
	return TriggerNone
}

// YoungAlloc returns the bytes allocated since the last collection.
func (p *Pacer) YoungAlloc() int64 { return p.young.Load() }

// Target returns the current adaptive full-collection target.
func (p *Pacer) Target() int64 { return p.fullTarget.Load() }

// PartialDue reports whether the young-generation trigger still holds;
// the collector's staleness check for queued partial requests.
func (p *Pacer) PartialDue() bool { return p.young.Load() >= p.youngBytes }

// FullDue reports whether a queued full request still holds, from the
// real counters (read by the caller, off the hot path): the heap is at
// the emergency bound, or the bytes the mode triggers on — the old
// generation's in the generational modes — have reached the target.
func (p *Pacer) FullDue(allocated int64) bool {
	if allocated >= p.emergency {
		return true
	}
	if p.generational {
		allocated -= p.young.Load()
	}
	return allocated >= p.fullTarget.Load()
}

// Reconcile resynchronizes the occupancy estimate with the heap's true
// allocated bytes (summed from the per-shard counters by the caller).
// Implemented as a delta add so concurrent NoteAlloc contributions
// landing after the load are preserved rather than overwritten.
func (p *Pacer) Reconcile(allocated int64) {
	p.occupancy.Add(allocated - p.occupancy.Load())
}

// EndCycle retires one collection: the young bytes the cycle consumed
// are subtracted (bytes allocated while it ran are young for the next
// cycle), the occupancy estimate is reconciled, and after a full
// collection the adaptive target is recomputed. For a partial it
// reports whether the leftover — what the partial could not reclaim —
// has grown past the target, i.e. a full collection is now due: the
// "heap is almost full" trigger of §3.3 evaluated against the old
// generation only.
//
// The target is recomputed in the currency it is compared in. The
// generational modes trigger on allocated − young, so they retarget on
// it too: what the full collection left behind, not what the mutators
// allocated while it ran — else every mutator speed-up is baked into a
// target that never comes down. Without generations NoteAlloc compares
// total occupancy and the target follows it, sprint included: the
// paper's heap grows on demand and is never shrunk, so any episode in
// which allocation outruns collection raises the trigger permanently —
// the ratchet that lets the non-generational collector settle into a
// bloated heap while cheap partials keep the generational heap small
// (the footprints behind Figure 15).
func (p *Pacer) EndCycle(youngAtStart, allocated int64, full bool) (fullDue bool) {
	young := p.young.Add(-youngAtStart)
	p.Reconcile(allocated)
	if full {
		if p.generational {
			allocated -= young
		}
		p.Retarget(allocated)
		return false
	}
	return allocated-young >= p.fullTarget.Load()
}

// Retarget raises the full-collection target to occupied (in the mode's
// trigger currency) plus fullHeadroom, capped at the emergency bound.
// It never lowers the target, so the initial target is its floor.
func (p *Pacer) Retarget(occupied int64) {
	t := min(occupied+fullHeadroom, p.emergency)
	p.fullTarget.Store(max(t, p.fullTarget.Load()))
}

// OccupancyRatio returns the occupancy estimate as a fraction of the
// emergency full-collection bound (fullThreshold·heap): 1.0 means the
// next allocation trips the emergency trigger. The admission
// controller's red-line watermark is expressed in this unit; the
// estimate can overshoot between reconcile points (see the type
// comment), which errs in the right direction for a shed-before-OOM
// watermark.
func (p *Pacer) OccupancyRatio() float64 {
	if p.emergency <= 0 {
		return 0
	}
	return float64(p.occupancy.Load()) / float64(p.emergency)
}

// NoteSlip records one allocation-deadline miss: an AllocCtx whose
// context expired while waiting for a full collection, or an
// allocation that exhausted its retry budget (OOM give-up).
func (p *Pacer) NoteSlip() {
	p.lastSlip.Store(time.Now().UnixNano())
}

// SlipWithin reports whether an allocation deadline slipped within the
// last window — the admission controller's "deadlines are slipping
// right now" predicate.
func (p *Pacer) SlipWithin(window time.Duration) bool {
	last := p.lastSlip.Load()
	return last != 0 && time.Now().UnixNano()-last <= int64(window)
}
