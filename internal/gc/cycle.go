package gc

import (
	"time"

	"gengc/internal/heap"
	"gengc/internal/metrics"
)

// Cycle runs one complete collection cycle — the "collection cycle" of
// Figure 2 (simple promotion and non-generational) or Figure 5 (aging):
//
//	clear: if full collection, InitFullCollection; Handshake(sync1)
//	mark:  postHandshake(sync2); ClearCards and the color toggle
//	       (order per mode); waitHandshake; postHandshake(async);
//	       mark global roots; waitHandshake
//	trace: process gray objects to the fixpoint
//	sweep: reclaim clear-colored objects
//
// Cycles are serialized; mutators keep running throughout.
func (c *Collector) Cycle(full bool) {
	c.cycleMu.Lock()
	defer c.cycleMu.Unlock()
	if c.closed.Load() {
		// Nothing runs after Stop: a close-aborted cycle may have left
		// the heap mid-collection — grays on no stack, a full
		// collection's stale old code still set — which a later cycle
		// would misread (its trace could not reach past the grays, and
		// a second flip would make the unreached stale objects old).
		return
	}

	start := time.Now()
	youngAtStart := c.pacer.YoungAlloc()
	kind := metrics.Partial
	if full {
		kind = metrics.Full
	}
	c.cyc = metrics.Cycle{Kind: kind}
	c.H.Pages.Reset()
	allocBase := c.H.AllocStats()

	// --- clear ---
	if full {
		ifStart := time.Now()
		c.initFullCollection()
		c.cyc.InitFullTime = time.Since(ifStart)
	}
	c.tracing.Store(true)
	syncStart := time.Now()
	if !c.handshake(StatusSync1) {
		c.abortCycle(start, "sync1")
		return
	}
	c.cyc.Sync1Time = time.Since(syncStart)

	// --- mark ---
	sync2Start := time.Now()
	c.postHandshake(StatusSync2)
	switch c.cfg.Mode {
	case Generational:
		// Figure 2: ClearCards precedes the toggle, so the card
		// scan finishes before any yellow object can exist (§7.1).
		if !full {
			csStart := time.Now()
			c.clearCardsSimple()
			c.cyc.CardScanTime = time.Since(csStart)
		}
		c.switchColors()
	case GenerationalAging:
		// Figure 5: toggle first, then the card scan, which must
		// classify targets against the post-toggle colors. Full
		// collections skip the scan and keep the marks (§6).
		c.switchColors()
		if !full {
			csStart := time.Now()
			c.clearCardsAging()
			c.cyc.CardScanTime = time.Since(csStart)
		}
	default:
		c.switchColors()
	}
	if !c.waitHandshake() {
		c.abortCycle(start, "sync2")
		return
	}
	c.cyc.Sync2Time = time.Since(sync2Start)

	sync3Start := time.Now()
	c.postHandshake(StatusAsync)
	// Mark global roots: the globals object itself is the root; its
	// referents are reached when the trace scans it. It may already be
	// old: re-gray it so a partial collection scans its slots, since
	// stores to globals mark cards like any heap store but the globals
	// object must act as a first-class root.
	// rootedGlobals records whether *this* graying admitted the globals
	// object to the trace — if the card scan already re-grayed it, it
	// is inside the InterGenScanned counters instead — so the
	// trace-side promotion arithmetic below can exclude it.
	rootsBefore := len(c.gray)
	c.shade(c.globals, c.ClearColor(), c.stale(), heap.Gray)
	c.shade(c.globals, c.OldColor(), heap.NoColor, heap.Gray)
	rootedGlobals := len(c.gray) > rootsBefore
	if !c.waitHandshake() {
		c.abortCycle(start, "sync3")
		return
	}
	c.cyc.Sync3Time = time.Since(sync3Start)
	c.cyc.HandshakeTime = time.Since(syncStart)

	// --- trace ---
	c.cyc.CardScanPages = c.H.Pages.Count()
	traceStart := time.Now()
	if !c.trace() {
		c.abortCycle(start, "trace")
		return
	}
	c.cyc.TraceTime = time.Since(traceStart)

	// --- sweep ---
	c.cyc.TracePages = c.H.Pages.Count() - c.cyc.CardScanPages
	sweepStart := time.Now()
	c.sweep(full)
	c.H.ReclaimEmptyBlocks()
	c.cyc.SweepTime = time.Since(sweepStart)

	switch {
	case full:
		c.cyc.Survivors = c.cyc.ObjectsScanned
	case c.cfg.Mode.IsGenerational():
		// Promotion, counted from the trace side: a partial's trace
		// blackens only young objects plus the old ones the card scan
		// re-grayed, so the difference is the young survivors (the
		// trace accumulated each blackened object's size, the card
		// scan the re-grayed old volume). In the simple scheme every
		// one of them is promoted. In the aging scheme the sweep has
		// already counted and demoted those below the threshold; the
		// rest reached it and stayed black — the newly tenured cohort,
		// which the sweep cannot tell from one tenured cycles ago.
		// Either way the globals root is no promotion when it entered
		// the trace as a root rather than via a dirty card.
		promoted := c.cyc.ObjectsScanned - c.cyc.InterGenScanned
		promotedBytes := c.cyc.TraceBytes - c.cyc.InterGenBytes
		if c.cfg.Mode == Generational {
			c.cyc.Survivors = promoted
		} else {
			promoted -= c.cyc.Survivors
			promotedBytes -= c.cyc.SurvivorBytes
		}
		if rootedGlobals {
			promoted--
			promotedBytes -= c.H.SizeOf(c.globals)
		}
		c.cyc.PromotedObjects = max(promoted, 0)
		c.cyc.PromotedBytes = max(promotedBytes, 0)
		if c.cfg.Mode == GenerationalAging && promoted > 0 {
			// The tenure bucket closes the survival histogram: its
			// final populated index is the threshold age.
			oldest := int(c.oldestAge())
			for len(c.cyc.SurvivalByAge) <= oldest {
				c.cyc.SurvivalByAge = append(c.cyc.SurvivalByAge, 0)
			}
			c.cyc.SurvivalByAge[oldest] += int64(promoted)
		}
	}
	// Trim the sweep's fixed-size survival histogram down to its
	// populated prefix before the record is retained.
	c.cyc.SurvivalByAge = trimTrailingZeros(c.cyc.SurvivalByAge)

	c.cyc.Duration = time.Since(start)
	c.cyc.PagesTouched = c.H.Pages.Count()
	c.cyc.SweepPages = c.cyc.PagesTouched - c.cyc.CardScanPages - c.cyc.TracePages
	// Allocator activity while the cycle ran: the delta of the shard
	// counters over the cycle.
	allocNow := c.H.AllocStats()
	c.cyc.AllocRefills = allocNow.Refills - allocBase.Refills
	c.cyc.AllocContended = (allocNow.ShardContended + allocNow.PageContended) -
		(allocBase.ShardContended + allocBase.PageContended)
	rec := c.rec.Record(c.cyc)
	c.emitCycle(start, rec)
	c.flushTrace()
	// Retire the cycle with the pacer: consume the young bytes the
	// cycle covered (bytes allocated while it ran are young for the
	// *next* cycle), reconcile the occupancy estimate against the
	// heap's shard counters, and — after a partial — learn whether the
	// old generation the partial cannot reclaim has grown past the
	// target, making a full collection due.
	if c.pacer.EndCycle(youngAtStart, c.H.AllocatedBytes(), full) {
		c.request(true)
	}
	c.cyclesDone.Add(1)
	if full {
		c.fullsDone.Add(1)
	}
}

// trimTrailingZeros shrinks a histogram slice to its populated prefix;
// an all-zero slice becomes nil.
func trimTrailingZeros(v []int64) []int64 {
	n := len(v)
	for n > 0 && v[n-1] == 0 {
		n--
	}
	if n == 0 {
		return nil
	}
	return v[:n]
}

// abortCycle abandons a collection whose handshake was wedged past the
// close grace period (Stop). It never runs outside a close: the abort
// converges the protocol state — status back to async, trace predicate
// off — and skips the sweep entirely, so no object is freed on the
// strength of the incomplete trace. Objects left gray or unswept are
// floating garbage the closing runtime never needs back, and no later
// cycle runs to build on them (Cycle returns once the collector is
// closed).
func (c *Collector) abortCycle(start time.Time, phase string) {
	c.postHandshake(StatusAsync)
	c.tracing.Store(false)
	// The stack goes; its objects stay gray (no later cycle runs).
	c.gray = c.gray[:0]
	c.abortedCycles.Add(1)
	c.emit("cycleabort", start, phase, 0, 0)
	c.flushTrace()
	c.triggerDump("cycleabort")
}
