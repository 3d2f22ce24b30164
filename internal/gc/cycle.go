package gc

import (
	"fmt"
	"strings"
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
		c.emit("initfull", ifStart, "", 0, 0)
	}
	c.tracing.Store(true)
	syncStart := time.Now()
	if !c.handshake(StatusSync1) {
		c.abortCycle(start, "sync1")
		return
	}
	c.cyc.Sync1Time = time.Since(syncStart)
	c.emit("sync", syncStart, "sync1", 0, 0)

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
			c.emit("cardscan", csStart, "",
				int64(c.cyc.DirtyCards), int64(c.cyc.AllocatedCards))
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
			c.emit("cardscan", csStart, "",
				int64(c.cyc.DirtyCards), int64(c.cyc.AllocatedCards))
		}
	default:
		c.switchColors()
	}
	if !c.waitHandshake() {
		c.abortCycle(start, "sync2")
		return
	}
	c.cyc.Sync2Time = time.Since(sync2Start)
	c.emit("sync", sync2Start, "sync2", 0, 0)

	sync3Start := time.Now()
	c.postHandshake(StatusAsync)
	// Mark global roots: the globals object itself is the root; its
	// referents are reached when the trace scans it. It may already be
	// black (it is old): re-gray it so a partial collection scans its
	// slots, since stores to globals mark cards like any heap store
	// but the globals object must act as a first-class root.
	// rootedGlobals records whether *this* graying admitted the globals
	// object to the trace — if the card scan already re-grayed it, it
	// is inside the InterGenScanned counters instead — so the simple
	// scheme's trace-side promotion arithmetic below can exclude it.
	rootsBefore := len(c.gray)
	c.shade(c.globals, c.ClearColor())
	c.shade(c.globals, heap.Black)
	rootedGlobals := len(c.gray) > rootsBefore
	if !c.waitHandshake() {
		c.abortCycle(start, "sync3")
		return
	}
	c.cyc.Sync3Time = time.Since(sync3Start)
	c.emit("sync", sync3Start, "sync3", 0, 0)
	c.cyc.HandshakeTime = time.Since(syncStart)

	// --- trace ---
	traceStart := time.Now()
	if !c.trace() {
		c.abortCycle(start, "trace")
		return
	}
	c.cyc.TraceTime = time.Since(traceStart)
	c.emit("trace", traceStart, "", int64(c.cyc.ObjectsScanned), 0)

	// --- sweep ---
	sweepStart := time.Now()
	c.sweep(full)
	c.H.ReclaimEmptyBlocks()
	c.cyc.SweepTime = time.Since(sweepStart)
	c.emit("sweep", sweepStart, "", int64(c.cyc.ObjectsFreed), 0)

	switch {
	case full:
		c.cyc.Survivors = c.cyc.ObjectsScanned
	case c.cfg.Mode == Generational:
		// Young survivors: everything blackened except the old
		// objects re-grayed by the card scan. In the simple scheme
		// every one of them is promoted, so the same arithmetic —
		// minus the globals root when it entered the trace as a root
		// rather than via a dirty card — yields the promotion counts;
		// byte-side, the trace accumulated each blackened object's
		// size, and the card scan the re-grayed old volume.
		c.cyc.Survivors = c.cyc.ObjectsScanned - c.cyc.InterGenScanned
		promoted := c.cyc.Survivors
		promotedBytes := c.cyc.TraceBytes - c.cyc.InterGenBytes
		if rootedGlobals {
			promoted--
			promotedBytes -= c.H.SizeOf(c.globals)
		}
		if promoted < 0 {
			promoted = 0
		}
		if promotedBytes < 0 {
			promotedBytes = 0
		}
		c.cyc.PromotedObjects = promoted
		c.cyc.PromotedBytes = promotedBytes
	case c.cfg.Mode == GenerationalAging:
		// Aging: the sweep already counted (and demoted) the young
		// survivors below the threshold. Everything else the trace
		// blackened — minus the re-grayed old objects and the globals
		// root — reached the threshold and stayed black: the newly
		// tenured cohort. The sweep itself cannot count it (a freshly
		// tenured object is indistinguishable from one tenured cycles
		// ago), but the trace only ever blackens young objects in a
		// partial, so the subtraction is exact.
		promoted := c.cyc.ObjectsScanned - c.cyc.InterGenScanned - c.cyc.Survivors
		promotedBytes := c.cyc.TraceBytes - c.cyc.InterGenBytes - c.cyc.SurvivorBytes
		if rootedGlobals {
			promoted--
			promotedBytes -= c.H.SizeOf(c.globals)
		}
		if promoted < 0 {
			promoted = 0
		}
		if promotedBytes < 0 {
			promotedBytes = 0
		}
		c.cyc.PromotedObjects = promoted
		c.cyc.PromotedBytes = promotedBytes
		if promoted > 0 {
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
	// Allocator activity while the cycle ran: the delta of the shard
	// counters over the cycle, recorded per cycle and emitted as an
	// "allocstats" point event.
	allocNow := c.H.AllocStats()
	c.cyc.AllocRefills = allocNow.Refills - allocBase.Refills
	c.cyc.AllocContended = (allocNow.ShardContended + allocNow.PageContended) -
		(allocBase.ShardContended + allocBase.PageContended)
	c.emit("allocstats", start, "", c.cyc.AllocRefills, c.cyc.AllocContended)
	if !full && c.cfg.Mode.IsGenerational() {
		c.emit("demographics", start, survivalKey(c.cyc.SurvivalByAge),
			int64(c.cyc.PromotedObjects), int64(c.cyc.PromotedBytes))
	}
	c.emit("cycle", start, kind.String(),
		int64(c.cyc.ObjectsScanned), int64(c.cyc.ObjectsFreed))
	c.flushTrace()
	c.demo.Lock()
	c.demo.AddCycle(c.cyc)
	c.demo.Unlock()
	if !full && c.cfg.Mode.IsGenerational() {
		c.pacer.NotePromotion(c.cyc.PromotedBytes, int(youngAtStart))
	}
	c.rec.Record(c.cyc)
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

// survivalKey renders a survival histogram as "age:count,..." pairs for
// the demographics trace event's K field, skipping empty buckets.
func survivalKey(v []int64) string {
	if len(v) == 0 {
		return ""
	}
	var b strings.Builder
	for age, n := range v {
		if n == 0 {
			continue
		}
		if b.Len() > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d:%d", age, n)
	}
	return b.String()
}

// abortCycle abandons a collection whose handshake was wedged past the
// close grace period (Stop). It never runs outside a close: the abort
// converges the protocol state — status back to async, trace predicate
// off — and skips the sweep entirely, so no object is freed on the
// strength of the incomplete trace. Objects left gray or unswept are
// floating garbage the closing runtime never needs back.
func (c *Collector) abortCycle(start time.Time, phase string) {
	c.postHandshake(StatusAsync)
	c.tracing.Store(false)
	// An aborted trace leaves its grays queued.
	c.gray = c.gray[:0]
	c.abortedCycles.Add(1)
	c.emit("cycleabort", start, phase, 0, 0)
	c.flushTrace()
	c.triggerDump("cycleabort")
}
