package gc

import (
	"time"

	"gengc/internal/fault"
)

// The scheduler seam. Every coordination point of the protocol —
// handshake post/ack, safe-point cooperation, trace drain, card scans,
// block-walk chunks — funnels through the three helpers below, which
// route each hit to the virtual scheduler (NewScheduled) when one is
// armed, else to the chaos injector (Config.Fault) when one is armed,
// else do nothing. Production holds nil for both, so a seam hit costs
// two pointer comparisons; the per-object hot loops additionally hoist
// the armed check out of the loop (seamArmed).

// Named timing constants of the real scheduler's waits. WaitTick is
// exported because the virtual scheduler's time model
// (internal/modelcheck) charges each blocked-wait resume one tick.
const (
	// WaitTick bounds how long a parked collector sleeps between
	// checks of its wait predicate (waitAll) and how often
	// Mutator.Collect re-cooperates while its cycle runs. A mutator's
	// response wakes the parked collector at once, so the tick is what
	// a lost wake costs, and how stale the collector's view of a
	// mutator that answers without waking it can get. Go fires the
	// timer only when some P schedules: with every P running a
	// compute-bound mutator, only the answers end the wait.
	WaitTick = 100 * time.Microsecond

	// AllocWaitSleepBase is the poll interval of a mutator waiting for
	// a full collection after an allocation failure, doubling per
	// failed round (each failure means the last collection freed too
	// little, so hammering the next one helps nobody). Alloc gives up
	// after allocRetries (3) rounds, so the wait polls at 50, 100 or
	// 200 µs — far below the stall deadline, so the waiting mutator
	// keeps answering handshakes promptly.
	AllocWaitSleepBase = 50 * time.Microsecond
)

// seamArmed reports whether any seam consumer is installed. Hot loops
// (scan, the card scan) hoist this so the per-object cost of the
// seam is zero in production.
func (c *Collector) seamArmed() bool { return c.vsched != nil || c.flt != nil }

// seamStep announces one schedulable step and returns the merged
// decision: under a virtual scheduler the caller parks until resumed,
// under the chaos injector the point's rules are evaluated (and any
// delay slept). Call sites that cannot honor Drop/Fail use seamDelay.
func (c *Collector) seamStep(p fault.Point) (drop, fail bool) {
	if vs := c.vsched; vs != nil {
		d := vs.Step(p)
		return d.Drop, d.Fail
	}
	if in := c.flt; in != nil {
		return in.Inject(p)
	}
	return false, false
}

// seamDelay is seamStep for delay-only points: the step still parks
// under a virtual scheduler (that is the yield), but Drop/Fail
// decisions are ignored because the operation must happen.
func (c *Collector) seamDelay(p fault.Point) {
	if vs := c.vsched; vs != nil {
		vs.Step(p)
		return
	}
	if in := c.flt; in != nil {
		in.Inject(p)
	}
}

// seamWait diverts a collector wait loop to the virtual scheduler.
// handled reports whether a scheduler took the wait over; when it did,
// ok carries the verdict — false means the scheduler is abandoning the
// run and the caller must take its close-abort path, exactly as if the
// real scheduler's watchdog had fired at close.
func (c *Collector) seamWait(p fault.Point, ready func() bool) (handled, ok bool) {
	vs := c.vsched
	if vs == nil {
		return false, false
	}
	for !ready() {
		if !vs.Wait(p, ready) {
			return true, false
		}
	}
	return true, true
}
