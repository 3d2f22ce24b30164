package gc

import (
	"time"

	"gengc/internal/metrics"
	"gengc/internal/trace"
)

// Observability: the emit helpers that feed the structured-event layer
// (trace package) and the pause-statistics snapshot API. All emit paths
// are nil-safe — a collector without a TraceSink pays one pointer
// comparison per call site.

// emit appends a span event to the collector goroutine's ring. It must
// be called from the collector goroutine (ack rounds, trace drains,
// cycle aborts).
func (c *Collector) emit(ev string, start time.Time, detail string, n, m int64) {
	if c.tracer == nil {
		return
	}
	c.ring.Emit(trace.Event{
		Ev:    ev,
		T:     c.tracer.Rel(start),
		D:     time.Since(start).Nanoseconds(),
		Cycle: c.cyclesDone.Load() + 1,
		K:     detail,
		N:     n,
		M:     m,
	})
}

// emitCycle appends the "cycle" event carrying the finished cycle's
// numbered record. The record is copied only when a tracer is attached,
// so an untraced collector allocates nothing here.
func (c *Collector) emitCycle(start time.Time, rec metrics.Cycle) {
	if c.tracer == nil {
		return
	}
	r := rec
	c.ring.Emit(trace.Event{
		Ev:    "cycle",
		T:     c.tracer.Rel(start),
		D:     r.Duration.Nanoseconds(),
		Cycle: int64(r.Seq),
		K:     r.Kind.String(),
		Rec:   &r,
	})
}

// flushTrace drains every producer ring into the sink; called at the
// end of each cycle so traces stream out while the run progresses.
func (c *Collector) flushTrace() {
	if c.tracer != nil {
		c.tracer.Flush()
	}
}

// PauseStats reports per-mutator pause statistics for every currently
// attached mutator, plus the fleet-wide aggregate (Mutator == -1) which
// also folds in the histograms of mutators that have detached. Pauses
// are the mutator-visible delays of the on-the-fly protocol: handshake
// responses (including root marking at the sync2→async transition),
// acknowledgement-round responses, and allocation stalls waiting for a
// full collection. Safe to call at any time, including while mutators
// run.
func (c *Collector) PauseStats() (fleet metrics.PauseStats, perMutator []metrics.PauseStats) {
	agg := c.PauseHistogram()
	c.muts.Lock()
	snapshot := append([]*Mutator(nil), c.muts.list...)
	c.muts.Unlock()
	for _, m := range snapshot {
		perMutator = append(perMutator, m.pauses.Stats(m.id))
	}
	fleet = agg.Stats(-1)
	return fleet, perMutator
}

// PauseHistogram returns a freshly merged fleet-wide pause histogram:
// the retired (detached-mutator) history plus every attached mutator's
// live histogram. The caller owns the returned copy; the Prometheus
// exposition renders its buckets directly.
func (c *Collector) PauseHistogram() *metrics.Histogram {
	agg := &metrics.Histogram{}
	c.retired.MergeInto(agg)
	c.muts.Lock()
	snapshot := append([]*Mutator(nil), c.muts.list...)
	c.muts.Unlock()
	for _, m := range snapshot {
		m.pauses.MergeInto(agg)
	}
	return agg
}
