package main

import (
	"gengc"
)

// metricDef names one metric. BENCHMARK.json lists the same names,
// units, directions and bounds; TestBenchmarkJSONMatches keeps the two
// in step.
type metricDef struct {
	name   string
	unit   string
	better string  // "higher" or "lower"
	bound  float64 // end-to-end only: the share of the parent's median a change may lose
}

// endToEndDefs are what a user of the collector sees, the same six on
// every workload. failed_frac, which ISSUE 12 lists here, is reported
// as success_frac = 1 − failed_frac: a gated metric may never read 0,
// and failed_frac is 0 wherever nothing is refused. failed_frac itself
// is printed with the layer metrics. So is latency_p99_us, ISSUE 12's
// seventh: between ten-run sets of the same code its middle half spread
// over 14–28 % of its median on young_churn and collect_quiescent, past
// any bound the contract allows, and ISSUE 12 asks for such a metric to
// be printed, not gated.
//
// Every bound is the contract's maximum, a quarter. The reference host
// does not support less: its speed shifts by 10–45 % for minutes at a
// time, and even with the times corrected for it (hostprobe.go) ten runs
// of the same binary spread over 5–21 % of their median through a slow
// spell (README.md, "Noise"). A smaller effect is resolved by paired
// runs, not by these bounds.
var endToEndDefs = []metricDef{
	{"throughput_ops_s", "ops/s", "higher", 0.25},
	{"cpu_ns_per_op", "ns", "lower", 0.25},
	{"latency_p50_us", "us", "lower", 0.25},
	{"heap_peak_mb", "MiB", "lower", 0.25},
	{"success_frac", "ratio", "higher", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// perLayerDefs are the layer metrics, grouped by the module they
// measure. README.md says which end-to-end metric each should move, on
// which workload.
var perLayerDefs = []metricDef{
	{name: "heap.alloc.calls", unit: "count", better: "lower"},
	{name: "heap.alloc.ns_p50", unit: "ns", better: "lower"},
	{name: "heap.alloc.ns_p99", unit: "ns", better: "lower"},
	{name: "heap.alloc.time_frac", unit: "ratio", better: "lower"},
	{name: "heap.alloc.slow_frac", unit: "ratio", better: "lower"},
	{name: "heap.alloc.refills_per_kalloc", unit: "count", better: "lower"},
	{name: "heap.alloc.lock_contended_per_kalloc", unit: "count", better: "lower"},
	{name: "heap.read.ns_p50", unit: "ns", better: "lower"},
	{name: "heap.read.time_frac", unit: "ratio", better: "lower"},
	{name: "heap.occupancy_mean_mb", unit: "MiB", better: "lower"},

	{name: "gc.barrier.write.calls", unit: "count", better: "lower"},
	{name: "gc.barrier.write.ns_p50", unit: "ns", better: "lower"},
	{name: "gc.barrier.write.ns_p99", unit: "ns", better: "lower"},
	{name: "gc.barrier.write.time_frac", unit: "ratio", better: "lower"},
	{name: "gc.barrier.write_batch.ns_per_slot", unit: "ns", better: "lower"},

	{name: "card.dirty_frac", unit: "ratio", better: "lower"},
	{name: "card.dirty_per_kstore", unit: "count", better: "lower"},

	{name: "gc.cards.scan_ms_per_cycle", unit: "ms", better: "lower"},
	{name: "gc.cards.ns_per_card", unit: "ns", better: "lower"},
	{name: "gc.cards.intergen_objects_per_cycle", unit: "count", better: "lower"},
	{name: "gc.cards.area_kb_per_cycle", unit: "KiB", better: "lower"},
	{name: "gc.cards.time_frac", unit: "ratio", better: "lower"},

	{name: "gc.handshake.safepoint.calls", unit: "count", better: "lower"},
	{name: "gc.handshake.safepoint.ns_p50", unit: "ns", better: "lower"},
	{name: "gc.handshake.safepoint.ns_p99", unit: "ns", better: "lower"},
	{name: "gc.handshake.safepoint.time_frac", unit: "ratio", better: "lower"},
	{name: "gc.handshake.pause_p50_us", unit: "us", better: "lower"},
	{name: "gc.handshake.pause_p99_us", unit: "us", better: "lower"},
	{name: "gc.handshake.pause_max_us", unit: "us", better: "lower"},
	{name: "gc.handshake.sync_ms_per_cycle", unit: "ms", better: "lower"},
	{name: "gc.handshake.ack_rounds_per_cycle", unit: "count", better: "lower"},

	{name: "gc.trace.ms_per_cycle.partial", unit: "ms", better: "lower"},
	{name: "gc.trace.ms_per_cycle.full", unit: "ms", better: "lower"},
	{name: "gc.trace.ns_per_object", unit: "ns", better: "lower"},
	{name: "gc.trace.objects_per_kop", unit: "count", better: "lower"},
	{name: "gc.trace.slots_per_kop", unit: "count", better: "lower"},
	{name: "gc.trace.time_frac", unit: "ratio", better: "lower"},

	{name: "gc.sweep.ms_per_cycle.partial", unit: "ms", better: "lower"},
	{name: "gc.sweep.ms_per_cycle.full", unit: "ms", better: "lower"},
	{name: "gc.sweep.ns_per_object", unit: "ns", better: "lower"},
	{name: "gc.sweep.freed_objects_per_kop", unit: "count", better: "higher"},
	{name: "gc.sweep.yield_frac", unit: "ratio", better: "higher"},
	{name: "gc.sweep.time_frac", unit: "ratio", better: "lower"},

	{name: "gc.pacer.partials_per_mop", unit: "count", better: "lower"},
	{name: "gc.pacer.fulls_per_mop", unit: "count", better: "lower"},
	{name: "gc.pacer.cycle_ms_mean", unit: "ms", better: "lower"},
	{name: "gc.pacer.active_frac", unit: "ratio", better: "lower"},
	{name: "gc.pacer.promoted_kb_per_mop", unit: "KiB", better: "lower"},

	{name: "gc.collect.partial_ms_p50", unit: "ms", better: "lower"},
	{name: "gc.collect.full_ms_p50", unit: "ms", better: "lower"},
	{name: "gc.collect.self_ms_per_cycle", unit: "ms", better: "lower"},

	{name: "gc.admission.admit_wait_p50_us", unit: "us", better: "lower"},
	{name: "gc.admission.admit_wait_p99_us", unit: "us", better: "lower"},
	{name: "gc.admission.shed_queue_full_frac", unit: "ratio", better: "lower"},
	{name: "gc.admission.shed_timeout_frac", unit: "ratio", better: "lower"},
	{name: "gc.admission.shed_degraded_frac", unit: "ratio", better: "lower"},
	{name: "gc.admission.degraded_enters", unit: "count", better: "lower"},

	{name: "server.completed_rps", unit: "1/s", better: "higher"},
	{name: "server.slo_breach_frac", unit: "ratio", better: "lower"},
	{name: "server.wasted_work_frac", unit: "ratio", better: "lower"},
	{name: "server.retries_per_kreq", unit: "count", better: "lower"},
	{name: "server.failed_stalled", unit: "count", better: "lower"},
	{name: "server.failed_oom", unit: "count", better: "lower"},
	{name: "server.req_p50_us", unit: "us", better: "lower"},
	{name: "server.req_p99_us", unit: "us", better: "lower"},
	{name: "server.req_p999_us", unit: "us", better: "lower"},
	{name: "server.steady.shed_frac", unit: "ratio", better: "lower"},
	{name: "server.steady.goodput_rps", unit: "1/s", better: "higher"},
	{name: "server.steady.req_p99_us", unit: "us", better: "lower"},

	{name: "workload.gen_late_p99_us", unit: "us", better: "lower"},
	{name: "workload.gen_late_max_us", unit: "us", better: "lower"},
	{name: "workload.trace_overhead_frac", unit: "ratio", better: "lower"},
	hostSlowdownDef,
	{name: "failed_frac", unit: "ratio", better: "lower"},
	latencyP99Def,
}

// Two layer metrics are printed with the end-to-end ones when no layer
// table follows. latency_p99_us is an end-to-end number itself, the tail
// of the samples whose median is latency_p50_us. workload.host_slowdown
// is what the end-to-end times were divided by (hostprobe.go): times it,
// they are the times this host's clock showed.
var (
	latencyP99Def   = metricDef{name: "latency_p99_us", unit: "us", better: "lower"}
	hostSlowdownDef = metricDef{name: "workload.host_slowdown", unit: "ratio", better: "lower"}
)

const mib = 1 << 20

// endToEnd computes the end-to-end metrics of one repetition. The times
// among them are in the reference host's time: what was measured,
// divided by how much slower than nominal the host ran meanwhile.
func (r *rep) endToEnd() map[string]float64 {
	h := r.hostSlowdown
	return map[string]float64{
		"throughput_ops_s": ratio(float64(r.completed), float64(r.wallNs)/1e9) * h,
		"cpu_ns_per_op":    ratio(float64(r.cpuNs), float64(r.completed)) / h,
		"latency_p50_us":   median(r.latUs) / h,
		"heap_peak_mb":     float64(r.heapPeak) / mib,
		"success_frac":     ratio(float64(r.completed), float64(r.attempted)),
		"setup_s":          float64(r.setupNs) / 1e9 / h,
	}
}

// spanLayers computes the layer metrics that come from spans, so from a
// traced repetition. Their time_frac is a share of the traced wall: the
// clock reads slow every mutator-side call alike. untracedWallNs is the
// median timed wall of the untraced repetitions of the same workload in
// the reference host's time, the base of workload.trace_overhead_frac.
func (r *rep) spanLayers(untracedWallNs float64) map[string]float64 {
	m := map[string]float64{}
	wall := float64(r.wallNs)
	if tr := r.tr; tr != nil {
		calls := func(prefix string, k spanKind) {
			a := &tr.aggs[k]
			m[prefix+".calls"] = float64(a.count)
			m[prefix+".ns_p50"] = a.hist.quantile(0.5)
			m[prefix+".ns_p99"] = a.hist.quantile(0.99)
			m[prefix+".time_frac"] = ratio(float64(a.selfNs), wall)
		}
		calls("heap.alloc", spAlloc)
		calls("gc.barrier.write", spWrite)
		calls("gc.handshake.safepoint", spSafepoint)
		m["heap.alloc.slow_frac"] = tr.aggs[spAlloc].hist.fracAtLeast(2000)
		m["heap.read.ns_p50"] = tr.aggs[spRead].hist.quantile(0.5)
		m["heap.read.time_frac"] = ratio(float64(tr.aggs[spRead].selfNs), wall)
		// One chain slot per WriteBatch call: buildBase is its only caller.
		wb := &tr.aggs[spWriteBatch]
		m["gc.barrier.write_batch.ns_per_slot"] = ratio(float64(wb.totalNs), float64(wb.count))
		m["gc.collect.self_ms_per_cycle"] = ratio(float64(tr.aggs[spCollect].selfNs), float64(tr.aggs[spCollect].count)) / 1e6
		m["gc.admission.admit_wait_p50_us"] = tr.aggs[spSubmit].hist.quantile(0.5) / 1e3
		m["gc.admission.admit_wait_p99_us"] = tr.aggs[spSubmit].hist.quantile(0.99) / 1e3
		m["workload.trace_overhead_frac"] = ratio(wall/r.hostSlowdown-untracedWallNs, untracedWallNs)
	}
	return m
}

// apiLayers computes the layer metrics that come from values the public
// API returns: collection records, snapshots, server counters. They
// need no spans, so they are reported from the untraced repetitions,
// where the mutator runs at full speed against the collector.
func (r *rep) apiLayers() map[string]float64 {
	m := map[string]float64{}
	wall := float64(r.wallNs)
	ops := float64(r.completed)
	kops, mops := ops/1e3, ops/1e6

	kallocs := float64(r.allocs) / 1e3
	m["heap.alloc.refills_per_kalloc"] = ratio(float64(r.end.Alloc.Refills-r.before.Alloc.Refills), kallocs)
	m["heap.alloc.lock_contended_per_kalloc"] = ratio(float64(r.end.Alloc.Contended()-r.before.Alloc.Contended()), kallocs)
	m["heap.occupancy_mean_mb"] = ratio(r.heapSum, float64(r.heapSamples)) / mib

	// Sums over the collections of the timed section, by kind.
	type sums struct {
		n, trace, sweep, sync2, sync13, dur                    float64
		objects, slots, freed, survivors, ackRounds, promotedB float64
		dirty, allocated, cardsScanned, interGen, area         float64
	}
	var part, full, all sums
	add := func(s *sums, c gengc.CycleRecord) {
		s.n++
		s.trace += float64(c.TraceTime)
		s.sweep += float64(c.SweepTime)
		s.sync2 += float64(c.Sync2Time)
		s.sync13 += float64(c.Sync1Time + c.Sync3Time)
		s.dur += float64(c.Duration)
		s.objects += float64(c.ObjectsScanned)
		s.slots += float64(c.SlotsScanned)
		s.freed += float64(c.ObjectsFreed)
		s.survivors += float64(c.Survivors)
		s.ackRounds += float64(c.AckRounds)
		s.promotedB += float64(c.PromotedBytes)
		s.dirty += float64(c.DirtyCards)
		s.allocated += float64(c.AllocatedCards)
		s.cardsScanned += float64(c.CardsScanned)
		s.interGen += float64(c.InterGenScanned)
		s.area += float64(c.AreaScanned)
	}
	for _, c := range r.cycles {
		add(&all, c.rec)
		if c.rec.Kind.String() == "partial" {
			add(&part, c.rec)
		} else {
			add(&full, c.rec)
		}
	}

	// The card scan runs inside the second handshake of a partial
	// collection; Sync2Time is the public number that contains it.
	m["card.dirty_frac"] = ratio(part.dirty, part.allocated)
	m["card.dirty_per_kstore"] = ratio(part.dirty, float64(r.stores)/1e3)
	m["gc.cards.scan_ms_per_cycle"] = ratio(part.sync2, part.n) / 1e6
	m["gc.cards.ns_per_card"] = ratio(part.sync2, part.cardsScanned)
	m["gc.cards.intergen_objects_per_cycle"] = ratio(part.interGen, part.n)
	m["gc.cards.area_kb_per_cycle"] = ratio(part.area, part.n) / 1024
	m["gc.cards.time_frac"] = ratio(part.sync2, wall)

	m["gc.handshake.pause_p50_us"] = float64(r.end.Fleet.P50) / 1e3
	m["gc.handshake.pause_p99_us"] = float64(r.end.Fleet.P99) / 1e3
	m["gc.handshake.pause_max_us"] = float64(r.end.Fleet.Max) / 1e3
	m["gc.handshake.sync_ms_per_cycle"] = ratio(all.sync13, all.n) / 1e6
	m["gc.handshake.ack_rounds_per_cycle"] = ratio(all.ackRounds, all.n)

	m["gc.trace.ms_per_cycle.partial"] = ratio(part.trace, part.n) / 1e6
	m["gc.trace.ms_per_cycle.full"] = ratio(full.trace, full.n) / 1e6
	m["gc.trace.ns_per_object"] = ratio(all.trace, all.objects)
	m["gc.trace.objects_per_kop"] = ratio(all.objects, kops)
	m["gc.trace.slots_per_kop"] = ratio(all.slots, kops)
	m["gc.trace.time_frac"] = ratio(all.trace, wall)

	m["gc.sweep.ms_per_cycle.partial"] = ratio(part.sweep, part.n) / 1e6
	m["gc.sweep.ms_per_cycle.full"] = ratio(full.sweep, full.n) / 1e6
	m["gc.sweep.ns_per_object"] = ratio(all.sweep, all.freed+all.survivors)
	m["gc.sweep.freed_objects_per_kop"] = ratio(all.freed, kops)
	m["gc.sweep.yield_frac"] = ratio(all.freed, all.freed+all.survivors)
	m["gc.sweep.time_frac"] = ratio(all.sweep, wall)

	m["gc.pacer.partials_per_mop"] = ratio(part.n, mops)
	m["gc.pacer.fulls_per_mop"] = ratio(full.n, mops)
	m["gc.pacer.cycle_ms_mean"] = ratio(all.dur, all.n) / 1e6
	m["gc.pacer.active_frac"] = ratio(all.dur, wall)
	m["gc.pacer.promoted_kb_per_mop"] = ratio(part.promotedB/1024, mops)

	m["gc.collect.partial_ms_p50"] = median(r.partialMs)
	m["gc.collect.full_ms_p50"] = median(r.fullMs)

	if leg := r.overload; leg != nil {
		offered := float64(leg.offered)
		adm := leg.snap.Admission
		m["gc.admission.shed_queue_full_frac"] = ratio(float64(adm.ShedQueueFull), offered)
		m["gc.admission.shed_timeout_frac"] = ratio(float64(adm.ShedTimeout), offered)
		m["gc.admission.shed_degraded_frac"] = ratio(float64(adm.ShedDegraded), offered)
		m["gc.admission.degraded_enters"] = float64(adm.DegradedEnters)
		m["server.completed_rps"] = ratio(float64(leg.srv.Completed), leg.seconds)
		m["server.slo_breach_frac"] = ratio(float64(leg.snap.RequestSLOBreaches), float64(leg.srv.Completed))
		m["server.wasted_work_frac"] = ratio(float64(adm.Admitted-leg.good), float64(adm.Admitted))
		m["server.retries_per_kreq"] = ratio(float64(leg.srv.Retries), offered/1e3)
		m["server.failed_stalled"] = float64(leg.srv.FailedStalled)
		m["server.failed_oom"] = float64(leg.srv.FailedOOM)
		m["server.req_p50_us"] = float64(leg.snap.RequestLatency.P50) / 1e3
		m["server.req_p99_us"] = float64(leg.snap.RequestLatency.P99) / 1e3
		m["server.req_p999_us"] = float64(leg.snap.RequestLatency.P999) / 1e3
		late := sortedCopy(r.lateUs)
		m["workload.gen_late_p99_us"] = quantile(late, 0.99)
		m["workload.gen_late_max_us"] = quantile(late, 1)
	}
	if leg := r.steady; leg != nil {
		m["server.steady.shed_frac"] = ratio(float64(leg.srv.Shed), float64(leg.offered))
		m["server.steady.goodput_rps"] = ratio(float64(leg.good), leg.seconds)
		m["server.steady.req_p99_us"] = float64(leg.snap.RequestLatency.P99) / 1e3
	}

	m["failed_frac"] = ratio(float64(r.failed+r.refused), float64(r.attempted))
	// The user-visible form of "mutators are never stopped", too noisy on
	// a shared host to gate. A repetition's own p99 (of 164 000 batches,
	// 576 collections or about 400 windows), so one slow repetition
	// cannot supply the whole tail.
	m[latencyP99Def.name] = quantile(sortedCopy(r.latUs), 0.99) / r.hostSlowdown
	m[hostSlowdownDef.name] = r.hostSlowdown
	return m
}
