package gengc

import (
	"fmt"
	"net/http"
	"strings"
	"time"

	"gengc/internal/heap"
	"gengc/internal/metrics"
)

// Prometheus text exposition (version 0.0.4) for the runtime's
// observability surface. MetricsHandler renders the same facts as
// Snapshot — collection counters, heap occupancy, allocator counters,
// the heap demographics, and the fleet pause histogram — as
// scrapeable metrics, so a runtime embedded in a service plugs into an
// existing Prometheus/Grafana stack without bespoke glue. cmd/gcmon
// mounts this handler on /metrics.

// pauseBucketBounds are the gengc_pause_seconds bucket upper bounds in
// nanoseconds: half-decade steps from 1µs to 1s. The internal log-linear
// histogram is far finer (~6% relative error); CumulativeLE collapses it
// onto these fixed edges so the exposition stays a readable size and
// every scrape sees identical bucket boundaries.
var pauseBucketBounds = []int64{
	1_000, 5_000, // 1µs, 5µs
	10_000, 50_000, // 10µs, 50µs
	100_000, 500_000, // 100µs, 500µs
	1_000_000, 5_000_000, // 1ms, 5ms
	10_000_000, 50_000_000, // 10ms, 50ms
	100_000_000, 500_000_000, // 100ms, 500ms
	1_000_000_000, // 1s
}

// MetricsHandler returns an http.Handler serving the runtime's metrics
// in the Prometheus text format. Every scrape takes fresh snapshots (the
// counters are atomics; the demographics a short mutex hold), so the
// handler is safe to serve while mutators allocate and cycles run.
func (r *Runtime) MetricsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		var b strings.Builder
		r.writeMetrics(&b)
		_, _ = w.Write([]byte(b.String()))
	})
}

// writeMetrics renders the full exposition into b.
func (r *Runtime) writeMetrics(b *strings.Builder) {
	s := r.Snapshot()

	writeInfo(b, r.c.RunMeta())

	counter(b, "gengc_cycles_total", "Completed collection cycles (partial and full).", s.Cycles)
	counter(b, "gengc_full_cycles_total", "Completed full (whole-heap) collections.", s.Fulls)
	gauge(b, "gengc_heap_bytes", "Currently allocated heap bytes (live plus floating garbage).", s.HeapBytes)
	gauge(b, "gengc_heap_objects", "Currently allocated heap objects (live plus floating garbage).", s.HeapObjects)
	counter(b, "gengc_stalls_total", "Handshake watchdog stall reports.", s.Stalls)
	counter(b, "gengc_aborted_cycles_total", "Collection cycles abandoned mid-protocol.", s.AbortedCycles)
	counter(b, "gengc_trace_drops_total", "Trace events dropped by saturated rings.", s.TraceDrops)
	gauge(b, "gengc_trace_degraded", "1 when the tracer has entered degraded mode.", boolGauge(s.TraceDegraded))

	d := s.Demographics
	counter(b, "gengc_promoted_objects_total", "Objects promoted into the old generation.", d.PromotedObjects)
	counter(b, "gengc_promoted_bytes_total", "Bytes promoted into the old generation.", d.PromotedBytes)
	counter(b, "gengc_survived_objects_total", "Young objects surviving a partial collection (aging objects count once per survival).", d.SurvivedObjects)
	counter(b, "gengc_trace_bytes_total", "Bytes blackened by all traces.", d.TraceBytes)
	counter(b, "gengc_intergen_scanned_total", "Old objects re-scanned for old-to-young pointers.", d.InterGenScanned)
	counter(b, "gengc_intergen_bytes_total", "Byte volume of inter-generational re-scans.", d.InterGenBytes)
	counter(b, "gengc_dirty_cards_total", "Cards found dirty at card-scan time.", d.DirtyCards)
	counter(b, "gengc_cards_scanned_total", "Cards examined by card scans.", d.CardsScanned)
	counter(b, "gengc_area_scanned_bytes_total", "Heap bytes examined while scanning dirty cards.", d.AreaScanned)
	gaugeF(b, "gengc_promotion_rate", "Smoothed promoted-bytes-per-young-byte estimate (EWMA).", s.PromotionRate)
	gauge(b, "gengc_pacer_full_target_bytes", "Pacer full-collection target: occupancy left by the last full collection plus headroom; never decreases.", s.FullTargetBytes)

	if len(d.DeathsByClass) > 0 {
		help(b, "gengc_deaths_total", "Objects swept dead, by allocator size class in bytes (class=\"large\" for whole-block objects).", "counter")
		for i, n := range d.DeathsByClass {
			if n == 0 {
				continue
			}
			label := "large"
			if i < heap.NumClasses {
				label = fmt.Sprintf("%d", heap.ClassSize(i))
			}
			fmt.Fprintf(b, "gengc_deaths_total{class=%q} %d\n", label, n)
		}
	}
	if len(d.SurvivalByAge) > 0 {
		help(b, "gengc_survival_total", "Aging-mode survivals by object age at the time of survival.", "counter")
		for age, n := range d.SurvivalByAge {
			if n == 0 {
				continue
			}
			fmt.Fprintf(b, "gengc_survival_total{age=\"%d\"} %d\n", age, n)
		}
	}

	a := s.Alloc
	counter(b, "gengc_alloc_refills_total", "Blocks acquired by mutator allocation caches from the central shards.", a.Refills)
	counter(b, "gengc_alloc_flushes_total", "Blocks handed back to the central shards by detaching mutators.", a.Flushes)
	counter(b, "gengc_alloc_shard_locks_total", "Central shard lock acquisitions.", a.ShardLocks)
	counter(b, "gengc_alloc_shard_contended_total", "Central shard lock acquisitions that contended.", a.ShardContended)
	counter(b, "gengc_alloc_page_locks_total", "Page allocator lock acquisitions.", a.PageLocks)
	counter(b, "gengc_alloc_page_contended_total", "Page allocator lock acquisitions that contended.", a.PageContended)
	gauge(b, "gengc_alloc_free_cells", "Blue (free) cells in blocks no allocation cache owns.", a.FreeCells)
	gauge(b, "gengc_alloc_cached_cells", "Blue (free) cells in blocks owned by mutator allocation caches (reads high by unpublished claims).", a.CachedCells)

	writePauseHistogram(b, r)

	if s.Admission.Enabled {
		adm := s.Admission
		counter(b, "gengc_admission_admitted_total", "Requests a worker took up from the admission queue before their deadline passed.", adm.Admitted)
		help(b, "gengc_admission_shed_total", "Requests shed by the admission controller, by cause (timeout: expired in the queue unserved).", "counter")
		fmt.Fprintf(b, "gengc_admission_shed_total{cause=\"queuefull\"} %d\n", adm.ShedQueueFull)
		fmt.Fprintf(b, "gengc_admission_shed_total{cause=\"timeout\"} %d\n", adm.ShedTimeout)
		fmt.Fprintf(b, "gengc_admission_shed_total{cause=\"degraded\"} %d\n", adm.ShedDegraded)
		fmt.Fprintf(b, "gengc_admission_shed_total{cause=\"draining\"} %d\n", adm.ShedDraining)
		counter(b, "gengc_admission_retries_total", "Transient-failure retries reported while serving admitted requests.", adm.Retries)
		counter(b, "gengc_admission_degraded_entries_total", "Transitions into degraded mode.", adm.DegradedEnters)
		gauge(b, "gengc_admission_degraded", "1 while the admission controller is in degraded mode.", boolGauge(adm.Degraded))
		gauge(b, "gengc_admission_queued", "Requests currently waiting in the admission queue.", adm.Queued)
		gauge(b, "gengc_admission_inflight", "Requests currently being served by workers.", adm.InFlight)
	}
	if h := r.c.RequestHistogram(); h != nil {
		help(b, "gengc_request_seconds", "End-to-end request latencies observed via ObserveRequest (queue wait + allocation + retries).", "histogram")
		writeHistogram(b, "gengc_request_seconds", h)
		help(b, "gengc_request_quantile_seconds", "Bucketed request-latency quantiles (upper bucket edge, <=6% relative error).", "gauge")
		for _, q := range []struct {
			label string
			q     float64
		}{{"0.5", 0.50}, {"0.99", 0.99}, {"0.999", 0.999}} {
			fmt.Fprintf(b, "gengc_request_quantile_seconds{q=%q} %s\n",
				q.label, formatSeconds(int64(h.Quantile(q.q))))
		}
		counter(b, "gengc_request_slo_breaches_total", "Observed request latencies exceeding the configured request SLO.", s.RequestSLOBreaches)
	}

	counter(b, "gengc_pause_slo_breaches_total", "Recorded pauses exceeding the configured pause SLO.", s.SLOBreaches)
	if fr := r.c.FlightRecorder(); fr != nil {
		counter(b, "gengc_flight_recorder_dumps_total", "Flight-recorder dumps captured.", fr.DumpCount())
		counter(b, "gengc_flight_recorder_triggers_total", "Flight-recorder trigger attempts (including rate-limited ones).", fr.TriggerCount())
		gauge(b, "gengc_flight_recorder_events", "Trace events currently buffered in the flight-recorder ring.", fr.EventCount())
	}
}

// writePauseHistogram renders the fleet pause histogram as a native
// Prometheus histogram in seconds, plus bucketed quantile gauges for
// dashboards that do not compute histogram_quantile.
func writePauseHistogram(b *strings.Builder, r *Runtime) {
	h := r.c.PauseHistogram()
	help(b, "gengc_pause_seconds", "Mutator-visible pause durations (handshake and ack responses, allocation stalls).", "histogram")
	writeHistogram(b, "gengc_pause_seconds", h)

	help(b, "gengc_pause_quantile_seconds", "Bucketed pause quantiles (upper bucket edge, <=6% relative error).", "gauge")
	for _, q := range []struct {
		label string
		q     float64
	}{{"0.5", 0.50}, {"0.9", 0.90}, {"0.99", 0.99}} {
		fmt.Fprintf(b, "gengc_pause_quantile_seconds{q=%q} %s\n",
			q.label, formatSeconds(int64(h.Quantile(q.q))))
	}
}

// writeHistogram renders h's buckets, sum and count as the samples of
// the Prometheus histogram name. The +Inf bucket and the count are the
// same bucket sum, so a scrape racing Record still shows a monotone
// series that ends at its count.
func writeHistogram(b *strings.Builder, name string, h *metrics.Histogram) {
	cum := h.CumulativeLE(pauseBucketBounds)
	for i, bound := range pauseBucketBounds {
		fmt.Fprintf(b, "%s_bucket{le=%q} %d\n", name, formatSeconds(bound), cum[i])
	}
	total := cum[len(pauseBucketBounds)]
	fmt.Fprintf(b, "%s_bucket{le=\"+Inf\"} %d\n", name, total)
	fmt.Fprintf(b, "%s_sum %s\n", name, formatSeconds(int64(h.Total())))
	fmt.Fprintf(b, "%s_count %d\n", name, total)
}

// writeInfo renders the run metadata stamped into the trace start event
// as a gengc_info gauge with one label per key=value pair.
func writeInfo(b *strings.Builder, meta string) {
	help(b, "gengc_info", "Run metadata: configuration and environment of this runtime.", "gauge")
	var labels []string
	for _, kv := range strings.Fields(meta) {
		if k, v, ok := strings.Cut(kv, "="); ok {
			labels = append(labels, fmt.Sprintf("%s=%q", k, v))
		}
	}
	fmt.Fprintf(b, "gengc_info{%s} 1\n", strings.Join(labels, ","))
}

func help(b *strings.Builder, name, doc, typ string) {
	fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s %s\n", name, doc, name, typ)
}

func counter(b *strings.Builder, name, doc string, v int64) {
	help(b, name, doc, "counter")
	fmt.Fprintf(b, "%s %d\n", name, v)
}

func gauge(b *strings.Builder, name, doc string, v int64) {
	help(b, name, doc, "gauge")
	fmt.Fprintf(b, "%s %d\n", name, v)
}

func gaugeF(b *strings.Builder, name, doc string, v float64) {
	help(b, name, doc, "gauge")
	fmt.Fprintf(b, "%s %g\n", name, v)
}

func boolGauge(v bool) int64 {
	if v {
		return 1
	}
	return 0
}

// formatSeconds renders a nanosecond count as seconds with enough
// precision to round-trip (1µs = 1e-06).
func formatSeconds(ns int64) string {
	return fmt.Sprintf("%g", time.Duration(ns).Seconds())
}
