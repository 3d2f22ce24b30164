package gc

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"gengc/internal/card"
	"gengc/internal/fault"
	"gengc/internal/heap"
	"gengc/internal/metrics"
	"gengc/internal/telemetry"
	"gengc/internal/trace"
)

// Status is a mutator/collector handshake status. The collection cycle
// advances async → sync1 → sync2 → async (§7: the period between the
// first and second handshake is sync1, between the second and third
// sync2, and the rest async).
type Status uint32

const (
	StatusAsync Status = iota
	StatusSync1
	StatusSync2
)

func (s Status) String() string {
	switch s {
	case StatusAsync:
		return "async"
	case StatusSync1:
		return "sync1"
	case StatusSync2:
		return "sync2"
	}
	return "invalid"
}

// Collector owns the heap, card table and collection machinery. One
// Collector corresponds to one JVM instance of the paper.
//
// Field order is load-bearing: the atomic words every mutator reads per
// allocation and barrier come first, then the padded words mutators
// write, then everything else — the read-only cfg included, so editing
// Config cannot shift the hot words (TestCollectorLayout pins this).
type Collector struct {
	H     *heap.Heap
	Cards *card.Table
	rec   *metrics.Recorder

	// Color-toggle state (§5). Written by the collector only, read by
	// mutators on every allocation and barrier invocation.
	allocColor atomic.Uint32
	clearColor atomic.Uint32

	// statusC is the collector's handshake status.
	statusC atomic.Uint32

	// tracing is the "Collector is tracing" predicate of the Figure 1
	// barrier: true from the start of a cycle until the trace reaches
	// its fixpoint.
	tracing atomic.Bool

	// ackEpoch drives the trace-termination acknowledgement rounds
	// (see trace.go).
	ackEpoch atomic.Int64

	// The three counters below are written by mutators on hot paths
	// (every shade, every published allocation block), so they are padded
	// onto cache lines of their own: the words around them — the colors
	// and handshake status above, the Config the barrier reads below —
	// must not bounce with them. The pad also starts them at offset 128,
	// so the three share one line: straddling two (at offset 112) made
	// every publishAllocs and every swept block's noteFreed move two
	// contended lines, and cost old_mutation ~4 % CPU per op.
	_ [80]byte

	// grayProduced counts gray transitions performed by mutators; the
	// trace-termination fixpoint check compares it across an
	// acknowledgement round (monotonic, never reset).
	grayProduced atomic.Int64

	// heapBytes/heapObjects are the facade-facing allocation totals
	// (cell sizes), charged by each mutator a block at a time
	// (Mutator.publishAllocs) and uncharged per swept block: exact once
	// every attached mutator has passed a publication point (handshake
	// response, Detach, Collect, Verify), else trailing each by less than
	// one block — the contract heap.AllocatedBytes has for its counters.
	heapBytes   atomic.Int64
	heapObjects atomic.Int64
	_           [64]byte

	// cfg is read-only after New; the barrier reads cfg.Mode per store.
	cfg Config

	// breakSyncAccept removes §7.1's allocation-color acceptance from
	// markGray (NewScheduled only): the model checker's negative leg.
	breakSyncAccept bool

	// muts is the mutator registry.
	muts struct {
		sync.Mutex
		list   []*Mutator
		nextID int
	}

	// globals is a heap object holding the globalRootSlots global
	// root slots; stores to it go through the normal write barrier, so
	// it needs no special treatment beyond being grayed as a root each
	// cycle.
	globals heap.Addr

	// gray is the collector's gray-set working stack (trace.go), fed by
	// root marking, the card scan and the mutator gray buffers.
	// Collector goroutine only.
	gray []heap.Addr

	// orphans holds gray objects inherited from detached mutators.
	orphans struct {
		sync.Mutex
		buf []heap.Addr
	}

	// cyc accumulates the current cycle's counters (collector
	// goroutine only).
	cyc metrics.Cycle

	// pacer owns the collection-scheduling policy: the young-bytes
	// partial trigger and the adaptive full-collection target
	// (pacer.go).
	pacer *Pacer

	// cyclesDone and fullsDone count completed collections; the
	// allocation slow path waits on them.
	cyclesDone atomic.Int64
	fullsDone  atomic.Int64

	// fullWaiters counts mutators blocked in the allocation slow path
	// waiting for a full collection; their requests are never treated
	// as stale.
	fullWaiters atomic.Int64

	// Collection requests. wantFull upgrades a pending request.
	reqCh    chan struct{}
	wantFull atomic.Bool
	pending  atomic.Bool

	// cycleMu serializes collection cycles (background goroutine vs
	// synchronous CollectNow calls from tests and the OOM path).
	cycleMu sync.Mutex

	// tracer and ring are the structured-event layer (nil without a
	// configured TraceSink or armed flight recorder); ring is the
	// collector goroutine's own event buffer; the mutators get their
	// own (observe.go).
	tracer *trace.Tracer
	ring   *trace.Ring

	// recorder is the anomaly flight recorder (nil unless
	// Config.FlightRecorderEvents is positive); it taps the event
	// stream ahead of the trace sink and freezes dumps on trigger.
	recorder *telemetry.Recorder

	// sloBreaches counts recorded mutator pauses that exceeded
	// Config.PauseSLO.
	sloBreaches atomic.Int64

	// admission is the armed admission controller (nil unless
	// Config.Admission is set).
	admission *Admission

	// reqHist is the per-request latency histogram fed by
	// ObserveRequest (nil unless request accounting is on: a
	// RequestSLO or an admission controller); reqSLOBreaches counts
	// observations over Config.RequestSLO.
	reqHist        *metrics.Histogram
	reqSLOBreaches atomic.Int64

	// demo accumulates run-cumulative heap demographics, folded in by
	// the collector goroutine at the end of every cycle; readers take
	// the mutex (DemographicStats).
	demo struct {
		sync.Mutex
		metrics.Demographics
	}

	// retired accumulates the pause histograms of detached mutators so
	// fleet-wide pause statistics cover the runtime's whole history.
	retired *metrics.Histogram

	// flt is the armed fault injector (cfg.Fault); nil in production,
	// so every injection point costs one pointer comparison.
	flt *fault.Injector

	// vsched is the armed virtual scheduler (NewScheduled); nil in
	// production. When set, every seam hit parks the caller on the
	// scheduler and the handshake waits divert to Scheduler.Wait
	// (sched.go).
	vsched fault.Scheduler

	// stalls counts handshake watchdog reports; abortedCycles counts
	// cycles abandoned because Stop found the handshake wedged.
	stalls        atomic.Int64
	abortedCycles atomic.Int64

	// onStall is the watchdog's observer (set via OnStall).
	onStall struct {
		sync.Mutex
		fn func(Stall)
	}

	stopCh   chan struct{}
	doneCh   chan struct{}
	started  atomic.Bool
	closed   atomic.Bool
	stopOnce sync.Once
}

// Stall describes one watchdog report: a mutator that had not reached a
// safe point within the configured StallTimeout while the collector
// waited on it.
type Stall struct {
	// Mutator is the id of the unresponsive mutator.
	Mutator int

	// Phase is the wait the mutator is stalling: "sync1", "sync2",
	// "sync3" (the three handshake rounds) or "ack" (a
	// trace-termination acknowledgement round).
	Phase string

	// Waited is how long the collector had been waiting when the
	// stall was reported.
	Waited time.Duration
}

// globalRootSlots is the number of global (class-static-like) root
// slots. The globals object is one object, one card and one drain step
// whatever its slot count.
const globalRootSlots = 256

// New builds a collector and its heap. Start must be called before any
// allocation can trigger background collections; collections can also be
// run synchronously with CollectNow (used by tests).
func New(cfg Config) (*Collector, error) { return build(cfg, nil, false) }

// NewScheduled builds, for the model checker (internal/modelcheck), the
// collector New builds with its seams stepped by the virtual scheduler
// s: every fault point parks the caller until s resumes it, and the
// handshake and acknowledgement waits block on s.Wait. s excludes
// cfg.Fault (both consume the seams). breakSyncAccept re-introduces the
// bug §7.1 argues about — markGray stops accepting the allocation color
// during sync1/sync2, so an object created yellow between the card scan
// and the toggle and stored into a black parent is freed while
// reachable — for the checker to catch.
func NewScheduled(cfg Config, s fault.Scheduler, breakSyncAccept bool) (*Collector, error) {
	if cfg.Fault != nil {
		return nil, fmt.Errorf("gc: %w: a virtual scheduler excludes the fault injector", ErrInvalidConfig)
	}
	return build(cfg, s, breakSyncAccept)
}

// build is the one constructor body behind New and NewScheduled.
func build(cfg Config, vs fault.Scheduler, breakSyncAccept bool) (*Collector, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	h, err := heap.New(cfg.HeapBytes)
	if err != nil {
		return nil, err
	}
	ct, err := card.NewTable(h.SizeBytes, cfg.CardBytes)
	if err != nil {
		return nil, err
	}
	c := &Collector{H: h, Cards: ct, cfg: cfg, breakSyncAccept: breakSyncAccept,
		rec: metrics.NewRecorder(), retired: &metrics.Histogram{}, flt: cfg.Fault, vsched: vs}
	var tap func(trace.Event)
	if cfg.FlightRecorderEvents > 0 {
		c.recorder = telemetry.NewRecorder(cfg.FlightRecorderEvents)
		tap = c.recorder.Emit
	}
	if cfg.TraceSink != nil || tap != nil {
		c.tracer = trace.NewWithMeta(cfg.TraceSink, tap, runMeta(cfg))
		c.tracer.SetInjector(c.flt)
		c.ring = c.tracer.NewRing()
	}
	if c.recorder != nil {
		c.recorder.SetFlushFn(c.tracer.Flush)
	}
	if cfg.TrackPages || cfg.PageCostSpins > 0 {
		h.Pages = heap.NewPageSet(h.SizeBytes, ct.NumCards())
		h.Pages.CostSpins = cfg.PageCostSpins
	}
	c.allocColor.Store(uint32(heap.White))
	c.clearColor.Store(uint32(heap.Yellow))
	c.pacer = newPacer(cfg, h.SizeBytes)
	if cfg.Admission != nil {
		c.admission = newAdmission(c, *cfg.Admission)
	}
	if cfg.RequestSLO > 0 || cfg.Admission != nil {
		c.reqHist = &metrics.Histogram{}
	}
	c.reqCh = make(chan struct{}, 1)
	c.stopCh = make(chan struct{})
	c.doneCh = make(chan struct{})

	// The global-roots object. Allocated with a private cache; its
	// cells' block stays live for the runtime's lifetime.
	var cache heap.Cache
	g, _, err := h.Alloc(&cache, globalRootSlots,
		heap.HeaderBytes+globalRootSlots*heap.WordBytes, c.AllocColor())
	if err != nil {
		return nil, fmt.Errorf("gc: allocating global roots: %w", err)
	}
	c.globals = g
	h.Flush(&cache)
	c.heapBytes.Store(h.AllocatedBytes())
	c.heapObjects.Store(h.AllocatedObjects())
	return c, nil
}

// runMeta builds the run-metadata string stamped into the trace "start"
// event: the knobs a reader needs to interpret a run's numbers, in a
// fixed "key=value" order.
func runMeta(cfg Config) string {
	version := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok && bi.Main.Version != "" {
		version = bi.Main.Version
	}
	return fmt.Sprintf("gomaxprocs=%d mode=%s version=%s",
		runtime.GOMAXPROCS(0), cfg.Mode, version)
}

// Config returns the collector's effective configuration.
func (c *Collector) Config() Config { return c.cfg }

// RunMeta returns the run-metadata string this collector stamps into
// its trace "start" event.
func (c *Collector) RunMeta() string { return runMeta(c.cfg) }

// Metrics returns the cycle recorder.
func (c *Collector) Metrics() *metrics.Recorder { return c.rec }

// AllocColor returns the current allocation color.
func (c *Collector) AllocColor() heap.Color { return heap.Color(c.allocColor.Load()) }

// ClearColor returns the current clear color.
func (c *Collector) ClearColor() heap.Color { return heap.Color(c.clearColor.Load()) }

// Globals returns the address of the global-roots object.
func (c *Collector) Globals() heap.Addr { return c.globals }

// CyclesDone returns the number of completed collection cycles.
func (c *Collector) CyclesDone() int64 { return c.cyclesDone.Load() }

// FullsDone returns the number of completed full collections.
func (c *Collector) FullsDone() int64 { return c.fullsDone.Load() }

// Start launches the background collector goroutine.
func (c *Collector) Start() {
	if !c.started.CompareAndSwap(false, true) {
		return
	}
	go c.run()
}

// Stop terminates the collector: it marks the runtime closed (pending
// and future allocations fail with ErrClosed instead of waiting on
// collections that will never run), stops the background goroutine,
// drains any cycle in flight, and performs the final trace flush.
//
// Stop is idempotent and safe to call concurrently — with other Stop
// calls, with allocating mutators, and with a collection mid-handshake.
// A cycle whose handshake is wedged on an unresponsive mutator is
// granted one StallTimeout of grace and then aborted: the collector
// converges the handshake state and skips the sweep, so no object is
// ever freed on the strength of an incomplete trace (the aborted
// cycle's floating garbage is irrelevant at shutdown).
func (c *Collector) Stop() {
	if c.admission != nil {
		// Late arrivals shed with a clean "draining" error instead of
		// queueing against a runtime that is going away.
		c.admission.BeginDrain()
	}
	c.closed.Store(true)
	c.stopOnce.Do(func() { close(c.stopCh) })
	if c.started.Load() {
		<-c.doneCh
	}
	// Drain a synchronous CollectNow that may still hold the cycle
	// lock (tests and the manual-runtime OOM path run cycles on
	// helper goroutines).
	c.cycleMu.Lock()
	c.cycleMu.Unlock()
	if c.tracer != nil {
		c.tracer.Close()
	}
}

// Stalls returns how many stalled-mutator reports the handshake
// watchdog has issued.
func (c *Collector) Stalls() int64 { return c.stalls.Load() }

// AbortedCycles returns how many collection cycles were abandoned by a
// close racing a wedged handshake.
func (c *Collector) AbortedCycles() int64 { return c.abortedCycles.Load() }

// TraceDegraded reports whether the trace sink failed and was isolated
// (events since are counted as drops instead of wedging producers).
func (c *Collector) TraceDegraded() bool {
	return c.tracer != nil && c.tracer.Degraded()
}

// TraceDrops returns the total trace events lost so far — ring
// overflows plus events discarded after sink degradation.
func (c *Collector) TraceDrops() int64 {
	if c.tracer == nil {
		return 0
	}
	return c.tracer.Drops()
}

// OnStall registers fn to receive every handshake watchdog report. fn
// runs on the collector goroutine mid-handshake — it must not block and
// must not touch the runtime. A nil fn removes the observer; there is
// at most one.
func (c *Collector) OnStall(fn func(Stall)) {
	c.onStall.Lock()
	c.onStall.fn = fn
	c.onStall.Unlock()
}

// notifyStall fans one watchdog report out to the surfaces: counter,
// trace event, flight recorder, callback.
func (c *Collector) notifyStall(s Stall) {
	c.stalls.Add(1)
	if c.tracer != nil {
		c.ring.Emit(trace.Event{
			Ev:     "stall",
			T:      c.tracer.Rel(time.Now().Add(-s.Waited)),
			D:      s.Waited.Nanoseconds(),
			Cycle:  c.cyclesDone.Load() + 1,
			Worker: s.Mutator,
			K:      s.Phase,
		})
	}
	c.triggerDump("stall")
	c.onStall.Lock()
	fn := c.onStall.fn
	c.onStall.Unlock()
	if fn != nil {
		fn(s)
	}
}

// triggerDump freezes a flight-recorder capture for reason. A capture
// flushes the rings first (the recorder's flush function) so the event
// that provoked the trigger — emitted moments ago into a producer ring
// — is inside the captured window; a trigger inside the recorder's
// one-second gap is only counted, so a shed or breach storm costs no
// flushes. Tracer.Flush is mutex-guarded, so this is safe from any
// goroutine (the watchdog mid-handshake, a mutator's allocation
// give-up, a pause recording, a shed). Nil-safe: without an armed
// recorder it costs one pointer comparison.
func (c *Collector) triggerDump(reason string) {
	if c.recorder != nil {
		c.recorder.Trigger(reason)
	}
}

// FlightRecorder returns the armed anomaly flight recorder, or nil.
func (c *Collector) FlightRecorder() *telemetry.Recorder { return c.recorder }

// SLOBreaches returns how many recorded pauses exceeded the configured
// PauseSLO (always zero without one).
func (c *Collector) SLOBreaches() int64 { return c.sloBreaches.Load() }

// Admission returns the armed admission controller, or nil when
// Config.Admission was not set.
func (c *Collector) Admission() *Admission { return c.admission }

// AdmissionStats snapshots the admission controller's counters (the
// zero value, Enabled false, without one).
func (c *Collector) AdmissionStats() AdmissionStats {
	if c.admission == nil {
		return AdmissionStats{}
	}
	return c.admission.Stats()
}

// ObserveRequest records one end-to-end request latency — queue wait
// plus allocation work plus retries, measured by the embedding server —
// into the request histogram, and enforces the RequestSLO: a breach is
// counted and triggers a flight-recorder dump. A no-op
// unless request accounting is on (RequestSLO or Admission configured).
func (c *Collector) ObserveRequest(d time.Duration) {
	if c.reqHist == nil {
		return
	}
	c.reqHist.Record(d)
	if slo := c.cfg.RequestSLO; slo > 0 && d > slo {
		c.reqSLOBreaches.Add(1)
		c.triggerDump("requestslo")
	}
}

// RequestSLOBreaches returns how many observed request latencies
// exceeded the configured RequestSLO.
func (c *Collector) RequestSLOBreaches() int64 { return c.reqSLOBreaches.Load() }

// RequestStats condenses the request-latency histogram (Mutator -1: a
// fleet-wide aggregate). Zero-valued when request accounting is off.
func (c *Collector) RequestStats() metrics.PauseStats {
	if c.reqHist == nil {
		return metrics.PauseStats{Mutator: -1}
	}
	return c.reqHist.Stats(-1)
}

// RequestHistogram returns the request-latency histogram, or nil when
// request accounting is off (metrics exposition reads the buckets).
func (c *Collector) RequestHistogram() *metrics.Histogram { return c.reqHist }

// DemographicStats returns the run-cumulative heap demographics.
func (c *Collector) DemographicStats() metrics.Demographics {
	c.demo.Lock()
	defer c.demo.Unlock()
	return c.demo.Demographics.Clone()
}

// run is the collector goroutine: it waits for a trigger and runs one
// cycle per request, coalescing requests that arrive mid-cycle.
func (c *Collector) run() {
	defer close(c.doneCh)
	for {
		select {
		case <-c.stopCh:
			return
		case <-c.reqCh:
		}
		full := c.wantFull.Swap(false)
		c.pending.Store(false)
		if c.cfg.Mode == NonGenerational {
			full = true
		}
		// Drop requests that went stale while a previous cycle ran:
		// allocation during a cycle re-arms the triggers, and a
		// second collection right after the first would find nothing
		// to free. Full requests from mutators blocked on allocation
		// are never stale.
		if !full && !c.pacer.PartialDue() {
			continue
		}
		if full && c.fullWaiters.Load() == 0 &&
			!c.pacer.FullDue(c.H.AllocatedBytes()) {
			continue
		}
		c.Cycle(full)
	}
}

// request asks the collector goroutine for a collection; full upgrades
// any pending request to a full collection.
func (c *Collector) request(full bool) {
	if full {
		c.wantFull.Store(true)
	}
	if c.pending.CompareAndSwap(false, true) {
		select {
		case c.reqCh <- struct{}{}:
			// Let the collector goroutine start right away; without
			// the yield a compute-bound mutator on a single P delays
			// the cycle by a whole scheduling quantum.
			runtime.Gosched()
		default:
			c.pending.Store(false)
		}
	}
}

// noteFreed uncharges a sweep free batch from the exact heap totals.
func (c *Collector) noteFreed(objects, bytes int) {
	c.heapBytes.Add(-int64(bytes))
	c.heapObjects.Add(-int64(objects))
}

// HeapBytes returns the currently allocated bytes (live plus floating
// garbage, at cell granularity): exact once every attached mutator has
// passed a publication point, else trailing each by less than a block.
func (c *Collector) HeapBytes() int64 { return c.heapBytes.Load() }

// HeapObjects returns the allocated object count (HeapBytes' contract).
func (c *Collector) HeapObjects() int64 { return c.heapObjects.Load() }

// Pacer exposes the collection-scheduling component.
func (c *Collector) Pacer() *Pacer { return c.pacer }

// oldestAge returns the tenure threshold.
func (c *Collector) oldestAge() uint8 { return uint8(c.cfg.OldAge) }

// CollectNow runs one synchronous collection cycle on the calling
// goroutine. The caller must not be a mutator (a mutator would deadlock
// the handshakes; mutators use (*Mutator).Collect instead). On a
// stopped collector it is a no-op.
func (c *Collector) CollectNow(full bool) {
	if c.closed.Load() {
		return
	}
	c.Cycle(full || c.cfg.Mode == NonGenerational)
}
