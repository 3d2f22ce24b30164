// Package gengc is a from-scratch reproduction of "A Generational
// On-the-fly Garbage Collector for Java" (Domani, Kolodner, Petrank;
// PLDI 2000) as a standalone, embeddable heap and collector.
//
// The package manages a simulated, non-moving, byte-addressed heap.
// Program threads attach as mutators, allocate objects made of pointer
// slots, and read and write those slots through the paper's write
// barrier; a collector goroutine reclaims garbage on the fly — the
// mutators are never stopped. Three collectors are provided:
//
//   - the DLG-style non-generational mark-and-sweep baseline with a
//     black/white color toggle (Remark 5.1);
//   - the simple generational collector (§3–§5): logical generations
//     with black as the old color, promotion after one collection, the
//     yellow allocation color, and card marking;
//   - the aging generational collector (§6): per-object ages and a
//     configurable tenure threshold.
//
// # Quick start
//
//	rt, err := gengc.New(gengc.WithMode(gengc.Generational))
//	if err != nil { ... }
//	defer rt.Close()
//
//	m := rt.NewMutator()          // one per goroutine
//	defer m.Detach()
//
//	obj, err := m.Alloc(2, 0)     // two pointer slots
//	root := m.PushRoot(obj)       // keep it reachable
//	child, err := m.Alloc(0, 64)  // 64-byte leaf object
//	m.Write(obj, 0, child)        // barriered pointer store
//	_ = m.Read(obj, 1)            // pointer load
//	m.Safepoint()                 // call regularly!
//	m.SetRoot(root, gengc.Nil)    // drop the structure
//
// Mutators must call Safepoint regularly (the paper's "cooperate",
// checked at backward branches and calls in the JVM): the collector's
// handshakes wait for every attached mutator, so a mutator that stops
// calling Safepoint stalls collections. Allocation and the Collect
// helper also act as safe points.
//
// # Observability
//
// The runtime measures itself at three granularities: per-collection
// records (Cycles, or streamed with OnCycle), per-mutator pause
// histograms behind Snapshot (the quantified version of the paper's
// "mutators are never stopped" property, also exportable with
// PublishExpvar), and a structured event trace behind WithTraceSink —
// timestamped spans for every cycle phase and every mutator pause,
// rendered into paper-style figures by cmd/gcreport. OBSERVABILITY.md
// maps each surface onto the paper's Figures 10–23.
package gengc

import (
	"context"
	"expvar"
	"fmt"
	"io"
	"time"

	"gengc/internal/gc"
	"gengc/internal/heap"
	"gengc/internal/metrics"
	"gengc/internal/telemetry"
	"gengc/internal/trace"
)

// Ref is a reference to a heap object. The zero value Nil refers to no
// object.
type Ref = heap.Addr

// Nil is the null reference.
const Nil Ref = 0

// Mode selects the collector variant.
type Mode = gc.Mode

const (
	// NonGenerational is the baseline on-the-fly collector.
	NonGenerational = gc.NonGenerational
	// Generational promotes objects after one collection (§3–§5).
	Generational = gc.Generational
	// GenerationalAging uses per-object ages and a tenure threshold.
	GenerationalAging = gc.GenerationalAging
)

// Config parameterizes a Runtime; zero fields assume the paper's
// defaults: a 32 MB heap, a 4 MB young generation, 16-byte cards
// ("object marking"), tenure threshold 4 (in the paper's age counting),
// and a full collection once the heap is 75% allocated. Runtimes are
// built from functional options (WithMode, WithHeapBytes, ...); a
// prepared Config is applied with WithConfig.
type Config = gc.Config

// CycleRecord is the per-collection record passed to OnCycle observers
// and returned by Cycles.
type CycleRecord = metrics.Cycle

// TraceEvent is one structured collector event: a timestamped span
// (cycle, handshake round, trace drain, sweep, card scan) or a
// mutator pause, as delivered to a TraceSink. See the trace package's
// Event documentation for the kind table, and OBSERVABILITY.md for the
// event ↔ paper-figure map.
type TraceEvent = trace.Event

// TraceSink receives the collector's structured event stream (see
// WithTraceSink). The collector serializes all Emit and Flush calls, so
// implementations need no locking unless shared between runtimes.
type TraceSink = trace.Sink

// JSONLTraceSink is a TraceSink that writes one JSON object per event —
// the interchange format consumed by cmd/gcreport.
type JSONLTraceSink = trace.JSONLSink

// NewJSONLTraceSink returns a buffered TraceSink writing JSON Lines to
// w. Close the runtime before reading the output: the final events are
// flushed by Runtime.Close. Check the sink's Err method after the run.
func NewJSONLTraceSink(w io.Writer) *JSONLTraceSink { return trace.NewJSONLSink(w) }

// AllocStats aggregates the tiered allocator's contention and
// throughput counters: blocks acquired (refills) and handed back
// (flushes) by mutator allocation caches, contended lock acquisitions
// per tier, and the census of blue cells in unowned (free) and owned
// (cached) blocks, plus a per-shard breakdown. Reported by
// Snapshot; see OBSERVABILITY.md.
type AllocStats = heap.AllocStats

// ShardStats is one central shard's row in AllocStats.PerShard.
type ShardStats = heap.ShardStats

// Demographics is the run-cumulative heap-demographics aggregate
// reported in Snapshot.Demographics: promotion and survival totals,
// the aging survival histogram, per-size-class death counts, and
// inter-generational pointer traffic. See OBSERVABILITY.md §7.
type Demographics = metrics.Demographics

// FlightRecorder is the anomaly flight recorder armed with
// WithFlightRecorder: a bounded ring of the last N trace events frozen
// into dumps when the runtime hits trouble. See OBSERVABILITY.md §7 for
// the trigger matrix.
type FlightRecorder = telemetry.Recorder

// FlightDump is one frozen flight-recorder capture: the trigger reason,
// the preceding trace events, and a Snapshot taken at the trigger.
type FlightDump = telemetry.Dump

// PauseStats summarizes one pause histogram: the count, total and the
// p50/p90/p99/p99.9/max quantiles of the mutator-visible delays the
// on-the-fly collector imposes (handshake responses, root marking,
// acknowledgement rounds, allocation stalls). Mutator is the mutator id,
// or -1 for the fleet-wide aggregate.
type PauseStats = metrics.PauseStats

// AdmissionConfig parameterizes the admission controller armed with
// WithAdmission; zero fields assume the defaults.
type AdmissionConfig = gc.AdmissionConfig

// AdmissionStats is the admission controller's counter snapshot
// (Snapshot.Admission): requests taken up before their deadline, shed
// totals broken down by cause, caller-reported retries, degraded-mode
// transitions and the live queue-depth/being-served gauges. Enabled is false — and everything else zero —
// without WithAdmission.
type AdmissionStats = gc.AdmissionStats

// Admission is the runtime's admission controller handle (see
// Runtime.Admission): the non-blocking door (Admit) in front of the
// embedder's own bounded request queue, and the counters that follow a
// request through it (Start/Finish when served, Expire when its
// deadline passes in the queue, Abandon at a drain). NoteRetry reports
// a transient-failure retry, BeginDrain stops admission for shutdown.
type Admission = gc.Admission

// Priority classifies a request for the admission controller's degraded
// mode: PriorityLow requests are shed while the runtime is degraded,
// PriorityHigh requests still queue.
type Priority = gc.Priority

const (
	// PriorityLow marks best-effort requests — the first to go when
	// the runtime degrades.
	PriorityLow = gc.PriorityLow
	// PriorityHigh marks requests that must be served while the
	// runtime has any capacity at all.
	PriorityHigh = gc.PriorityHigh
)

// Runtime owns one heap and its collector — the analogue of one JVM
// instance in the paper's experiments.
type Runtime struct {
	c *gc.Collector
}

// New creates a runtime from the given options and starts its collector
// goroutine. A configuration error wraps ErrInvalidConfig.
func New(opts ...Option) (*Runtime, error) {
	c, err := gc.New(buildConfig(opts))
	if err != nil {
		return nil, err
	}
	c.Start()
	return newRuntime(c), nil
}

// NewManual creates a runtime whose collections run only when Collect is
// called — no background collector goroutine. Intended for tests and
// deterministic experiments.
func NewManual(opts ...Option) (*Runtime, error) {
	c, err := gc.New(buildConfig(opts))
	if err != nil {
		return nil, err
	}
	return newRuntime(c), nil
}

// newRuntime wraps the collector and completes the wiring the collector
// cannot do itself: the flight recorder's snapshot function captures
// the facade-level Snapshot, not the collector's internals.
func newRuntime(c *gc.Collector) *Runtime {
	rt := &Runtime{c: c}
	if fr := c.FlightRecorder(); fr != nil {
		fr.SetSnapshotFn(func() any { return rt.Snapshot() })
	}
	return rt
}

// Close stops the collector goroutine and flushes the trace sink. It
// is idempotent and safe to call concurrently with running mutators:
// further allocations fail with an error wrapping ErrClosed, a
// collection in flight is given one stall-timeout of grace to finish
// its handshakes and otherwise abandoned without sweeping (no object is
// ever freed on the strength of an incomplete trace), and concurrent
// Close calls all wait for the shutdown to complete.
func (r *Runtime) Close() { r.c.Stop() }

// StallEvent is one handshake-watchdog report: a mutator that had not
// passed a safe point within the configured stall timeout
// (WithStallTimeout) while the collector was waiting on it.
type StallEvent = gc.Stall

// OnStall registers fn to receive every watchdog report (at most one
// observer; nil removes it). fn runs on the collector goroutine and
// must not block. The same reports also raise Snapshot.Stalls and emit
// "stall" trace events, so polling and tracing work without a callback.
func (r *Runtime) OnStall(fn func(StallEvent)) { r.c.OnStall(fn) }

// NewMutator attaches a mutator. Each mutator must be used by a single
// goroutine.
func (r *Runtime) NewMutator() *Mutator {
	return &Mutator{m: r.c.NewMutator(), rt: r}
}

// Collect runs one synchronous collection cycle (full or partial). It
// must not be called from a mutator goroutine — use (*Mutator).Collect
// there instead.
func (r *Runtime) Collect(full bool) { r.c.CollectNow(full) }

// Stats returns the aggregate collection statistics so far.
func (r *Runtime) Stats() metrics.Summary { return r.c.Metrics().Summarize(0) }

// Cycles returns the per-collection records (one entry per cycle).
func (r *Runtime) Cycles() []CycleRecord { return r.c.Metrics().Cycles() }

// OnCycle registers fn to receive every collection's record as the
// cycle completes, so embedders can stream per-collection telemetry
// instead of polling Cycles. fn runs on the collector goroutine — it
// must not block (the next cycle waits for it) and must not trigger
// collections. A nil fn removes the observer; there is at most one.
func (r *Runtime) OnCycle(fn func(CycleRecord)) { r.c.Metrics().OnRecord(fn) }

// Snapshot is a point-in-time view of the runtime's progress and pause
// behavior, cheap enough to poll: collection counts, heap occupancy,
// and the pause statistics of every attached mutator plus the
// fleet-wide aggregate (which also covers detached mutators).
type Snapshot struct {
	Cycles int64 // completed collection cycles (partial + full)
	Fulls  int64 // completed full collections

	// HeapBytes and HeapObjects are the currently allocated bytes (live
	// plus floating garbage, at cell granularity) and objects. Mutators
	// publish their allocations a block at a time: the totals are exact
	// whenever every attached mutator has passed a publication point (a
	// handshake response, Detach, Collect, Verify) and otherwise trail
	// each attached mutator by less than one 4 KiB block.
	HeapBytes   int64
	HeapObjects int64

	// Stalls counts handshake-watchdog reports: mutators that missed
	// the stall deadline while the collector waited on them (see
	// WithStallTimeout and OnStall).
	Stalls int64

	// AbortedCycles counts collections abandoned at Close because a
	// handshake stayed wedged past the grace period.
	AbortedCycles int64

	// TraceDrops counts trace events lost so far — ring overflow plus
	// events discarded after sink degradation. TraceDegraded reports
	// whether the trace sink has been cut off after repeated failures
	// (the runtime keeps running; events become counted drops). Both
	// are zero without WithTraceSink.
	TraceDrops    int64
	TraceDegraded bool

	// Alloc is the tiered allocator's counter snapshot: shard and
	// page-lock contention, refill/flush traffic, free and cached
	// cells, with a per-shard (one per size class) breakdown.
	Alloc AllocStats

	// Fleet aggregates every pause ever recorded (Mutator == -1);
	// Mutators holds one entry per currently attached mutator.
	Fleet    PauseStats
	Mutators []PauseStats

	// Demographics is the run-cumulative heap-demographics aggregate:
	// objects/bytes promoted into the old generation, the young
	// survival totals and aging survival histogram, per-size-class
	// death counts, and inter-generational card traffic.
	// Populated by generational partial collections; the online signal
	// the adaptive-pacer work reads.
	Demographics Demographics

	// PromotionRate is the pacer's smoothed promoted-bytes-per-young-
	// byte estimate (0 until a generational partial completes).
	PromotionRate float64

	// FullTargetBytes is the pacer's full-collection target: in the
	// generational modes a full collection becomes due when a partial
	// leaves more old-generation bytes than this behind, without
	// generations when allocated bytes reach it. Recomputed after every
	// full collection (what it left occupied plus headroom); it never
	// decreases, so it bounds from below where the heap peak can sit.
	FullTargetBytes int64

	// SLOBreaches counts recorded pauses that exceeded WithPauseSLO
	// (always zero without one).
	SLOBreaches int64

	// Admission is the admission controller's counter snapshot:
	// admitted/shed totals by cause, degraded-mode state and the live
	// queue-depth/being-served gauges. Enabled is false without
	// WithAdmission.
	Admission AdmissionStats

	// RequestLatency summarizes the end-to-end request-latency
	// histogram fed by ObserveRequest (Mutator == -1): per-request
	// latency as the client saw it — queue wait, allocation work and
	// retries included — distinct from the per-pause histograms above.
	// Zero-valued unless WithRequestSLO or WithAdmission is set.
	RequestLatency PauseStats

	// RequestSLOBreaches counts ObserveRequest observations that
	// exceeded WithRequestSLO (always zero without one).
	RequestSLOBreaches int64

	// FlightRecorderDumps counts anomaly captures the flight recorder
	// has taken (zero without WithFlightRecorder).
	FlightRecorderDumps int64
}

// Snapshot captures the current Snapshot. Safe to call at any time,
// from any goroutine, including while mutators and the collector run.
func (r *Runtime) Snapshot() Snapshot {
	fleet, per := r.c.PauseStats()
	s := Snapshot{
		Cycles:        r.c.CyclesDone(),
		Fulls:         r.c.FullsDone(),
		HeapBytes:     r.c.HeapBytes(),
		HeapObjects:   r.c.HeapObjects(),
		Stalls:        r.c.Stalls(),
		AbortedCycles: r.c.AbortedCycles(),
		TraceDrops:    r.c.TraceDrops(),
		TraceDegraded: r.c.TraceDegraded(),
		Alloc:         r.c.H.AllocStats(),
		Fleet:         fleet,
		Mutators:      per,
		Demographics:  r.c.DemographicStats(),
		PromotionRate: r.c.Pacer().PromotionRate(),
		SLOBreaches:   r.c.SLOBreaches(),

		FullTargetBytes:    r.c.Pacer().Target(),
		Admission:          r.c.AdmissionStats(),
		RequestLatency:     r.c.RequestStats(),
		RequestSLOBreaches: r.c.RequestSLOBreaches(),
	}
	if fr := r.c.FlightRecorder(); fr != nil {
		s.FlightRecorderDumps = fr.DumpCount()
	}
	return s
}

// FlightRecorder returns the anomaly flight recorder armed with
// WithFlightRecorder, or nil. Its Dumps/LastDump methods return the
// frozen captures; Trigger forces a manual capture.
func (r *Runtime) FlightRecorder() *FlightRecorder { return r.c.FlightRecorder() }

// Admission returns the admission controller armed with WithAdmission,
// or nil. Embedders ask Admit (which may return an error wrapping
// ErrShed) before queueing a request, then report it with Start and
// Finish, or Expire; internal/server does this for its request engine.
func (r *Runtime) Admission() *Admission { return r.c.Admission() }

// ObserveRequest records one end-to-end request latency into the
// request-latency histogram (Snapshot.RequestLatency) and enforces
// WithRequestSLO: a breach is counted and triggers a flight-recorder
// dump when one is armed. A no-op unless WithRequestSLO or
// WithAdmission enabled request accounting. Safe from any goroutine.
func (r *Runtime) ObserveRequest(d time.Duration) { r.c.ObserveRequest(d) }

// PublishExpvar exposes the runtime's Snapshot under name in the
// process-wide expvar registry (so it shows up on /debug/vars). It
// fails if name is already published — expvar registrations cannot be
// removed, so each runtime needs its own name and the variable outlives
// the runtime (it keeps reporting the final state after Close).
func (r *Runtime) PublishExpvar(name string) error {
	if expvar.Get(name) != nil {
		return fmt.Errorf("gengc: expvar %q already published", name)
	}
	expvar.Publish(name, expvar.Func(func() any { return r.Snapshot() }))
	return nil
}

// HeapBytes returns the currently allocated bytes (live plus floating
// garbage): exact whenever every attached mutator has passed a
// publication point (a handshake response, Detach, Collect, Verify),
// otherwise trailing each attached mutator by less than one 4 KiB block
// (see Snapshot.HeapBytes).
func (r *Runtime) HeapBytes() int64 { return r.c.HeapBytes() }

// HeapObjects returns the currently allocated object count, under the
// same contract as HeapBytes.
func (r *Runtime) HeapObjects() int64 { return r.c.HeapObjects() }

// SetGlobal stores v in global root slot i. Global roots live in an
// ordinary heap object, so the store goes through the write barrier of
// the given mutator.
func (r *Runtime) SetGlobal(m *Mutator, i int, v Ref) {
	m.m.Update(r.c.Globals(), i, v)
}

// Global reads global root slot i.
func (r *Runtime) Global(i int) Ref { return r.c.H.LoadSlot(r.c.Globals(), i) }

// Verify audits heap and collector invariants; mutators must be
// quiescent. See gc.Collector.Verify.
func (r *Runtime) Verify() error { return r.c.Verify() }

// VerifyCardInvariant checks that every inter-generational pointer lies
// on a dirty card; mutators must be quiescent.
func (r *Runtime) VerifyCardInvariant() error { return r.c.VerifyCardInvariant() }

// Collector exposes the underlying collector for the experiment harness
// and tests inside this module.
func (r *Runtime) Collector() *gc.Collector { return r.c }

// Mutator is a program thread's handle: its allocation cache, root
// stack and write barrier. All methods must be called from the owning
// goroutine.
type Mutator struct {
	m  *gc.Mutator
	rt *Runtime
}

// Alloc creates an object with the given number of pointer slots and a
// total size of at least size bytes (pass 0 for the minimal size). The
// new object is colored with the current allocation color, per the
// paper's create routine. On heap exhaustion the mutator transparently
// waits for a full collection and retries, up to three rounds; the
// returned error then satisfies errors.Is(err, ErrOutOfMemory). On a
// Closed runtime the error wraps ErrClosed.
func (m *Mutator) Alloc(slots, size int) (Ref, error) {
	return m.m.Alloc(slots, size)
}

// AllocCtx is Alloc with a deadline: the wait for a full collection to
// make room observes ctx, so a cancellation or deadline bounds how long
// an allocation may stall instead of blocking for as many collection
// rounds as the retry budget allows. When ctx expires mid-wait the
// error wraps both ErrStalled and ctx.Err(). The non-blocking fast path
// costs one extra ctx.Err check over Alloc.
func (m *Mutator) AllocCtx(ctx context.Context, slots, size int) (Ref, error) {
	return m.m.AllocCtx(ctx, slots, size)
}

// MustAlloc is Alloc that panics on failure; convenient in examples and
// workloads where exhausting the heap indicates a configuration error.
// The panic value is an *OOMPanic wrapping the allocation error, so a
// recover site can match it with errors.As and reach ErrOutOfMemory
// (or ErrClosed) through its chain.
func (m *Mutator) MustAlloc(slots, size int) Ref {
	r, err := m.Alloc(slots, size)
	if err != nil {
		panic(&OOMPanic{Err: err})
	}
	return r
}

// Write stores pointer y into slot i of object x through the write
// barrier (the update routine of Figures 1 and 4).
func (m *Mutator) Write(x Ref, i int, y Ref) { m.m.Update(x, i, y) }

// WriteBatch stores vals into slots 0..len(vals)-1 of object x through
// the write barrier: Write(x, j, vals[j]) for each j, so the barrier
// the model checker verifies is the only one there is.
func (m *Mutator) WriteBatch(x Ref, vals []Ref) {
	for j, y := range vals {
		m.m.Update(x, j, y)
	}
}

// Read loads pointer slot i of object x (no read barrier, per DLG).
func (m *Mutator) Read(x Ref, i int) Ref { return m.m.Read(x, i) }

// Slots returns the slot count of object x.
func (m *Mutator) Slots(x Ref) int { return m.rt.c.H.Slots(x) }

// PushRoot appends v to the mutator's root stack and returns the slot
// index. Root slots model the thread stack: no write barrier applies.
func (m *Mutator) PushRoot(v Ref) int { return m.m.PushRoot(v) }

// SetRoot overwrites root slot i.
func (m *Mutator) SetRoot(i int, v Ref) { m.m.SetRoot(i, v) }

// Root returns root slot i.
func (m *Mutator) Root(i int) Ref { return m.m.Root(i) }

// NumRoots returns the root stack depth.
func (m *Mutator) NumRoots() int { return m.m.NumRoots() }

// PopRoots drops the top n root slots.
func (m *Mutator) PopRoots(n int) { m.m.PopRoots(n) }

// Safepoint responds to pending handshakes (the cooperate routine).
func (m *Mutator) Safepoint() { m.m.Cooperate() }

// Collect requests a collection and cooperates until it completes.
func (m *Mutator) Collect(full bool) { m.m.Collect(full) }

// Detach unregisters the mutator; it must not be used afterwards.
func (m *Mutator) Detach() { m.m.Detach() }
