// Package trace is the collector's structured event layer: one event
// per completed collection cycle carrying its record, spans for the
// trace-termination acknowledgement rounds and the trace drains, plus
// per-mutator pause events, all delivered to a pluggable Sink.
//
// Producers (the collector goroutine, each mutator) write into private
// single-producer ring buffers, so emitting an event on a hot path costs
// one index check and one array store — no lock, no allocation. The collector drains every ring into the sink at
// the end of each cycle and on shutdown; events therefore reach the sink
// grouped by producer, not globally time-ordered, and consumers sort by
// the T field when order matters (cmd/gcreport does).
//
// The JSONL sink writes one JSON object per event, the interchange
// format consumed by cmd/gcreport to render the paper-style pause and
// phase figures (see OBSERVABILITY.md for the event ↔ figure map).
package trace

import (
	"bufio"
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"gengc/internal/fault"
	"gengc/internal/metrics"
)

// Event is one timestamped span or point event. The fixed field set
// keeps the ring buffers copy-cheap and the JSONL lines uniform.
//
// Event kinds emitted by the collector (the Ev field):
//
//	start     runtime created; marks a run boundary in concatenated
//	          traces (T is 0 at the runtime's epoch). K carries the
//	          run metadata string when the tracer was built with
//	          NewWithMeta ("gomaxprocs=8 mode=generational
//	          version=(devel)"), so multi-run concatenations stay
//	          labeled
//	cycle     one whole collection cycle; K = "partial"|"full",
//	          Rec = its metrics.Cycle record (phase durations, trace,
//	          card, sweep, promotion and allocator counts)
//	ack       one trace-termination acknowledgement round; N = epoch
//	drain     one trace drain of the collector's gray stack; W = 0,
//	          N = objects blackened (per cycle they sum to the
//	          cycle's objects scanned)
//	pause     one mutator-visible delay; W = mutator id,
//	          K = "roots"|"handshake"|"ack"|"allocwait"
//	stall     the handshake watchdog caught a mutator past the stall
//	          deadline; W = mutator id, K = the wait's phase
//	          ("sync1"|"sync2"|"sync3"|"ack"), D = how long the
//	          collector had been waiting when the report fired
//	cycleabort a cycle abandoned at close (wedged handshake past the
//	          grace period); K = the phase it was wedged in
//	shed      the admission controller turned a request away; W = -1,
//	          K = the cause, N = the request priority
//	degraded  the admission controller entered or left its degraded
//	          state; W = -1, K = "enter"|"exit"
//	drops     events lost to ring overflow (emitted at Close); N = count
type Event struct {
	// Ev is the event kind (see the table above).
	Ev string `json:"ev"`

	// T is the span's start time in nanoseconds since the runtime's
	// epoch (its creation).
	T int64 `json:"t"`

	// D is the span's duration in nanoseconds (0 for point events).
	D int64 `json:"d"`

	// Cycle is the collection cycle the event belongs to (1-based,
	// matching metrics.Cycle.Seq); 0 when the event is not tied to a
	// cycle (mutator pauses, run boundaries).
	Cycle int64 `json:"cyc,omitempty"`

	// Worker is the mutator id a pause or stall event concerns; 0 on
	// the collector's own events, -1 on the admission controller's.
	Worker int `json:"w"`

	// N and M are kind-specific counts (see the table above).
	N int64 `json:"n,omitempty"`
	M int64 `json:"m,omitempty"`

	// K is a kind-specific detail string (cycle kind, pause cause).
	K string `json:"k,omitempty"`

	// Rec is the finished cycle's record, on "cycle" events only.
	Rec *metrics.Cycle `json:"rec,omitempty"`
}

// Sink receives the event stream. The Tracer serializes all calls, so
// implementations need no locking of their own unless they are shared
// between tracers.
type Sink interface {
	// Emit delivers one event.
	Emit(Event)
	// Flush pushes buffered output downstream (called at the end of
	// every collection cycle and at Close).
	Flush() error
}

// ringSize is the per-producer buffer capacity. Rings are drained at
// least once per collection cycle, which emits a few dozen events per
// producer, so overflow indicates a stalled drain rather than a
// too-small buffer; overflowing events are dropped and counted.
const ringSize = 2048

// Ring is a single-producer, single-consumer event buffer. The producer
// (one goroutine at a time) calls Emit; the consumer (the Tracer, under
// its lock) drains. head is written only by the producer and tail only
// by the consumer, so both sides synchronize on one atomic load each —
// the producer's store of head publishes the event written before it.
type Ring struct {
	buf     [ringSize]Event
	head    atomic.Int64 // next slot to write (producer)
	tail    atomic.Int64 // next slot to read (consumer)
	dropped atomic.Int64
}

// Emit appends one event, dropping it (and counting the drop) when the
// ring is full. Producer side only.
func (r *Ring) Emit(e Event) {
	h := r.head.Load()
	if h-r.tail.Load() >= ringSize {
		r.dropped.Add(1)
		return
	}
	r.buf[h&(ringSize-1)] = e
	r.head.Store(h + 1)
}

// Dropped reports how many events overflowed the ring so far.
func (r *Ring) Dropped() int64 { return r.dropped.Load() }

// drain hands every buffered event to fn. Consumer side only.
func (r *Ring) drain(fn func(Event)) {
	t := r.tail.Load()
	h := r.head.Load()
	for ; t < h; t++ {
		fn(r.buf[t&(ringSize-1)])
	}
	r.tail.Store(t)
}

// sinkFailureLimit is how many consecutive sink failures (a panic out
// of Emit/Flush, a Flush error, or an injected fault) the tracer
// tolerates before degrading. Degradation is one-way: the sink is never
// called again and every subsequent event is counted as a drop, so a
// broken sink costs the collector one atomic load per flush instead of
// a panic on its goroutine.
const sinkFailureLimit = 3

// Tracer owns the rings and the sink for one runtime. All methods are
// safe for concurrent use; Emit paths go through per-producer rings and
// never block on the sink.
//
// Sink failures are isolated: calls into the sink run under a recover,
// and after sinkFailureLimit consecutive failures the tracer degrades —
// the sink is cut off (its events become counted drops) rather than
// taking the collector down with it. The isolation covers the sink
// only: the tap, a trusted in-process consumer (the flight recorder),
// sees every event whatever the sink does.
type Tracer struct {
	sink  Sink        // nil when the tap is the only consumer
	tap   func(Event) // nil when there is none
	epoch time.Time

	flt       *fault.Injector // SinkWrite injection; nil = disabled
	degraded  atomic.Bool
	sinkDrops atomic.Int64

	mu       sync.Mutex
	rings    []*Ring
	closed   bool
	failures int // consecutive sink failures, under mu
}

// New starts a tracer over sink and emits the run-boundary "start"
// event. The epoch for all event timestamps is the moment of creation.
func New(sink Sink) *Tracer {
	return NewWithMeta(sink, nil, "")
}

// NewWithMeta is New with a tap, which receives every event ahead of
// the sink and outside its failure isolation (either may be nil), and a
// run-metadata string stamped into the "start" event's K field,
// labeling this run in concatenated traces.
func NewWithMeta(sink Sink, tap func(Event), meta string) *Tracer {
	t := &Tracer{sink: sink, tap: tap, epoch: time.Now()}
	t.mu.Lock()
	t.safeEmit(Event{Ev: "start", K: meta})
	t.mu.Unlock()
	return t
}

// SetInjector installs the fault injector consulted before every sink
// call (the SinkWrite point; the tap is never faulted). A Fail decision
// is treated exactly like a sink error; nil uninstalls.
func (t *Tracer) SetInjector(in *fault.Injector) {
	t.mu.Lock()
	t.flt = in
	t.mu.Unlock()
}

// Degraded reports whether the sink has been cut off after repeated
// failures.
func (t *Tracer) Degraded() bool { return t.degraded.Load() }

// SinkDrops reports how many events were dropped because the sink had
// degraded.
func (t *Tracer) SinkDrops() int64 { return t.sinkDrops.Load() }

// Drops reports every event lost so far: ring overflow plus events
// discarded after sink degradation.
func (t *Tracer) Drops() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := t.sinkDrops.Load()
	for _, r := range t.rings {
		n += r.Dropped()
	}
	return n
}

// noteFailure records one sink failure and degrades the tracer once the
// consecutive-failure budget is spent. Caller holds mu.
func (t *Tracer) noteFailure() {
	t.failures++
	if t.failures >= sinkFailureLimit {
		t.degraded.Store(true)
	}
}

// safeEmit delivers one event to the tap, then to the sink, absorbing
// the sink's panics and injected faults. An event the sink lost counts
// as a drop. Caller holds mu.
func (t *Tracer) safeEmit(e Event) {
	if t.tap != nil {
		t.tap(e)
	}
	if t.sink == nil {
		return
	}
	if t.degraded.Load() {
		t.sinkDrops.Add(1)
		return
	}
	if t.flt != nil {
		if _, fail := t.flt.Inject(fault.SinkWrite); fail {
			t.sinkDrops.Add(1)
			t.noteFailure()
			return
		}
	}
	defer func() {
		if recover() != nil {
			t.sinkDrops.Add(1)
			t.noteFailure()
		}
	}()
	t.sink.Emit(e)
}

// safeFlush pushes the sink's buffer downstream, absorbing panics and
// counting errors against the failure budget. Caller holds mu.
func (t *Tracer) safeFlush() {
	if t.sink == nil || t.degraded.Load() {
		return
	}
	defer func() {
		if recover() != nil {
			t.noteFailure()
		}
	}()
	if err := t.sink.Flush(); err != nil {
		t.noteFailure()
		return
	}
	// Only a successful Flush resets the consecutive-failure budget:
	// Emit cannot report errors (a broken JSONLSink's Emit is a silent
	// no-op), so treating it as a success would mask a dead sink.
	t.failures = 0
}

// Epoch returns the tracer's time origin.
func (t *Tracer) Epoch() time.Time { return t.epoch }

// Rel converts an absolute time to nanoseconds since the epoch.
func (t *Tracer) Rel(at time.Time) int64 { return at.Sub(t.epoch).Nanoseconds() }

// NewRing registers and returns a ring for one producer goroutine.
func (t *Tracer) NewRing() *Ring {
	r := &Ring{}
	t.mu.Lock()
	t.rings = append(t.rings, r)
	t.mu.Unlock()
	return r
}

// Flush drains every ring into the sink and flushes it. Called by the
// collector at the end of each cycle; concurrent producers keep
// emitting into the undrained tail unharmed.
func (t *Tracer) Flush() {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return
	}
	for _, r := range t.rings {
		r.drain(t.safeEmit)
	}
	t.safeFlush()
}

// Close performs the final drain, reports ring overflow if any occurred,
// and flushes the sink. Further Flush/Close calls are no-ops; events
// emitted after Close are silently lost.
func (t *Tracer) Close() {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return
	}
	t.closed = true
	var drops int64
	for _, r := range t.rings {
		r.drain(t.safeEmit)
		drops += r.dropped.Load()
	}
	drops += t.sinkDrops.Load()
	if drops > 0 {
		t.safeEmit(Event{Ev: "drops", T: t.Rel(time.Now()), N: drops})
	}
	t.safeFlush()
}

// JSONLSink writes one JSON object per event — the format cmd/gcreport
// ingests. It buffers internally; the first write error is retained and
// reported by Err (and by the final Flush).
type JSONLSink struct {
	w   *bufio.Writer
	enc *json.Encoder
	err error
}

// NewJSONLSink wraps w in a buffered JSONL event writer.
func NewJSONLSink(w io.Writer) *JSONLSink {
	bw := bufio.NewWriter(w)
	return &JSONLSink{w: bw, enc: json.NewEncoder(bw)}
}

// Emit writes one event as a JSON line.
func (s *JSONLSink) Emit(e Event) {
	if s.err != nil {
		return
	}
	s.err = s.enc.Encode(e)
}

// Flush drains the internal buffer to the underlying writer.
func (s *JSONLSink) Flush() error {
	if s.err != nil {
		return s.err
	}
	s.err = s.w.Flush()
	return s.err
}

// Err returns the first error encountered while writing, if any.
func (s *JSONLSink) Err() error { return s.err }

// MemorySink collects events in memory; intended for tests and for
// embedders that post-process a run's events without serializing them.
type MemorySink struct {
	mu     sync.Mutex
	events []Event
}

// Emit appends the event.
func (s *MemorySink) Emit(e Event) {
	s.mu.Lock()
	s.events = append(s.events, e)
	s.mu.Unlock()
}

// Flush is a no-op.
func (s *MemorySink) Flush() error { return nil }

// Events returns a copy of everything emitted so far.
func (s *MemorySink) Events() []Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Event, len(s.events))
	copy(out, s.events)
	return out
}
