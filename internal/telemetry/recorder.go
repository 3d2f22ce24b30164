// Package telemetry holds the anomaly flight recorder: a bounded
// in-memory ring that continuously records the collector's trace-event
// stream at near-zero cost and, when something goes wrong — a stalled
// handshake, an aborted cycle, an out-of-memory give-up, a pause-SLO
// breach — freezes the last events plus a runtime snapshot into a Dump
// that can be serialized as JSONL for offline triage with cmd/gcreport.
//
// The Recorder is the trace layer's tap (trace.NewWithMeta): it sees
// every event ahead of any user sink and outside that sink's failure
// isolation, so a failing sink cannot starve it. Events reach it already
// serialized by the Tracer, batched once per collection cycle.
package telemetry

import (
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"gengc/internal/trace"
)

// maxDumps bounds how many trigger captures the recorder retains; older
// dumps are discarded first. Anomalies cluster (a stall storm fires the
// watchdog repeatedly), so a handful of the most recent captures is
// what a triage actually reads.
const maxDumps = 4

// minTriggerGap rate-limits dump capture: triggers within the gap of
// the previous dump are counted but capture nothing new, so a storm of
// stall reports cannot turn the recorder into an allocation hot spot.
const minTriggerGap = time.Second

// Dump is one frozen anomaly capture.
type Dump struct {
	// Reason is the trigger ("stall", "cycleabort", "oom",
	// "allocstall", "pauseslo", or "manual" for user-forced dumps).
	Reason string `json:"reason"`

	// TriggeredAt is the wall-clock capture time.
	TriggeredAt time.Time `json:"triggered_at"`

	// Events is the ring's content at the trigger, oldest first — the
	// last N trace events preceding the anomaly.
	Events []trace.Event `json:"events"`

	// Snapshot is the runtime state at the trigger (the embedder's
	// snapshot type, e.g. gengc.Snapshot), or nil when no snapshot
	// function was installed.
	Snapshot any `json:"snapshot,omitempty"`
}

// WriteJSONL serializes the dump as JSONL: one header object carrying
// the reason, time and snapshot, then one line per captured event —
// the same event encoding cmd/gcreport parses.
func (d Dump) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	header := struct {
		Ev          string    `json:"ev"`
		Reason      string    `json:"reason"`
		TriggeredAt time.Time `json:"triggered_at"`
		Events      int       `json:"events"`
		Snapshot    any       `json:"snapshot,omitempty"`
	}{Ev: "flightdump", Reason: d.Reason, TriggeredAt: d.TriggeredAt,
		Events: len(d.Events), Snapshot: d.Snapshot}
	if err := enc.Encode(header); err != nil {
		return err
	}
	for _, e := range d.Events {
		if err := enc.Encode(e); err != nil {
			return err
		}
	}
	return nil
}

// Recorder is the flight recorder. It is safe for concurrent use: the
// Tracer serializes Emit calls, while Trigger and the read accessors
// may run from any goroutine.
type Recorder struct {
	mu    sync.Mutex
	ring  []trace.Event // capacity fixed at construction
	next  int           // next write position
	wrap  bool          // ring has wrapped at least once
	dumps []Dump
	last  time.Time // last capture time (rate limiting)

	flushFn func()       // set before the first Trigger (SetFlushFn)
	snapFn  atomic.Value // func() any
	count   atomic.Int64 // total events recorded
	dumpN   atomic.Int64 // total dumps captured
	trigN   atomic.Int64 // total triggers (captured or rate-limited)
}

// NewRecorder builds a flight recorder retaining the last n events.
func NewRecorder(n int) *Recorder {
	if n < 1 {
		n = 1
	}
	return &Recorder{ring: make([]trace.Event, n)}
}

// SetSnapshotFn installs the function invoked at every capture to
// freeze the runtime state into the dump. fn runs outside the
// recorder's lock and must be safe to call from any goroutine; nil
// uninstalls.
func (r *Recorder) SetSnapshotFn(fn func() any) {
	r.snapFn.Store(fn)
}

// SetFlushFn installs the function a capturing Trigger runs before it
// copies the ring: the tracer's flush, which drains the producers'
// rings into the recorder so the event that provoked the trigger is
// inside the window. A trigger the rate limit drops never runs it, so
// a storm of triggers costs no flushes. Call it before the first
// Trigger.
func (r *Recorder) SetFlushFn(fn func()) { r.flushFn = fn }

// Emit records one event into the ring (the tracer's tap).
func (r *Recorder) Emit(e trace.Event) {
	r.mu.Lock()
	r.ring[r.next] = e
	r.next++
	if r.next == len(r.ring) {
		r.next = 0
		r.wrap = true
	}
	r.mu.Unlock()
	r.count.Add(1)
}

// eventsLocked copies the ring's contents, oldest first. Caller holds
// mu.
func (r *Recorder) eventsLocked() []trace.Event {
	if !r.wrap {
		out := make([]trace.Event, r.next)
		copy(out, r.ring[:r.next])
		return out
	}
	out := make([]trace.Event, 0, len(r.ring))
	out = append(out, r.ring[r.next:]...)
	out = append(out, r.ring[:r.next]...)
	return out
}

// Events returns the ring's current contents, oldest first.
func (r *Recorder) Events() []trace.Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.eventsLocked()
}

// Trigger captures a dump for reason, unless a capture happened within
// the rate-limit gap. It reports whether a dump was actually taken;
// either way the trigger is counted. The flush and snapshot functions
// run outside the lock, so a flush that emits into the ring, or a
// Snapshot that itself reads tracer state, cannot deadlock against it.
func (r *Recorder) Trigger(reason string) bool {
	r.trigN.Add(1)
	now := time.Now()
	r.mu.Lock()
	if !r.last.IsZero() && now.Sub(r.last) < minTriggerGap {
		r.mu.Unlock()
		return false
	}
	r.last = now
	r.mu.Unlock()
	if r.flushFn != nil {
		r.flushFn()
	}

	d := Dump{Reason: reason, TriggeredAt: now, Events: r.Events()}
	if fn, _ := r.snapFn.Load().(func() any); fn != nil {
		d.Snapshot = fn()
	}

	r.mu.Lock()
	r.dumps = append(r.dumps, d)
	if len(r.dumps) > maxDumps {
		r.dumps = append(r.dumps[:0], r.dumps[len(r.dumps)-maxDumps:]...)
	}
	r.mu.Unlock()
	r.dumpN.Add(1)
	return true
}

// Dumps returns the retained captures, oldest first.
func (r *Recorder) Dumps() []Dump {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Dump, len(r.dumps))
	copy(out, r.dumps)
	return out
}

// LastDump returns the most recent capture, if any.
func (r *Recorder) LastDump() (Dump, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.dumps) == 0 {
		return Dump{}, false
	}
	return r.dumps[len(r.dumps)-1], true
}

// DumpCount returns how many dumps have been captured over the
// recorder's lifetime (retained or since discarded).
func (r *Recorder) DumpCount() int64 { return r.dumpN.Load() }

// TriggerCount returns how many triggers fired, including rate-limited
// ones that captured nothing.
func (r *Recorder) TriggerCount() int64 { return r.trigN.Load() }

// EventCount returns how many events the ring has seen in total.
func (r *Recorder) EventCount() int64 { return r.count.Load() }
