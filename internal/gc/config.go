// Package gc implements the on-the-fly garbage collectors of Domani,
// Kolodner and Petrank, "A Generational On-the-fly Garbage Collector for
// Java" (PLDI 2000): the DLG-style non-generational mark-and-sweep
// collector with a black/white color toggle (the paper's baseline,
// Remark 5.1), the simple generational collector with the yellow
// allocation color and color toggle (§3–§5, Figures 1–3), and the aging
// variant (§6, Figures 4–6).
//
// The collector runs in its own goroutine and never stops the mutators;
// coordination uses the paper's three-handshake protocol and write
// barrier, implemented with atomic operations in place of the paper's
// reliance on per-byte store atomicity.
package gc

import (
	"errors"
	"fmt"
	"time"

	"gengc/internal/card"
	"gengc/internal/fault"
	"gengc/internal/trace"
)

// ErrInvalidConfig is wrapped by every configuration-validation failure,
// so callers can detect the class with errors.Is and still read the
// offending field from the message.
var ErrInvalidConfig = errors.New("invalid configuration")

// ErrClosed is wrapped by operations attempted on (or interrupted by) a
// stopped collector: an allocation after Stop, or an allocation wait
// that Stop cut short.
var ErrClosed = errors.New("runtime closed")

// ErrStalled is wrapped by waits that gave up because the collector
// could not make progress within the caller's deadline — an AllocCtx
// whose context expired while waiting for a full collection to free
// memory.
var ErrStalled = errors.New("collector stalled")

// Mode selects which of the paper's collectors runs.
type Mode int

const (
	// NonGenerational is the baseline DLG collector with the
	// black/white color toggle of Remark 5.1. Every collection is a
	// full collection and the write barrier never touches cards.
	NonGenerational Mode = iota

	// Generational is the collector of §3–§5: logical generations
	// (black = old), promotion after a single collection, the yellow
	// color for objects created during a cycle, the color toggle, and
	// card marking during the async phase only.
	Generational

	// GenerationalAging is the §6 variant: a byte-per-object age side
	// table, a tenuring threshold, always-on card marking, and the
	// three-step card-clearing race protocol of §7.2.
	GenerationalAging
)

func (m Mode) String() string {
	switch m {
	case NonGenerational:
		return "non-generational"
	case Generational:
		return "generational"
	case GenerationalAging:
		return "generational+aging"
	}
	return "invalid"
}

// IsGenerational reports whether the mode maintains generations (and
// hence a card table).
func (m Mode) IsGenerational() bool { return m != NonGenerational }

// Config parameterizes a collector. The zero value is not usable; call
// (*Config).withDefaults or use the gengc package, which fills in the
// paper's defaults (32 MB heap, 4 MB young generation, 16-byte cards).
// Mode is not defaulted: its zero value runs the non-generational
// collector, so a generational run must set Mode.
type Config struct {
	// Mode selects the collector variant.
	Mode Mode

	// HeapBytes is the heap size. The paper runs with a maximum heap
	// of 32 MB. The pacer derives its full-collection trigger from it
	// (pacer.go), so any heap that holds YoungBytes is valid.
	HeapBytes int

	// YoungBytes is the size parameter of the young generation
	// (§3.3): a partial collection is triggered once the bytes
	// allocated since the previous collection exceed it. The paper
	// sweeps 1, 2, 4 and 8 MB and settles on 4 MB.
	YoungBytes int

	// CardBytes is the card size: 16 is the paper's "object marking",
	// 4096 its "block marking".
	CardBytes int

	// OldAge is the aging tenure threshold: number of collections an
	// object must survive before it is promoted (GenerationalAging
	// only). The paper counts ages from 1 at allocation; we count
	// survivals from 0, so our OldAge = paper's age − 1.
	OldAge int

	// TrackPages enables the Figure 15 pages-touched instrumentation
	// (CycleRecord.PagesTouched). The experiment harness and gctrace
	// set it: the harness's page-cost model charges per counted page.
	TrackPages bool

	// StallTimeout is the handshake watchdog deadline: when a mutator
	// has not responded to a posted handshake (or acknowledgement
	// round) for this long, the collector reports it — a "stall"
	// trace event, the OnStall callback, and the Stalls snapshot
	// counter — instead of spinning blind, then keeps waiting. It is
	// also the grace period a closing collector grants a wedged
	// handshake before aborting the cycle (see Stop). 0 selects the
	// default (1s); negative values are rejected.
	StallTimeout time.Duration

	// Fault, when non-nil, arms the deterministic fault-injection
	// layer: the injector's rules fire at the collector's named
	// seams (package fault documents the points and their
	// semantics). Nil — the default — leaves every injection point a
	// single pointer comparison.
	Fault *fault.Injector

	// TraceSink, when non-nil, receives the structured event stream
	// (one event per completed cycle carrying its metrics.Cycle
	// record, ack-round and trace-drain spans, mutator pauses; see the
	// trace package).
	// Events are buffered in lock-free per-producer rings and drained
	// to the sink at the end of every cycle and at Stop.
	TraceSink trace.Sink

	// FlightRecorderEvents, when positive, arms the anomaly flight
	// recorder (internal/telemetry): a bounded in-memory ring holding
	// the last N trace events, frozen into a dump — together with a
	// runtime snapshot — when a stall is reported, a cycle aborts, an
	// allocation gives up (OOM or ErrStalled), or a pause breaches
	// PauseSLO. The recorder taps the same event stream as TraceSink,
	// ahead of it and outside its failure isolation, so arming it
	// without a sink still turns the trace layer on.
	FlightRecorderEvents int

	// PauseSLO, when positive, is the mutator pause service-level
	// objective: every recorded pause longer than this is counted
	// (Snapshot.SLOBreaches) and triggers a flight-recorder dump when
	// one is armed.
	PauseSLO time.Duration

	// RequestSLO, when positive, is the per-request latency objective:
	// every latency fed to Collector.ObserveRequest longer than this is
	// counted (RequestSLOBreaches) and triggers a flight-recorder dump
	// when one is armed. This is end-to-end request accounting — queue
	// wait plus allocation — distinct from the per-pause histograms
	// (PAPERS.md, "Distilling the Real Cost of Production Garbage
	// Collectors": the honest metric is per-request latency, not
	// per-pause time).
	RequestSLO time.Duration

	// Admission, when non-nil, arms the admission controller
	// (admission.go): the door in front of a bounded request queue, with
	// a degraded mode driven by the pacer's occupancy/slip signals.
	// Nil — the default — means every request is admitted
	// unconditionally (Collector.Admission returns nil).
	Admission *AdmissionConfig
}

// withDefaults returns a copy with unset fields filled with the paper's
// chosen parameters (§8.3).
func (c Config) withDefaults() Config {
	if c.HeapBytes == 0 {
		c.HeapBytes = 32 << 20
	}
	if c.YoungBytes == 0 {
		c.YoungBytes = 4 << 20
	}
	if c.CardBytes == 0 {
		c.CardBytes = 16
	}
	if c.OldAge == 0 {
		c.OldAge = 3 // paper's default threshold 4, counted from age 1
	}
	if c.StallTimeout == 0 {
		c.StallTimeout = time.Second
	}
	if c.Admission != nil {
		a := *c.Admission
		if a.MaxQueue == 0 {
			a.MaxQueue = 256
		}
		c.Admission = &a
	}
	return c
}

// validate rejects configurations the collector cannot run. Every
// failure wraps ErrInvalidConfig.
func (c Config) validate() error {
	if c.Mode < NonGenerational || c.Mode > GenerationalAging {
		return fmt.Errorf("gc: %w: invalid mode %d", ErrInvalidConfig, int(c.Mode))
	}
	if c.CardBytes < card.MinSize || c.CardBytes > card.MaxSize || c.CardBytes&(c.CardBytes-1) != 0 {
		return fmt.Errorf("gc: %w: invalid card size %d", ErrInvalidConfig, c.CardBytes)
	}
	if c.YoungBytes <= 0 || c.YoungBytes > c.HeapBytes {
		return fmt.Errorf("gc: %w: invalid young generation size %d (heap %d)", ErrInvalidConfig, c.YoungBytes, c.HeapBytes)
	}
	if c.OldAge < 1 || c.OldAge > 200 {
		return fmt.Errorf("gc: %w: tenure threshold %d out of range", ErrInvalidConfig, c.OldAge)
	}
	if c.StallTimeout < 0 {
		return fmt.Errorf("gc: %w: negative stall timeout %v", ErrInvalidConfig, c.StallTimeout)
	}
	if c.FlightRecorderEvents < 0 || c.FlightRecorderEvents > 1<<20 {
		return fmt.Errorf("gc: %w: flight recorder size %d out of [0,%d]", ErrInvalidConfig, c.FlightRecorderEvents, 1<<20)
	}
	if c.PauseSLO < 0 {
		return fmt.Errorf("gc: %w: negative pause SLO %v", ErrInvalidConfig, c.PauseSLO)
	}
	if c.RequestSLO < 0 {
		return fmt.Errorf("gc: %w: negative request SLO %v", ErrInvalidConfig, c.RequestSLO)
	}
	if a := c.Admission; a != nil && (a.MaxQueue < 0 || a.MaxQueue > 1<<20) {
		return fmt.Errorf("gc: %w: admission queue bound %d out of [0,%d]", ErrInvalidConfig, a.MaxQueue, 1<<20)
	}
	return nil
}
