package gc

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"gengc/internal/trace"
)

// ErrShed is wrapped by admissions the controller rejected: the queue
// was full, the runtime was degraded and the request was low-priority,
// or the runtime was draining. Callers distinguish the class with
// errors.Is and must treat it as backpressure — drop or retry
// elsewhere, never spin.
var ErrShed = errors.New("request shed")

// Admit's rejections, built once: a shed storm allocates nothing.
var (
	errShedDraining  = fmt.Errorf("gc: admission: draining: %w", ErrShed)
	errShedDegraded  = fmt.Errorf("gc: admission: degraded mode: %w", ErrShed)
	errShedQueueFull = fmt.Errorf("gc: admission: queue full: %w", ErrShed)
)

// Priority classifies a request for the admission controller's degraded
// mode: when the pacer reports the heap over the red-line watermark or
// allocation deadlines slipping, PriorityLow requests are shed at the
// door while PriorityHigh requests still queue. With a healthy runtime
// the two are admitted identically.
type Priority int

const (
	PriorityLow Priority = iota
	PriorityHigh
)

func (p Priority) String() string {
	switch p {
	case PriorityLow:
		return "low"
	case PriorityHigh:
		return "high"
	}
	return "invalid"
}

// AdmissionConfig parameterizes the admission controller (Config.
// Admission; the gengc facade sets it via WithAdmission).
type AdmissionConfig struct {
	// MaxQueue bounds the requests waiting to be served; a request
	// arriving with the queue full is shed immediately (ErrShed).
	// 0 selects the default, 256.
	MaxQueue int
}

// Degraded mode's two thresholds are fixed policy, like the pacer's.
const (
	// redLine is the heap-occupancy watermark, as a fraction of the
	// pacer's emergency full-collection bound, above which the
	// controller is degraded and sheds PriorityLow requests: degrade at
	// 90% of the occupancy that would force an emergency full
	// collection — shed before OOM, never after.
	redLine = 0.9

	// slipWindow is how long after an allocation-deadline slip
	// (AllocCtx expiring in the allocation slow path, or an OOM
	// give-up) the controller stays degraded.
	slipWindow = 250 * time.Millisecond
)

// AdmissionStats is the controller's cumulative-counter snapshot
// (Snapshot.Admission in the facade).
type AdmissionStats struct {
	// Enabled reports whether an admission controller is armed at all;
	// every other field is zero when it is not.
	Enabled bool

	// Admitted counts requests taken up before their deadline passed
	// (Start); Shed is the sum of the four shed classes below.
	Admitted int64
	Shed     int64

	// ShedQueueFull counts requests rejected at the door because
	// MaxQueue requests were already waiting; ShedTimeout counts queued
	// requests whose deadline passed unserved (Expire); ShedDegraded
	// counts PriorityLow requests rejected while the runtime was
	// degraded; ShedDraining counts requests rejected after BeginDrain
	// or dropped by a drain that ran out of time (Abandon).
	ShedQueueFull int64
	ShedTimeout   int64
	ShedDegraded  int64
	ShedDraining  int64

	// DegradedEnters counts transitions into degraded mode; Degraded
	// is the current state.
	DegradedEnters int64
	Degraded       bool

	// Queued (waiting) and InFlight (being served) are gauges.
	Queued   int64 `metric:"gauge"`
	InFlight int64 `metric:"gauge"`
}

// Admission is the runtime's admission controller: the door in front of
// a bounded queue of waiting requests, with a degraded mode driven by
// the pacer's occupancy and deadline-slip signals. It exists to convert
// overload into prompt, cheap rejections (ErrShed) instead of unbounded
// queueing, SLO collapse, or OOM. The queue is the caller's
// (internal/server keeps a newest-first stack); a request passes Admit,
// then Start and Finish when served, or Expire or Abandon when dropped.
//
// The controller is deliberately runtime-level rather than server-level:
// it reads the pacer directly, so any embedder — not just
// internal/server — gets the same shed-before-OOM policy.
type Admission struct {
	c   *Collector
	cfg AdmissionConfig

	// slipWindow is the package constant, held per controller so tests
	// can shorten it.
	slipWindow time.Duration

	draining atomic.Bool
	degraded atomic.Bool

	queued   atomic.Int64
	inflight atomic.Int64

	admitted       atomic.Int64
	shedQueueFull  atomic.Int64
	shedTimeout    atomic.Int64
	shedDegraded   atomic.Int64
	shedDraining   atomic.Int64
	degradedEnters atomic.Int64

	// ring is the controller's trace-event buffer. Rings are SPSC;
	// Admit runs on arbitrary caller goroutines, so emission is
	// serialized by the mutex.
	ring struct {
		sync.Mutex
		r *trace.Ring
	}
}

// newAdmission builds the controller. cfg must already have defaults
// applied and be validated (Config.withDefaults/validate do both).
func newAdmission(c *Collector, cfg AdmissionConfig) *Admission {
	a := &Admission{c: c, cfg: cfg, slipWindow: slipWindow}
	if c.tracer != nil {
		a.ring.r = c.tracer.NewRing()
	}
	return a
}

// Admit is the door: it decides, without blocking, whether a request of
// priority pri may join the queue. It returns an error wrapping ErrShed
// when the runtime is draining, when it is degraded and pri is
// PriorityLow, or when MaxQueue requests are already queued; on nil the
// request holds one queue place until the caller reports it with Start,
// Expire or Abandon.
func (a *Admission) Admit(pri Priority) error {
	if a.draining.Load() {
		a.shedDraining.Add(1)
		a.noteShed("draining", pri)
		return errShedDraining
	}
	if a.refreshDegraded() && pri == PriorityLow {
		a.shedDegraded.Add(1)
		a.noteShed("degraded", pri)
		return errShedDegraded
	}
	// Reserve the place first, so concurrent callers can never hold
	// more than MaxQueue of them.
	if a.queued.Add(1) > int64(a.cfg.MaxQueue) {
		a.queued.Add(-1)
		a.shedQueueFull.Add(1)
		a.noteShed("queuefull", pri)
		return errShedQueueFull
	}
	return nil
}

// Start moves one queued request into service: a worker took it up
// before its deadline passed. Finish ends the service.
func (a *Admission) Start() {
	a.queued.Add(-1)
	a.admitted.Add(1)
	a.inflight.Add(1)
}

// Finish ends the service of a request Start began.
func (a *Admission) Finish() { a.inflight.Add(-1) }

// Expire drops one queued request whose deadline passed before a worker
// took it up, as a timeout shed. It allocates nothing.
func (a *Admission) Expire(pri Priority) {
	a.queued.Add(-1)
	a.shedTimeout.Add(1)
	a.noteShed("timeout", pri)
}

// Abandon drops one queued request that a drain ran out of time to
// serve, counting it as a draining shed.
func (a *Admission) Abandon(pri Priority) {
	a.queued.Add(-1)
	a.shedDraining.Add(1)
	a.noteShed("draining", pri)
}

// BeginDrain stops admission permanently: subsequent Admit calls shed
// with reason "draining". Queued and in-flight requests are unaffected —
// the caller flushes them (internal/server's Drain) and then stops the
// runtime. Collector.Stop also calls this, so a bare Close sheds
// instead of stranding late arrivals.
func (a *Admission) BeginDrain() { a.draining.Store(true) }

// Degraded reports whether the controller is currently in degraded
// mode (refreshing the state from the pacer first, so pollers see the
// live verdict, not the last Admit's).
func (a *Admission) Degraded() bool { return a.refreshDegraded() }

// refreshDegraded recomputes degraded mode from the pacer's two
// robustness signals — heap occupancy against the red-line watermark
// and recent allocation-deadline slips — and emits the enter/exit
// transition events.
func (a *Admission) refreshDegraded() bool {
	deg := a.c.pacer.OccupancyRatio() >= redLine ||
		a.c.pacer.SlipWithin(a.slipWindow)
	if deg {
		if a.degraded.CompareAndSwap(false, true) {
			a.degradedEnters.Add(1)
			a.emit("degraded", "enter", 0)
			a.c.triggerDump("degraded")
		}
	} else if a.degraded.CompareAndSwap(true, false) {
		a.emit("degraded", "exit", 0)
	}
	return deg
}

// noteShed emits the trace event and flight-recorder trigger for one
// shed request.
func (a *Admission) noteShed(reason string, pri Priority) {
	a.emit("shed", reason, int64(pri))
	a.c.triggerDump("shed")
}

// emit publishes one admission event. Worker -1 marks events not
// attributable to a mutator; N carries the request priority.
func (a *Admission) emit(ev, kind string, n int64) {
	a.ring.Lock()
	defer a.ring.Unlock()
	if a.ring.r == nil {
		return
	}
	a.ring.r.Emit(trace.Event{
		Ev:     ev,
		T:      a.c.tracer.Rel(time.Now()),
		Worker: -1,
		N:      n,
		K:      kind,
	})
}

// Stats snapshots the controller's counters.
func (a *Admission) Stats() AdmissionStats {
	sqf, st := a.shedQueueFull.Load(), a.shedTimeout.Load()
	sd, sdr := a.shedDegraded.Load(), a.shedDraining.Load()
	return AdmissionStats{
		Enabled:        true,
		Admitted:       a.admitted.Load(),
		Shed:           sqf + st + sd + sdr,
		ShedQueueFull:  sqf,
		ShedTimeout:    st,
		ShedDegraded:   sd,
		ShedDraining:   sdr,
		DegradedEnters: a.degradedEnters.Load(),
		Degraded:       a.degraded.Load(),
		Queued:         a.queued.Load(),
		InFlight:       a.inflight.Load(),
	}
}
