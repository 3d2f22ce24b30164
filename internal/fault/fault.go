// Package fault names the runtime's coordination seams and provides
// two consumers for them.
//
// The first is the deterministic, seeded fault-injection layer for the
// collector's chaos testing: named injection points are threaded
// through the runtime's coordination seams (handshake posting and
// acknowledgement, safe-point cooperation, trace drains, block-walk
// chunks, allocation, trace-sink writes, card scans); an armed Injector
// decides at each hit whether to delay the caller, drop the operation
// once, or fail it, with a configured probability drawn from a
// reproducible per-point PRNG stream.
//
// The second is the Scheduler interface: the same points double as the
// schedulable steps of a deterministic virtual scheduler
// (internal/modelcheck), which parks the calling goroutine at every
// point and replays systematically enumerated interleavings. Each call
// site in the collector is one combined injection/yield point — the
// production build holds a nil Injector and a nil Scheduler and pays
// two pointer comparisons per site.
//
// Determinism: every injection point owns its own PRNG stream, derived
// from the campaign seed and the point's identity. The k-th hit at a
// point therefore always receives the same decision for the same seed
// and rule set, regardless of how the scheduler interleaves the other
// points — re-running a campaign with the same seed reproduces the
// identical per-point fault schedule.
//
// Cost when disabled: the collector holds a nil *Injector and every
// call site guards with a single pointer comparison, so an unarmed
// build pays nothing on its hot paths. All Injector methods are also
// nil-receiver safe and return zero decisions.
package fault

import (
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// Point names one injection point in the runtime.
type Point int

const (
	// HandshakePost fires in the collector before it publishes a new
	// handshake status (delay only: the status store itself must
	// happen, so Drop/Fail rules are coerced to their Delay).
	HandshakePost Point = iota

	// HandshakeAck fires in the collector at the start of every
	// trace-termination acknowledgement round (delay only).
	HandshakeAck

	// Cooperate fires in a mutator's safe point when it has a pending
	// handshake or acknowledgement to respond to: Delay stalls the
	// mutator before it responds (the stalled-mutator scenario the
	// watchdog must surface); Drop and Fail skip this response — the
	// mutator answers at its next safe point instead.
	Cooperate

	// SweepShard fires once per 16-block chunk of a block walk — the
	// sweep and the full-collection recoloring pass (delay only:
	// skipping a chunk would leave dead cells unreclaimed and stale
	// block hints behind).
	SweepShard

	// Alloc fires in the allocation path: Drop/Fail simulate a
	// transient out-of-memory, driving the mutator into the
	// full-collection retry path; Delay stalls the allocation.
	Alloc

	// SinkWrite fires when the tracer drains its rings into the
	// configured sink: Drop/Fail simulate a sink write failure (the
	// drained events are counted as dropped and the degradation
	// counter advances), Delay a slow sink.
	SinkWrite

	// CardScan fires once per dirty card inside the §7.2 window: the
	// card's mark has been cleared (step 1) but its objects are not yet
	// scanned (step 2). Delay-only; armed only when a scheduler or
	// injector is installed, so the production scan loop stays branch-
	// free per card.
	CardScan

	// TraceDrain fires once per object the collector pops from its
	// gray stack (delay only). Like CardScan it is
	// guarded by an armed-seam check hoisted out of the drain loop.
	TraceDrain

	// HandshakeWait and AckWait are scheduler wait points, not
	// injection points: the collector parks on them while waiting for
	// every mutator to respond to a posted status or acknowledgement
	// epoch. The chaos injector never evaluates them (the real
	// scheduler's spin loop has its own watchdog and backoff); the
	// virtual scheduler blocks the collector actor on them until its
	// readiness predicate holds.
	HandshakeWait
	AckWait

	// NumPoints is the number of injection points.
	NumPoints
)

func (p Point) String() string {
	switch p {
	case HandshakePost:
		return "handshake-post"
	case HandshakeAck:
		return "handshake-ack"
	case Cooperate:
		return "cooperate"
	case SweepShard:
		return "sweep-shard"
	case Alloc:
		return "alloc"
	case SinkWrite:
		return "sink-write"
	case CardScan:
		return "card-scan"
	case TraceDrain:
		return "trace-drain"
	case HandshakeWait:
		return "handshake-wait"
	case AckWait:
		return "ack-wait"
	}
	return fmt.Sprintf("point(%d)", int(p))
}

// Scheduler is the deterministic-scheduler seam. When the collector is
// built with one (gc.NewScheduled), every injection point
// becomes a schedulable step: the calling actor announces the point it
// reached and blocks until the scheduler resumes it with a Decision,
// and the collector's wait loops block on Wait instead of spinning.
//
// The contract assumed by the collector:
//
//   - Step may block the calling goroutine arbitrarily long; the
//     returned Decision is interpreted exactly like an Injector
//     decision at the same point (Drop/Fail are honored only where the
//     injector honors them).
//   - Wait blocks until ready() holds or the run is being abandoned; a
//     false return tells the caller to give up the wait, which the
//     collector maps onto its existing close-abort path (abortCycle).
//     ready must be safe to call from the scheduler's goroutine.
//
// Implementations serialize execution — at most one actor runs between
// parks — so neither method needs an actor identity parameter: the
// scheduler knows whom it resumed.
type Scheduler interface {
	Step(p Point) Decision
	Wait(p Point, ready func() bool) bool
}

// Kind is what a rule does to the operation when it fires.
type Kind int

const (
	// Delay pauses the caller for Rule.Delay before the operation
	// proceeds.
	Delay Kind = iota

	// Drop suppresses the operation this time; the caller skips it
	// and retries through its normal path (a missed safe-point
	// response, a dropped sink write).
	Drop

	// Fail makes the operation report failure to its caller (a
	// transient allocation failure, a sink write error).
	Fail
)

func (k Kind) String() string {
	switch k {
	case Delay:
		return "delay"
	case Drop:
		return "drop"
	case Fail:
		return "fail"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Rule arms one behavior at one injection point.
type Rule struct {
	// Point is the injection point the rule applies to.
	Point Point

	// Kind is the injected behavior.
	Kind Kind

	// P is the per-hit firing probability in (0, 1]; 0 is treated as
	// "always" (1.0) so the zero value of a partially filled rule
	// still does something.
	P float64

	// Delay is the injected pause for Delay rules (and the fallback
	// behavior at points that coerce Drop/Fail to a delay).
	Delay time.Duration

	// Count bounds how many times the rule fires before it disarms;
	// 0 means unlimited. Count == 1 is the "drop-once" /
	// "fail-once" form.
	Count int
}

// Decision is the merged outcome of all rules that fired at one hit.
type Decision struct {
	// Delay is the total injected pause the caller should apply (the
	// Inject convenience sleeps it for you).
	Delay time.Duration

	// Drop tells the caller to skip the operation this time.
	Drop bool

	// Fail tells the caller to fail the operation.
	Fail bool
}

// PointStats is one injection point's campaign accounting.
type PointStats struct {
	Point Point
	Hits  int64 // times the point was evaluated
	Fired int64 // times at least one rule fired
}

// pointState is one point's rules and PRNG stream. Each point has its
// own lock so concurrent hits at different points never contend, and
// its own rand stream so decisions depend only on (seed, point, hit
// index within the point), never on cross-point interleaving.
type pointState struct {
	mu    sync.Mutex
	rng   *rand.Rand
	rules []Rule
	hits  int64
	fired int64
}

// Injector holds the armed rules for one chaos campaign. The zero
// value is not usable; construct with New. A nil *Injector is the
// disabled state: every method is nil-safe and decides nothing.
type Injector struct {
	seed   int64
	points [NumPoints]pointState
}

// New returns an injector whose per-point streams derive from seed.
// No rules are armed yet; Install them.
func New(seed int64) *Injector {
	in := &Injector{seed: seed}
	for p := range in.points {
		// splitmix-style per-point seed derivation: points must not
		// share a stream, or the schedule at one point would depend
		// on how often another point is hit.
		s := uint64(seed) + uint64(p+1)*0x9e3779b97f4a7c15
		s ^= s >> 30
		s *= 0xbf58476d1ce4e5b9
		s ^= s >> 27
		in.points[p].rng = rand.New(rand.NewSource(int64(s)))
	}
	return in
}

// Seed returns the campaign seed the injector was built from.
func (in *Injector) Seed() int64 {
	if in == nil {
		return 0
	}
	return in.seed
}

// Install arms one rule. Rules at the same point are evaluated in
// installation order on every hit.
func (in *Injector) Install(r Rule) {
	if in == nil {
		return
	}
	if r.Point < 0 || r.Point >= NumPoints {
		panic(fmt.Sprintf("fault: rule for unknown point %d", int(r.Point)))
	}
	if r.P == 0 {
		r.P = 1
	}
	st := &in.points[r.Point]
	st.mu.Lock()
	st.rules = append(st.rules, r)
	st.mu.Unlock()
}

// At evaluates point p for one hit and returns the merged decision of
// every rule that fired. Nil-safe: a nil injector decides nothing.
func (in *Injector) At(p Point) Decision {
	var d Decision
	if in == nil {
		return d
	}
	st := &in.points[p]
	st.mu.Lock()
	st.hits++
	fired := false
	kept := st.rules[:0]
	for _, r := range st.rules {
		hit := r.P >= 1 || st.rng.Float64() < r.P
		if hit {
			fired = true
			switch r.Kind {
			case Delay:
				d.Delay += r.Delay
			case Drop:
				d.Drop = true
			case Fail:
				d.Fail = true
			}
			if r.Count > 0 {
				r.Count--
				if r.Count == 0 {
					continue // exhausted: disarm
				}
			}
		}
		kept = append(kept, r)
	}
	st.rules = kept
	if fired {
		st.fired++
	}
	st.mu.Unlock()
	return d
}

// Inject is the call-site convenience: it evaluates point p, sleeps
// any injected delay, and reports whether the operation should be
// dropped or failed. Nil-safe.
func (in *Injector) Inject(p Point) (drop, fail bool) {
	if in == nil {
		return false, false
	}
	d := in.At(p)
	if d.Delay > 0 {
		time.Sleep(d.Delay)
	}
	return d.Drop, d.Fail
}

// Stats returns per-point hit/fire counts for every point that was
// evaluated or armed at least once.
func (in *Injector) Stats() []PointStats {
	if in == nil {
		return nil
	}
	var out []PointStats
	for p := range in.points {
		st := &in.points[p]
		st.mu.Lock()
		if st.hits > 0 || len(st.rules) > 0 || st.fired > 0 {
			out = append(out, PointStats{Point: Point(p), Hits: st.hits, Fired: st.fired})
		}
		st.mu.Unlock()
	}
	return out
}

// Fired returns how many hits at p fired at least one rule.
func (in *Injector) Fired(p Point) int64 {
	if in == nil {
		return 0
	}
	st := &in.points[p]
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.fired
}
