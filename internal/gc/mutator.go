package gc

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"gengc/internal/fault"
	"gengc/internal/heap"
	"gengc/internal/metrics"
	"gengc/internal/trace"
)

// Mutator is one program thread's view of the runtime: its allocation
// cache, its simulated stack of root slots, its handshake status, and
// its gray buffer. All methods must be called from the single goroutine
// that owns the mutator; the collector reads the atomic fields.
//
// The three mutator routines of Figure 1 map to Update (the write
// barrier), Alloc (create) and Cooperate.
type Mutator struct {
	c  *Collector
	id int

	status atomic.Uint32 // Status, observed by waitHandshake

	cache heap.Cache

	// pend is the allocation accounting not yet published to the
	// collector (publishAllocs): requested bytes for the pacer, charged
	// cell bytes and objects for the heap totals. Owner-only plain words.
	pend struct{ req, bytes, objects int64 }

	// roots is the simulated thread stack. Only the owning goroutine
	// reads or writes it: per DLG there is no write barrier on stack
	// operations, and the mutator itself marks these roots when it
	// responds to the third handshake.
	roots []heap.Addr

	// gray is the buffer of objects this mutator has shaded gray; the
	// collector drains it during trace.
	gray struct {
		sync.Mutex
		buf []heap.Addr
	}

	// ack mirrors the collector's ackEpoch when the mutator passes a
	// safe point.
	ack atomic.Int64

	// pauses is this mutator's latency histogram of GC-imposed delays;
	// ring is its trace event buffer (nil without a TraceSink).
	pauses *metrics.Histogram
	ring   *trace.Ring

	detached atomic.Bool

	// The pad rounds Mutator up to 384 bytes, a multiple of 64, so its
	// allocation size class keeps every Mutator cache-line aligned
	// (TestMutatorLayout). At 288 bytes — a class that alternates
	// alignment — old_mutation lost ~1.5 % CPU per op.
	_ [40]byte
}

// NewMutator attaches a new mutator thread to the collector.
func (c *Collector) NewMutator() *Mutator {
	m := &Mutator{c: c, roots: make([]heap.Addr, 0, 64), pauses: &metrics.Histogram{}}
	if c.tracer != nil {
		m.ring = c.tracer.NewRing()
	}
	c.muts.Lock()
	m.id = c.muts.nextID
	c.muts.nextID++
	// Adopt the current status: the collector's waitHandshake only
	// completes once every registered mutator matches, and a mutator
	// registered at the current status has nothing to respond to.
	m.status.Store(c.statusC.Load())
	m.ack.Store(c.ackEpoch.Load())
	c.muts.list = append(c.muts.list, m)
	c.muts.Unlock()
	return m
}

// Detach removes the mutator from handshakes. Its allocation cache is
// returned to the heap and its gray buffer is left for the collector to
// drain. The mutator must not be used afterwards.
func (m *Mutator) Detach() {
	if m.detached.Swap(true) {
		return
	}
	m.publishAllocs()
	m.c.H.Flush(&m.cache)
	m.c.muts.Lock()
	list := m.c.muts.list
	for i, x := range list {
		if x == m {
			m.c.muts.list = append(list[:i], list[i+1:]...)
			break
		}
	}
	m.c.muts.Unlock()
	// Leftover gray entries must still reach the collector.
	m.gray.Lock()
	buf := m.gray.buf
	m.gray.buf = nil
	m.gray.Unlock()
	if len(buf) > 0 {
		m.c.adoptOrphans(buf)
	}
	// Preserve the pause history for fleet-wide statistics.
	m.pauses.MergeInto(m.c.retired)
}

// adoptOrphans hands gray objects from a detached mutator to the
// collector via the orphan buffer of the registry.
func (c *Collector) adoptOrphans(buf []heap.Addr) {
	c.orphans.Lock()
	c.orphans.buf = append(c.orphans.buf, buf...)
	c.orphans.Unlock()
}

// Cooperate is the mutator's safe point (Figure 1): it must be called
// regularly — the paper cites backward branches and invocations; our
// workloads call it once per operation. It responds to handshakes,
// marks the thread's roots when moving from sync2 to async, and
// acknowledges trace-termination epochs.
//
// The fast path (nothing to respond to) is two atomic loads; a response
// is additionally timed as a mutator pause — this is the paper's
// central claim (mutators are delayed for at most a root-scan, Figures
// 16–21), measured from the mutator's own side.
func (m *Mutator) Cooperate() {
	sc := Status(m.c.statusC.Load())
	statusChanged := Status(m.status.Load()) != sc
	ackPending := m.c.ackEpoch.Load() != m.ack.Load()
	if !statusChanged && !ackPending {
		return
	}
	// The combined injection/yield point for the stalled-mutator
	// scenario: a Delay rule holds this thread right when the
	// collector is waiting on it (the watchdog must surface that);
	// Drop/Fail skip this response — the next safe point answers
	// instead. Under a virtual scheduler this is where a pending
	// response becomes one schedulable step (and a Drop decision is
	// the enumerable "missed safe point" branch).
	if drop, fail := m.c.seamStep(fault.Cooperate); drop || fail {
		return
	}
	start := time.Now()
	m.publishAllocs()
	cause := "ack"
	if statusChanged {
		if Status(m.status.Load()) == StatusSync2 {
			cause = "roots"
			aging := m.c.cfg.Mode == GenerationalAging
			for _, r := range m.roots {
				if r == 0 {
					continue
				}
				if aging {
					m.markGrayAging(r)
				} else {
					m.markGray(r)
				}
			}
		} else {
			cause = "handshake"
		}
		m.status.Store(uint32(sc))
	}
	if e := m.c.ackEpoch.Load(); e != m.ack.Load() {
		m.ack.Store(e)
	}
	// Wake a parked collector and hand it this processor: the send
	// readies it into this P's runnext, and the yield runs it next.
	// Without the yield it would wait behind compute-bound mutators
	// that never reschedule, for the ~10 ms forced preemption, and
	// stretch the sync1/sync2 window in which the write barrier
	// promotes freshly created objects (§7.1). Once in 61 schedules Go
	// takes the global run queue first and runs this mutator again;
	// the collector then has not cleared parked, and a second yield
	// reaches it (if it ran and parked again, the yield costs a
	// reschedule). A collector that is polling has a processor of its
	// own and needs none of this.
	if m.c.parked.Load() {
		select {
		case m.c.wake <- struct{}{}:
		default:
		}
		runtime.Gosched()
		if m.c.parked.Load() {
			runtime.Gosched()
		}
	}
	m.recordPause(start, cause)
}

// PendingResponse reports whether this mutator's next Cooperate would
// actually respond to something — a posted handshake status it has not
// adopted or an acknowledgement epoch it has not stored. The virtual
// scheduler's mutator drivers use it as their readiness predicate so an
// idle scripted mutator blocks instead of spinning through no-op safe
// points.
func (m *Mutator) PendingResponse() bool {
	return m.status.Load() != m.c.statusC.Load() ||
		m.ack.Load() != m.c.ackEpoch.Load()
}

// recordPause closes a pause span that began at start: the delay goes
// into the mutator's histogram and, with a trace sink, out as a "pause"
// event attributed to this mutator. The yield to the collector counts
// as part of the pause — it is time this thread gave up because the
// collector asked, which is exactly what the paper's pause figures
// measure.
func (m *Mutator) recordPause(start time.Time, cause string) {
	d := time.Since(start)
	m.pauses.Record(d)
	if m.ring != nil {
		m.ring.Emit(trace.Event{
			Ev:     "pause",
			T:      m.c.tracer.Rel(start),
			D:      d.Nanoseconds(),
			Worker: m.id,
			K:      cause,
		})
	}
	if slo := m.c.cfg.PauseSLO; slo > 0 && d > slo {
		m.c.sloBreaches.Add(1)
		m.c.triggerDump("pauseslo")
	}
}

// markGray is the MarkGray of Figure 1: shade the object gray if it has
// the clear color, or — during sync1/sync2 — also if it has the
// allocation color (the §7.1 exception that protects yellow objects
// created in the window between the card scan and the color toggle).
// During a full collection a stale old code reads as the color the
// retired recoloring walk would have written (Collector.unstale).
func (m *Mutator) markGray(x heap.Addr) {
	if x == 0 {
		return
	}
	col := m.c.H.Color(x)
	as := m.c.unstale(col)
	if as == heap.Color(m.c.clearColor.Load()) {
		m.shade(x, col)
		return
	}
	if Status(m.status.Load()) != StatusAsync {
		if m.c.breakSyncAccept {
			// Model checking only: without the acceptance an object
			// created yellow after the card scan and stored into a black
			// parent before the toggle is never shaded — cmd/gcverify
			// must catch the lost object.
			return
		}
		if as == heap.Color(m.c.allocColor.Load()) {
			m.shade(x, col)
		}
	}
}

// markGrayAging is the MarkGray of Figure 4: clear color only.
func (m *Mutator) markGrayAging(x heap.Addr) {
	if x == 0 {
		return
	}
	col := m.c.H.Color(x)
	if m.c.unstale(col) == heap.Color(m.c.clearColor.Load()) {
		m.shade(x, col)
	}
}

// shade performs the gray transition from col, the color the caller
// read, and publishes the object to the collector. The CAS guarantees
// each object enters a gray buffer at most once per transition, which
// bounds the trace's total work.
func (m *Mutator) shade(x heap.Addr, col heap.Color) {
	if !m.c.H.CasColor(x, col, heap.NoColor, heap.Gray) {
		return
	}
	m.gray.Lock()
	m.gray.buf = append(m.gray.buf, x)
	m.gray.Unlock()
	m.c.grayProduced.Add(1)
}

// Update is the write barrier (Figures 1 and 4): store pointer y into
// slot i of object x with the bookkeeping the current collector mode and
// phase require.
func (m *Mutator) Update(x heap.Addr, i int, y heap.Addr) {
	c := m.c
	switch c.cfg.Mode {
	case GenerationalAging:
		// Figure 4: gray old (and new while not async); the card is
		// marked unconditionally and — crucially for the §7.2 race —
		// only after the store.
		if Status(m.status.Load()) != StatusAsync {
			m.markGrayAging(c.H.LoadSlot(x, i))
			m.markGrayAging(y)
		} else if c.tracing.Load() {
			m.markGrayAging(c.H.LoadSlot(x, i))
		}
		c.H.StoreSlot(x, i, y)
		c.Cards.Mark(x)
	case Generational:
		// Figure 1: the card is marked during async only, whatever
		// x's color — ClearCards decides at scan time whether x is
		// old (DESIGN.md, "Why there is no remembered set").
		if Status(m.status.Load()) != StatusAsync {
			m.markGray(c.H.LoadSlot(x, i))
			m.markGray(y)
		} else if c.tracing.Load() {
			m.markGray(c.H.LoadSlot(x, i))
			c.Cards.Mark(x)
		} else {
			c.Cards.Mark(x)
		}
		c.H.StoreSlot(x, i, y)
	default: // NonGenerational
		if Status(m.status.Load()) != StatusAsync {
			m.markGray(c.H.LoadSlot(x, i))
			m.markGray(y)
		} else if c.tracing.Load() {
			m.markGray(c.H.LoadSlot(x, i))
		}
		c.H.StoreSlot(x, i, y)
	}
}

// Read loads pointer slot i of object x. DLG needs no read barrier.
func (m *Mutator) Read(x heap.Addr, i int) heap.Addr {
	return m.c.H.LoadSlot(x, i)
}

// allocRetries bounds the allocation slow path: how many full-collection
// waits a mutator performs before Alloc gives up with ErrOutOfMemory.
const allocRetries = 3

// Alloc is the create routine of Figure 1: pick a free cell and color it
// with the current allocation color. size is the total object size in
// bytes (at least header + slots); slots pointer slots are zeroed.
//
// When the heap is exhausted the mutator requests a full collection and
// waits for it while continuing to cooperate with handshakes (a blocked
// mutator that stopped responding would deadlock the collector). The
// number of collect-and-retry rounds is bounded by allocRetries; past it
// the error wraps heap.ErrOutOfMemory. On a stopped collector
// the error wraps ErrClosed.
func (m *Mutator) Alloc(slots, size int) (heap.Addr, error) {
	a, injected := m.first(nil, slots, size)
	if a != 0 {
		return a, nil
	}
	return m.retry(context.Background(), slots, size, injected)
}

// AllocCtx is Alloc bounded by a context: the OOM wait for a full
// collection observes ctx, so a deadline or cancellation turns an
// indefinite allocation stall into an error. A context that expires
// while waiting yields an error wrapping both ErrStalled and ctx.Err();
// one that has expired before the call yields ctx.Err() alone and
// claims no cell. The create costs one non-blocking receive on
// ctx.Done() over Alloc.
func (m *Mutator) AllocCtx(ctx context.Context, slots, size int) (heap.Addr, error) {
	a, injected := m.first(ctx.Done(), slots, size)
	if a != 0 {
		return a, nil
	}
	return m.retry(ctx, slots, size, injected)
}

// first is the create's one lean attempt, shared by Alloc and AllocCtx:
// it checks that the runtime is open, steps the allocation fault seam
// (only when a scheduler or injector is armed, so the model checker
// steps through this code too), tests a context's done channel (Alloc
// passes nil, which costs one comparison), claims a cell in the owned
// block and charges it. Anything else — a large object, an exhausted block, an
// injected fault, a closed runtime or an expired context — is a miss:
// first returns 0, with injected set when the seam injected a fault,
// and retry takes the request from there. The test is a non-blocking
// receive rather than ctx.Err(), which locks a deadline context's mutex
// on every call.
func (m *Mutator) first(done <-chan struct{}, slots, size int) (a heap.Addr, injected bool) {
	c := m.c
	if c.closed.Load() {
		return 0, false
	}
	if c.seamArmed() {
		if drop, fail := c.seamStep(fault.Alloc); drop || fail {
			return 0, true
		}
	}
	if fired(done) {
		return 0, false
	}
	req := max(size, heap.HeaderBytes+slots*heap.WordBytes)
	class, cell := heap.ClassFor(req)
	if class < 0 {
		return 0, false
	}
	if a = c.H.Claim(&m.cache, class, slots, c.AllocColor()); a != 0 {
		m.charge(req, cell)
	}
	return a, false
}

// errInjected is the allocation failure the fault seam injects: a
// transient exhaustion that takes the collect-and-retry path a real OOM
// takes.
var errInjected = fmt.Errorf("gc: injected allocation fault: %w", heap.ErrOutOfMemory)

// retry is the allocation path of a miss in first, which has stepped
// the fault seam for attempt 0 (injected is its verdict). Each attempt
// tests the context and the runtime, then allocates through heap.Alloc,
// which refills the class's block when it has to; an exhausted heap or
// an injected fault waits for a full collection and tries again, up to
// allocRetries times.
func (m *Mutator) retry(ctx context.Context, slots, size int, injected bool) (heap.Addr, error) {
	done := ctx.Done()
	for attempt := 0; ; attempt++ {
		if fired(done) {
			err := ctx.Err()
			if attempt > 0 {
				// Cancellation landing between OOM retries is still an
				// allocation stall — the AllocCtx contract promises an
				// error wrapping both ErrStalled and ctx.Err(), and the
				// remaining retry budget must not be burned first.
				m.c.pacer.NoteSlip()
				m.c.triggerDump("allocstall")
				return 0, fmt.Errorf("gc: mutator %d: allocation: %w (%w)",
					m.id, ErrStalled, err)
			}
			return 0, fmt.Errorf("gc: mutator %d: allocation: %w", m.id, err)
		}
		if m.c.closed.Load() {
			return 0, fmt.Errorf("gc: mutator %d: allocation: %w", m.id, ErrClosed)
		}
		if attempt > 0 && m.c.seamArmed() {
			drop, fail := m.c.seamStep(fault.Alloc)
			injected = drop || fail
		}
		err := errInjected
		if !injected {
			var addr heap.Addr
			if addr, err = m.c.H.Alloc(&m.cache, slots, size, m.c.AllocColor()); err == nil {
				req := max(size, heap.HeaderBytes+slots*heap.WordBytes)
				_, cell := heap.ClassFor(req)
				m.charge(req, cell)
				return addr, nil
			}
		}
		if attempt >= allocRetries {
			m.c.pacer.NoteSlip()
			m.c.triggerDump("oom")
			return 0, fmt.Errorf("gc: mutator %d: %w after %d full collections", m.id, err, attempt)
		}
		m.publishAllocs()
		if werr := m.waitForFullCollection(ctx, attempt); werr != nil {
			return 0, werr
		}
	}
}

// charge adds a create of req requested bytes in a cell of cell bytes
// to the pending accounting, publishing it once it reaches a block.
func (m *Mutator) charge(req, cell int) {
	m.pend.req += int64(req)
	m.pend.bytes += int64(cell)
	m.pend.objects++
	if m.pend.bytes >= heap.BlockSize {
		m.publishAllocs()
	}
}

// fired reports, without blocking, whether done has been closed: a
// context's Done channel, or a collection helper's completion channel.
// The nil channel of context.Background never fires and costs Alloc
// only this comparison.
func fired(done <-chan struct{}) bool {
	if done == nil {
		return false
	}
	select {
	case <-done:
		return true
	default:
		return false
	}
}

// publishAllocs folds the pending allocation accounting into the
// collector's heap totals and the pacer, whose verdict becomes a
// collection request. charge calls it once per heap.BlockSize of charged
// bytes (the granularity at which heap.Cache publishes its claims), as
// does every point where the mutator synchronizes with the collector
// anyway: a handshake response, Detach, Collect, the slow path's wait,
// Verify. The handshake publication keeps the totals sound: the sweep
// frees only objects created before the color toggle, hence before their
// owner's last handshake response of the cycle, so noteFreed never
// uncharges an object whose charge is still pending.
func (m *Mutator) publishAllocs() {
	if m.pend.objects == 0 {
		return
	}
	c, p := m.c, m.pend
	m.pend.req, m.pend.bytes, m.pend.objects = 0, 0, 0
	c.heapBytes.Add(p.bytes)
	c.heapObjects.Add(p.objects)
	if t := c.pacer.NoteAlloc(p.req); t != TriggerNone {
		c.request(t == TriggerFull)
	}
}

// waitForFullCollection requests a full collection and cooperates until
// one completes. Without a background collector goroutine (tests that
// drive collections manually) the cycle is run on a helper goroutine so
// this mutator can keep responding to its handshakes, and the wait ends
// when that cycle does (collectOnHelper).
//
// The poll interval backs off with the retry attempt — each failed
// round means the last collection freed too little, so hammering the
// next one helps nobody — but stays far below the stall deadline so
// the waiting mutator keeps answering handshakes promptly. The wait
// ends early (with an error) when the runtime closes (ErrClosed) or
// the caller's context expires (ErrStalled wrapping ctx.Err()).
//
// The whole stall is recorded as one "allocwait" pause — the dominant
// mutator-visible delay a collector can impose. Handshake responses
// made while waiting are recorded as their own (nested, much shorter)
// pauses; OBSERVABILITY.md documents the overlap.
func (m *Mutator) waitForFullCollection(ctx context.Context, attempt int) error {
	defer m.recordPause(time.Now(), "allocwait")
	m.c.fullWaiters.Add(1)
	defer m.c.fullWaiters.Add(-1)
	if m.c.vsched != nil {
		// Under the virtual scheduler there is no background collector
		// and spawning the helper goroutine below would escape the
		// controlled actor set; heap exhaustion in a model-checking
		// scenario is a scenario-sizing bug, so surface it immediately
		// and deterministically.
		return fmt.Errorf("gc: mutator %d: full collection wait under virtual scheduler: %w",
			m.id, heap.ErrOutOfMemory)
	}
	start := m.c.fullsDone.Load()
	done := func() bool { return m.c.fullsDone.Load() != start }
	if m.c.started.Load() {
		m.c.request(true)
	} else {
		helper := m.collectOnHelper(true)
		done = func() bool { return fired(helper) }
	}
	sleep := AllocWaitSleepBase << uint(attempt)
	for !done() {
		if m.c.closed.Load() {
			return fmt.Errorf("gc: mutator %d: full collection wait: %w", m.id, ErrClosed)
		}
		if err := ctx.Err(); err != nil {
			m.c.pacer.NoteSlip()
			m.c.triggerDump("allocstall")
			return fmt.Errorf("gc: mutator %d: full collection wait: %w (%w)",
				m.id, ErrStalled, err)
		}
		m.Cooperate()
		time.Sleep(sleep)
	}
	return nil
}

// Collect runs a collection from a mutator goroutine: the cycle runs on
// a helper goroutine (explicit requests bypass the background trigger's
// staleness filtering) while this mutator cooperates once per WaitTick;
// it returns as soon as the helper's cycle does. On a stopped collector
// it returns immediately.
func (m *Mutator) Collect(full bool) {
	m.publishAllocs()
	helper := m.collectOnHelper(full)
	tick := time.NewTimer(WaitTick)
	defer tick.Stop()
	for !m.c.closed.Load() {
		m.Cooperate()
		select {
		case <-helper:
			return
		case <-tick.C:
			tick.Reset(WaitTick)
		}
	}
}

// collectOnHelper runs a cycle on a helper goroutine and returns a
// channel that closes when the cycle returns. The cycle needs this
// mutator's handshake responses, so the caller cooperates until that
// channel closes, not merely until some other cycle completes: a helper
// that another cycle overtook would stay queued on the cycle lock and
// wedge the next cycle (or Verify) once the mutator stopped cooperating.
func (m *Mutator) collectOnHelper(full bool) <-chan struct{} {
	done := make(chan struct{})
	go func() {
		m.c.CollectNow(full)
		close(done)
	}()
	return done
}

// PushRoot appends a root slot and returns its index.
func (m *Mutator) PushRoot(v heap.Addr) int {
	m.roots = append(m.roots, v)
	return len(m.roots) - 1
}

// SetRoot overwrites root slot i. Stack writes have no barrier (§2).
func (m *Mutator) SetRoot(i int, v heap.Addr) { m.roots[i] = v }

// Root returns root slot i.
func (m *Mutator) Root(i int) heap.Addr { return m.roots[i] }

// NumRoots returns the current root count.
func (m *Mutator) NumRoots() int { return len(m.roots) }

// PopRoots drops the top n root slots.
func (m *Mutator) PopRoots(n int) { m.roots = m.roots[:len(m.roots)-n] }

// ID returns the mutator's registry id.
func (m *Mutator) ID() int { return m.id }
