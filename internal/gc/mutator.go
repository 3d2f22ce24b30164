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

	// The pad rounds Mutator up to 320 bytes, a multiple of 64, so its
	// allocation size class keeps every Mutator cache-line aligned
	// (TestMutatorLayout). At 288 bytes — a class that alternates
	// alignment — old_mutation lost ~1.5 % CPU per op.
	_ [32]byte
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
	// Hand the processor to the waiting collector: on a single
	// P a compute-bound mutator would otherwise keep running a
	// full preemption quantum, stretching the sync1/sync2 window
	// in which the write barrier promotes freshly created
	// objects (§7.1).
	runtime.Gosched()
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
func (m *Mutator) markGray(x heap.Addr) {
	if x == 0 {
		return
	}
	col := m.c.H.Color(x)
	cc := heap.Color(m.c.clearColor.Load())
	if col == cc {
		m.shade(x, cc)
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
		ac := heap.Color(m.c.allocColor.Load())
		if col == ac {
			m.shade(x, ac)
		}
	}
}

// markGrayAging is the MarkGray of Figure 4: clear color only.
func (m *Mutator) markGrayAging(x heap.Addr) {
	if x == 0 {
		return
	}
	cc := heap.Color(m.c.clearColor.Load())
	if m.c.H.Color(x) == cc {
		m.shade(x, cc)
	}
}

// shade performs the gray transition and publishes the object to the
// collector. The CAS guarantees each object enters a gray buffer at most
// once per transition, which bounds the trace's total work.
func (m *Mutator) shade(x heap.Addr, from heap.Color) {
	if !m.c.H.CasColor(x, from, heap.Gray) {
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
	return m.alloc(context.Background(), slots, size)
}

// AllocCtx is Alloc bounded by a context: the OOM wait for a full
// collection observes ctx, so a deadline or cancellation turns an
// indefinite allocation stall into an error. A context that expires
// while waiting yields an error wrapping both ErrStalled and ctx.Err();
// the fast path costs one non-blocking receive on ctx.Done() over Alloc.
func (m *Mutator) AllocCtx(ctx context.Context, slots, size int) (heap.Addr, error) {
	return m.alloc(ctx, slots, size)
}

// alloc is the shared allocation path; Alloc passes
// context.Background(), whose nil Done channel never fires. The test
// is a non-blocking receive rather than ctx.Err(), which locks a
// deadline context's mutex on every call; Err runs only once Done has
// fired.
func (m *Mutator) alloc(ctx context.Context, slots, size int) (heap.Addr, error) {
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
		var addr heap.Addr
		var cell int
		var err error
		if m.c.seamArmed() {
			if drop, fail := m.c.seamStep(fault.Alloc); drop || fail {
				// Injected transient exhaustion: exercise the same
				// collect-and-retry path a real OOM takes.
				err = fmt.Errorf("gc: injected allocation fault: %w", heap.ErrOutOfMemory)
			}
		}
		if err == nil {
			addr, cell, err = m.c.H.Alloc(&m.cache, slots, size, m.c.AllocColor())
		}
		if err == nil {
			if size < heap.HeaderBytes+slots*heap.WordBytes {
				size = heap.HeaderBytes + slots*heap.WordBytes
			}
			m.pend.req += int64(size)
			m.pend.bytes += int64(cell)
			m.pend.objects++
			if m.pend.bytes >= heap.BlockSize {
				m.publishAllocs()
			}
			return addr, nil
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

// fired reports, without blocking, whether a context's Done channel has
// been closed. The nil channel of context.Background never fires and
// costs Alloc only this comparison.
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
// collection request. alloc calls it once per heap.BlockSize of charged
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
		done = func() bool { return finished(helper) }
	}
	sleep := AllocWaitSleepBase << uint(attempt)
	if sleep > AllocWaitSleepMax {
		sleep = AllocWaitSleepMax
	}
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
// staleness filtering) while this mutator cooperates until it completes.
// On a stopped collector it returns immediately.
func (m *Mutator) Collect(full bool) {
	m.publishAllocs()
	helper := m.collectOnHelper(full)
	for !finished(helper) {
		if m.c.closed.Load() {
			return
		}
		m.Cooperate()
		time.Sleep(CollectPollInterval)
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

// finished reports whether ch is closed, without blocking.
func finished(ch <-chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
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
