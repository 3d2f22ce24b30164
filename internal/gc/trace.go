package gc

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"gengc/internal/fault"
	"gengc/internal/heap"
	"gengc/internal/trace"
)

// The collector engine's trace half. The paper runs a single collector
// thread (§8); here the collector goroutine is worker 0 of a pool of
// Config.Workers trace workers and the paper's setup is the pool's
// one-worker case — the same shade, markBlack, drain and fixpoint loop
// run at every worker count:
//
//   - Every gray transition is a CAS on the color table (CasColor), so
//     an object enters exactly one worker's stack at most once per cycle
//     and is blackened by exactly one worker; the SATB argument on
//     trace() does not depend on who that worker is.
//
//   - A drain starts on worker 0 alone. With one active worker it simply
//     runs the stack empty. With more, worker 0 scans up to
//     serialDrainBudget objects and only then deals the rest over the
//     pool, whose members publish half of a deep stack for thieves.
//
//   - The engaged pool terminates by idle count: a worker registers idle
//     only when its own stack and steal window are empty and a scan of
//     the other windows took nothing, and un-registers *before* it
//     steals, so traceIdle == len(pool) proves no queued or in-flight
//     object is left anywhere. No per-object counter is involved.

// publishThreshold is the private-stack depth beyond which an engaged
// worker offers the older half of its work to thieves. Low enough that a
// worker holding plenty of work shares promptly, high enough that the
// owner's hot path stays lock-free.
const publishThreshold = 16

// serialDrainBudget is how many objects a drain scans on worker 0 before
// waking the rest of the pool. Most fixpoint rounds are small — a batch
// of barrier-grayed objects whose subgraphs are already black — and
// finish well inside the budget; dispatching those to the pool would
// stretch each round from microseconds to a full scheduler rotation,
// because the drain cannot end until every worker has been scheduled and
// run dry.
const serialDrainBudget = 4096

// traceWorker is one pool member's state, owned by whichever goroutine
// runs the worker (the collector goroutine for worker 0) and reused
// across cycles. stack is the owner's private gray stack; shared is the
// mutex-guarded window thieves steal from, with sharedN mirroring
// len(shared) so both sides can check for emptiness without the lock.
// The counters are merged into the cycle record after each drain, sweep
// is merged after each sweep. ring is the worker's trace-event buffer
// (nil without a TraceSink; worker 0 writes the collector's ring).
type traceWorker struct {
	stack   []heap.Addr
	mu      sync.Mutex
	shared  []heap.Addr
	sharedN atomic.Int32

	scanned int
	slots   int
	bytes   int
	steals  int

	sweep sweepState
	ring  *trace.Ring
}

// publish moves the older half of the private stack — typically the
// roots of the largest untraced subgraphs — into the steal window.
// Owner only.
func (w *traceWorker) publish() {
	half := len(w.stack) / 2
	w.mu.Lock()
	w.shared = append(w.shared, w.stack[:half]...)
	w.sharedN.Store(int32(len(w.shared)))
	w.mu.Unlock()
	w.stack = append(w.stack[:0], w.stack[half:]...)
}

// stealFrom moves roughly half of the victim's published work onto w's
// private stack, reporting whether anything moved. w must be the calling
// worker; it may be its own victim (reclaiming what no thief took).
func (w *traceWorker) stealFrom(victim *traceWorker) bool {
	victim.mu.Lock()
	defer victim.mu.Unlock()
	n := len(victim.shared)
	if n == 0 {
		return false
	}
	take := (n + 1) / 2
	w.stack = append(w.stack, victim.shared[:take]...)
	victim.shared = append(victim.shared[:0], victim.shared[take:]...)
	victim.sharedN.Store(int32(len(victim.shared)))
	return true
}

// pool returns the workers that may run right now, growing the pool on
// first use: Config.Workers capped at one more than the processors the
// Go runtime schedules onto, so a runnable worker stands ready whenever
// another blocks or is preempted. Beyond that, extra workers on a
// saturated machine contribute no progress — only steal scans, publish
// traffic and spin — so a Workers setting above the machine's
// parallelism degrades gracefully instead of thrashing. Collector
// goroutine only.
func (c *Collector) pool() []*traceWorker {
	n := c.cfg.Workers
	if max := runtime.GOMAXPROCS(0) + 1; n > max {
		n = max
	}
	for len(c.workers) < n {
		w := &traceWorker{}
		if c.tracer != nil {
			w.ring = c.tracer.NewRing()
		}
		c.workers = append(c.workers, w)
	}
	return c.workers[:n]
}

// shade performs the from→gray transition (MarkGray as executed by the
// collector: after the toggle `from` is the clear color) and, on
// success, pushes the object on w's stack. CasColor tests the color
// before it swaps, so a son that is not `from` costs one load. The nil
// test stays a separate early return: folded into the condition below it
// compiles to flag materialization in markBlack's per-son loop. (shade
// must stay within the inliner's budget for that loop's sake.)
func (c *Collector) shade(w *traceWorker, x heap.Addr, from heap.Color) {
	if x == 0 {
		return
	}
	if c.H.CasColor(x, from, heap.Gray) {
		w.stack = append(w.stack, x)
	}
}

// markBlack traces one gray object (Figure 3): shade its sons gray, then
// blacken it.
func (c *Collector) markBlack(w *traceWorker, x heap.Addr) {
	col, slots := c.H.Header(x)
	if col == heap.Black {
		return
	}
	cc := c.ClearColor()
	c.H.Pages.TouchHeap(x, heap.HeaderBytes+slots*heap.WordBytes)
	for i := 0; i < slots; i++ {
		c.shade(w, c.H.LoadSlot(x, i), cc)
	}
	c.H.SetColor(x, heap.Black)
	w.scanned++
	w.slots += slots
	w.bytes += c.H.SizeOf(x)
}

// scan blackens objects popped from w's stack until the stack is empty
// or budget objects were popped (negative: no bound), returning the
// budget left; with share set it publishes half of a deep stack whenever
// the steal window is empty. This is the per-object hot loop: the armed
// seam is stepped once per popped object, the check hoisted so it costs
// nothing when neither a scheduler nor an injector is installed.
func (c *Collector) scan(w *traceWorker, budget int, share bool) int {
	seam := c.seamArmed()
	for n := len(w.stack); n > 0 && budget != 0; n = len(w.stack) {
		x := w.stack[n-1]
		w.stack = w.stack[:n-1]
		if seam {
			c.seamDelay(fault.TraceDrain)
		}
		c.markBlack(w, x)
		budget--
		if share && len(w.stack) >= publishThreshold && w.sharedN.Load() == 0 {
			w.publish()
		}
	}
	return budget
}

// drainWorker runs worker ws[id] until it has scanned budget objects or
// no work is left — on its own stack when len(ws) == 1, anywhere in the
// pool otherwise.
func (c *Collector) drainWorker(id int, ws []*traceWorker, budget int) {
	w := ws[id]
	for {
		if budget = c.scan(w, budget, len(ws) > 1); budget == 0 {
			return
		}
		// Reclaim what no thief took before looking elsewhere: a worker
		// with a non-empty window must never count as idle.
		if w.sharedN.Load() != 0 && w.stealFrom(w) {
			continue
		}
		if len(ws) == 1 || !c.stealWork(id, ws) {
			return
		}
	}
}

// stealWork is a dry worker's wait — its stack and its own steal window
// are empty: it scans the other workers' windows until it takes work
// (true) or every worker of the pool is registered idle (false — the
// drain is over, see the file comment).
func (c *Collector) stealWork(id int, ws []*traceWorker) bool {
	w := ws[id]
	idle := false
	for misses := 1; ; misses++ {
		// A Drop rule models a steal scan that finds nothing
		// (contention, unlucky victim order); Fail is coerced the same
		// way. The only observable effect is delayed termination, never
		// a missed object: its holder is not idle.
		drop, fail := c.seamStep(fault.TraceSteal)
		for off := 1; off < len(ws) && !drop && !fail; off++ {
			victim := ws[(id+off)%len(ws)]
			if victim.sharedN.Load() == 0 {
				continue
			}
			if idle {
				c.traceIdle.Add(-1)
				idle = false
			}
			if w.stealFrom(victim) {
				w.steals++
				return true
			}
		}
		if !idle {
			c.traceIdle.Add(1)
			idle = true
		}
		if int(c.traceIdle.Load()) == len(ws) {
			return false
		}
		// Another worker holds in-flight objects whose sons may land in
		// its window. Spin rather than yield: on a loaded machine a
		// voluntary yield hands the rest of this timeslice to a mutator,
		// and the straggler we are waiting for is preempted onto the CPU
		// soon anyway. Yield only after a long dry stretch so an
		// idle-but-runnable worker cannot starve anyone on a
		// single-processor box.
		if misses%(1<<14) == 0 {
			runtime.Gosched()
		}
	}
}

// drain traces until no gray object is queued on any worker: alone on
// worker 0 while the drain is small or the pool has one active member,
// over the whole pool once it outlives the serial budget — which only a
// graph-sized trace does. Gray objects produced concurrently by mutators
// accumulate in their own buffers and are folded in by trace(). Every
// worker that blackened anything emits one "drain" span; the spans' N
// sum to the drain's share of ObjectsScanned.
func (c *Collector) drain() {
	ws := c.pool()
	w0 := ws[0]
	if len(w0.stack) == 0 {
		return
	}
	start := time.Now()
	budget := -1
	if len(ws) > 1 {
		budget = serialDrainBudget
	}
	c.drainWorker(0, ws[:1], budget)
	if len(w0.stack) > 0 {
		// Deal the remaining seeds round-robin; worker 0's share is
		// compacted in place (the write index never passes the read).
		seeds := w0.stack
		w0.stack = w0.stack[:0]
		for i, x := range seeds {
			w := ws[i%len(ws)]
			w.stack = append(w.stack, x)
		}
		c.traceIdle.Store(0)
		var wg sync.WaitGroup
		for id := 1; id < len(ws); id++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				joined := time.Now()
				c.drainWorker(id, ws, -1)
				c.emitDrain(id, ws[id], joined)
			}(id)
		}
		c.drainWorker(0, ws, -1)
		wg.Wait()
	}
	c.emitDrain(0, w0, start)
	for id, w := range ws {
		c.cyc.ObjectsScanned += w.scanned
		c.cyc.SlotsScanned += w.slots
		c.cyc.TraceBytes += w.bytes
		c.cyc.Steals += w.steals
		c.cyc.WorkerScanned[id] += w.scanned
		w.scanned, w.slots, w.bytes, w.steals = 0, 0, 0, 0
	}
}

// emitDrain records worker id's participation in one drain, if it
// blackened anything.
func (c *Collector) emitDrain(id int, w *traceWorker, start time.Time) {
	if w.scanned > 0 {
		c.emitWorker(w.ring, "drain", id, start, int64(w.scanned))
	}
}

// collectBuffers moves every mutator gray buffer (and any orphaned
// buffers of detached mutators) onto worker 0's stack, returning how
// many objects were collected.
func (c *Collector) collectBuffers() int {
	w0 := c.workers[0]
	total := 0
	c.muts.Lock()
	snapshot := append([]*Mutator(nil), c.muts.list...)
	c.muts.Unlock()
	for _, m := range snapshot {
		m.gray.Lock()
		buf := m.gray.buf
		m.gray.buf = nil
		m.gray.Unlock()
		w0.stack = append(w0.stack, buf...)
		total += len(buf)
	}
	c.orphans.Lock()
	buf := c.orphans.buf
	c.orphans.buf = nil
	c.orphans.Unlock()
	w0.stack = append(w0.stack, buf...)
	total += len(buf)
	return total
}

// trace runs the concurrent trace to its fixpoint: "While there is a
// gray object: pick a gray object x; MarkBlack(x)" (Figure 2).
//
// Termination and completeness: every gray transition is a CAS, so the
// total number of gray events per cycle is bounded by the number of
// objects, and the write barrier (deletion barrier during async) keeps
// the snapshot-at-the-beginning invariant — any object reachable when
// the roots were marked either keeps an all-clear path that the trace
// walks, or had an edge of that path overwritten, which grayed it.
//
// The delicate part is observing the fixpoint without stopping the
// mutators: a mutator may have CASed an object gray but not yet appended
// it to its buffer. The loop below closes that window: after draining to
// empty it snapshots the global gray-production counter, runs an
// acknowledgement round (every mutator passes a safe point, so every
// gray produced before its ack is appended and visible), drains again,
// and only finishes when the drain found nothing and the counter did not
// move. A counter that moved means some mutator grayed an object inside
// the window, so the loop repeats; the counter is monotonic and bounded,
// so the loop terminates. How many workers a drain used changes who
// blackens an object, not when the fixpoint holds.
//
// The false return propagates a failed acknowledgement round — the
// close-abort path (see ackRound); the caller abandons the cycle.
func (c *Collector) trace() bool {
	for {
		c.drain()
		if c.collectBuffers() > 0 {
			continue
		}
		g0 := c.grayProduced.Load()
		if !c.ackRound() {
			return false
		}
		n := c.collectBuffers()
		c.drain()
		g1 := c.grayProduced.Load()
		if n == 0 && g0 == g1 {
			break
		}
	}
	c.tracing.Store(false)
	return true
}
