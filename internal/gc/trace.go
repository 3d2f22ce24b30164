package gc

import (
	"time"

	"gengc/internal/fault"
	"gengc/internal/heap"
)

// The collector engine's trace half. As in the paper (§8), one
// collector thread does all of it: the collector goroutine pops objects
// off its own stack (Collector.gray), which root marking, the card scan
// and the mutator gray buffers feed. Every push follows a successful CAS
// on the color table (CasColor) out of a color the object holds at most
// once per cycle, so an object enters the stack at most once per cycle
// and is scanned exactly once.

// shade is MarkGray as executed by the collector: an object colored
// from — or alias, the stale old code during a full collection — goes
// to `to` and onto the collector's gray stack. The trace passes the
// clear color, the stale code and the old code: its sons skip gray and
// cost one CAS each (markBlack blackens only what arrives gray). CasColor
// tests the color before it swaps, so a son that matches neither costs
// one load. x must not be nil: the callers test for it, markBlack as a
// separate branch in its per-son loop, which keeps shade within the
// inliner's budget (make inline-guard) — shade must inline into that
// loop.
func (c *Collector) shade(x heap.Addr, from, alias, to heap.Color) {
	if c.H.CasColor(x, from, alias, to) {
		c.gray = append(c.gray, x)
	}
}

// markBlack traces one object off the gray stack (Figure 3): shade its
// clear (or stale) sons straight to the old code, then blacken it if it
// arrived gray — from a mutator buffer, the card scan or the globals
// re-gray. An object the trace itself shaded is old already. col and
// slots are x's Header, loaded by drain.
func (c *Collector) markBlack(x heap.Addr, col heap.Color, slots int) {
	cc, stale, old := c.ClearColor(), c.stale(), c.OldColor()
	c.H.Pages.TouchHeap(x, heap.HeaderBytes+slots*heap.WordBytes)
	for i := 0; i < slots; i++ {
		if y := c.H.LoadSlot(x, i); y != 0 {
			c.shade(y, cc, stale, old)
		}
	}
	if col == heap.Gray {
		c.H.SetColor(x, old)
	}
	c.cyc.ObjectsScanned++
	c.cyc.SlotsScanned += slots
	c.cyc.TraceBytes += c.H.SizeOf(x)
}

// The gray-stack depth at which drain works in batches, and the batch
// size. A partial collection's card scan grays old objects scattered
// over the heap, so each one's header load misses the cache; a batch
// issues its members' loads back to back and the misses overlap. Below
// frontierMin the stack is a trace's dependent chain (a full trace of a
// linked structure keeps it 1–6 deep), whose next entry is a son just
// shaded, and batching it only costs.
const (
	frontierMin = 16
	batchMax    = 32
)

// drain blackens gray objects until the collector's stack is empty.
// Gray objects produced concurrently by mutators accumulate in their own
// buffers and are folded in by trace(). A drain that blackened anything
// emits one "drain" span. This is the per-object hot loop: the armed
// seam is stepped once per blackened object, the check hoisted so it
// costs nothing when neither a scheduler nor an injector is installed.
//
// Figure 2 says only "pick a gray object", so the order is drain's to
// choose. A stack shallower than frontierMin is popped one entry at a
// time. A deeper one gives up its top min(n, batchMax) entries: stage 1
// loads every member's Header, stage 2 scans them top first (LIFO within
// the batch), and the sons stage 2 pushes are drained after it. Each
// object is still scanned exactly once.
//
// A header loaded in stage 1 is still the object's header in stage 2,
// although mutators run (and the seam may park the collector) in
// between. Every entry on the stack is gray or carries the old code.
// Mutators shade only clear (or stale) objects and, in the sync
// windows, allocation-colored ones; the collector's own shade moves only
// clear or stale objects; the sweep does not run during the trace; and
// a full collection flips the old code before the trace, not during it.
// So nothing changes a member's color before its scan, and its slot
// count never changes while it lives: stage 2's col == Gray test sees
// what a fresh load would.
func (c *Collector) drain() {
	if len(c.gray) == 0 {
		return
	}
	start := time.Now()
	before := c.cyc.ObjectsScanned
	seam := c.seamArmed()
	var batch [batchMax]struct {
		x     heap.Addr
		col   heap.Color
		slots int
	}
	for n := len(c.gray); n > 0; n = len(c.gray) {
		if n < frontierMin {
			x := c.gray[n-1]
			c.gray = c.gray[:n-1]
			if seam {
				c.seamDelay(fault.TraceDrain)
			}
			col, slots := c.H.Header(x)
			c.markBlack(x, col, slots)
			continue
		}
		k := min(n, batchMax)
		for i, x := range c.gray[n-k:] {
			batch[i].x = x
			batch[i].col, batch[i].slots = c.H.Header(x)
		}
		c.gray = c.gray[:n-k]
		for i := k - 1; i >= 0; i-- {
			if seam {
				c.seamDelay(fault.TraceDrain)
			}
			b := &batch[i]
			c.markBlack(b.x, b.col, b.slots)
		}
	}
	c.cyc.DrainTime += time.Since(start)
	if n := c.cyc.ObjectsScanned - before; n > 0 {
		c.emit("drain", start, "", int64(n), 0)
	}
}

// collectBuffers moves every mutator gray buffer (and any orphaned
// buffers of detached mutators) onto the collector's gray stack,
// returning how many objects were collected.
func (c *Collector) collectBuffers() int {
	total := 0
	c.muts.Lock()
	snapshot := append([]*Mutator(nil), c.muts.list...)
	c.muts.Unlock()
	for _, m := range snapshot {
		m.gray.Lock()
		buf := m.gray.buf
		m.gray.buf = nil
		m.gray.Unlock()
		c.gray = append(c.gray, buf...)
		total += len(buf)
	}
	c.orphans.Lock()
	buf := c.orphans.buf
	c.orphans.buf = nil
	c.orphans.Unlock()
	c.gray = append(c.gray, buf...)
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
// so the loop terminates.
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
