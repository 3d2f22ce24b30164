package gc

import (
	"gengc/internal/fault"
	"gengc/internal/heap"
)

// drainDirtyAllocatedCards visits every dirty card overlapping a block
// assigned to some size class, draining the card table a word at a
// time: each 64-card word's dirty bits are fetched and cleared with one
// atomic and-not, and fn runs with the card already clear — the §7.2
// step-1 clear, batched. Callers that need the mark back (step 3)
// re-set it with MarkIndex.
//
// Dirty marks can only exist where objects exist (cards are marked with
// an object's address), so restricting the scan to allocated regions is
// sound and keeps the §7.1 window — during which mutators promote
// freshly created objects — short. Regions are block-aligned and cards
// never exceed a block, so regions cover whole cards. Returns the number
// of cards scanned (the Figure 22 "allocated cards" denominator).
func (c *Collector) drainDirtyAllocatedCards(fn func(ci int)) int {
	scan := fn
	if c.seamArmed() {
		// Per-card seam hit inside the §7.2 window: the card's mark is
		// already cleared (step 1) but its objects are not yet scanned
		// (step 2) — the exact interval where a mutator's concurrent
		// update-then-mark must not be lost. Wrapped only when armed so
		// the production scan stays branch-free per card.
		scan = func(ci int) {
			c.seamDelay(fault.CardScan)
			fn(ci)
		}
	}
	n := 0
	pages := c.H.Pages != nil
	c.H.AllocatedRegions(func(start, end heap.Addr) {
		lo := c.Cards.IndexOf(start)
		hi := c.Cards.IndexOf(end - 1)
		n += hi - lo + 1
		if pages {
			// The scan reads the card table across the whole
			// region; record the pages of the paper-layout
			// (byte-per-card) table it would touch.
			for ci := lo; ci <= hi; ci += heap.PageBytes {
				c.H.Pages.TouchCardByte(ci)
			}
			c.H.Pages.TouchCardByte(hi)
		}
		c.Cards.DrainDirtyIn(lo, hi, scan)
	})
	return n
}

// clearCardsSimple is ClearCards of Figure 3 (the simple promotion
// algorithm): walk the card table; for every dirty card clear the mark
// and re-gray the old objects on it, so that the trace scans them and
// thereby reaches the young objects they reference.
//
// Clearing unconditionally is sound here because every object surviving
// the collection is promoted, turning all recorded inter-generational
// pointers into intra-generational ones (§3.2). The call happens before
// the color toggle, so no yellow objects exist yet (§7.1's required
// ordering).
func (c *Collector) clearCardsSimple() {
	old := c.OldColor()
	c.cyc.AllocatedCards = c.drainDirtyAllocatedCards(func(ci int) {
		// The drain already cleared the mark (whole words at a time).
		c.cyc.DirtyCards++
		start, end := c.Cards.Bounds(ci)
		c.H.ForEachObjectInRange(start, end, func(addr heap.Addr) {
			c.H.Pages.TouchHeap(addr, 1)
			size := c.H.SizeOf(addr)
			c.cyc.AreaScanned += size
			if c.H.Color(addr) == old {
				c.H.Pages.TouchHeap(addr, size)
				if c.H.CasColor(addr, old, heap.NoColor, heap.Gray) {
					c.gray = append(c.gray, addr)
					c.cyc.InterGenScanned++
					c.cyc.InterGenBytes += size
				}
			}
		})
	})
	c.cyc.CardsScanned = c.cyc.AllocatedCards
}

// clearCardsAging is ClearCards of Figure 6: for every dirty card the
// collector (1) clears the mark, (2) scans the tenured objects on the
// card, graying their clear-colored targets, and (3) re-marks the card
// if any target is still young — the three-step order that §7.2 proves
// race-free against the mutator's update-then-mark barrier.
//
// It runs after the color toggle (Figure 5 order), so "young" targets
// are exactly the objects neither old nor free. Step 2 shades a target
// gray, not straight to the old code as the trace does: a target the
// scan already shaded must still read as young when another dirty card
// points at it (gray is not old), or that card would be cleared under
// an old→young pointer once the sweep demotes the target.
//
// One extension over the paper's Figure 6 is required for soundness: a
// *young* object on a dirty card may hold pointers to younger objects,
// and when it tenures (at a later sweep, silently — no store occurs, so
// no card is marked) those pointers become inter-generational. If its
// card were cleared here, the next partial would miss them. Figure 6
// re-marks only for tenured sources; we additionally keep the card
// dirty while any young object on it holds a young target, so that by
// induction every old→young pointer is always covered by a dirty card.
// (The cost matches the simple algorithm's, which also examines young
// objects on dirty cards.)
func (c *Collector) clearCardsAging() {
	oldest := c.oldestAge()
	cc, old := c.ClearColor(), c.OldColor()
	c.cyc.AllocatedCards = c.drainDirtyAllocatedCards(func(ci int) {
		c.cyc.DirtyCards++
		// Step 1 (clear) already happened: the drain fetched and
		// cleared this card's bit along with the rest of its word.
		remark := false
		start, end := c.Cards.Bounds(ci)
		c.H.ForEachObjectInRange(start, end, func(addr heap.Addr) {
			c.H.Pages.TouchHeap(addr, 1)
			size := c.H.SizeOf(addr)
			c.cyc.AreaScanned += size
			col, slots := c.H.Header(addr)
			tenured := col == old && c.H.Age(addr) >= oldest
			if !tenured {
				// Young source: keep the card while it points at
				// anything young, so its tenure cannot orphan an
				// inter-generational pointer.
				for i := 0; i < slots && !remark; i++ {
					t := c.H.LoadSlot(addr, i)
					if t == 0 {
						continue
					}
					if col := c.H.Color(t); col != old && col != heap.Blue {
						remark = true
					}
				}
				return
			}
			c.H.Pages.TouchAge(addr)
			c.H.Pages.TouchHeap(addr, size)
			c.cyc.InterGenScanned++
			c.cyc.InterGenBytes += size
			for i := 0; i < slots; i++ {
				t := c.H.LoadSlot(addr, i)
				if t == 0 {
					continue
				}
				c.shade(t, cc, heap.NoColor, heap.Gray) // step 2
				if col := c.H.Color(t); col != old && col != heap.Blue {
					remark = true
				}
			}
		})
		if remark {
			c.Cards.MarkIndex(ci) // step 3
		}
	})
	c.cyc.CardsScanned = c.cyc.AllocatedCards
}

// initFullCollection is InitFullCollection of Figures 3 and 6, without
// its heap walk. The figures recolor every black and gray object with
// the (pre-toggle) allocation color so that the toggle makes the whole
// heap collectible; instead the collector flips which old code means
// "old" and lets the previous one — stale — stand for that allocation
// color until this cycle's sweep (Collector.unstale): the barrier, the
// trace and the sweep treat a stale byte exactly as the walk's output.
// The simple algorithm also clears every card mark ("a full collection
// begins by clearing card marks, without tracing from the dirty cards",
// §3.2); the aging algorithm keeps them, because its inter-generational
// pointers can outlive a full collection (§6). The all-black hints need
// no reset: a full sweep ignores them and recomputes every block's.
func (c *Collector) initFullCollection() {
	old := c.OldColor()
	c.staleTwin.Store(uint32(c.AllocColor()))
	c.staleColor.Store(uint32(old))
	c.oldColor.Store(uint32(heap.OtherBlack(old)))
	if c.cfg.Mode == Generational {
		c.Cards.ClearAll()
		for ci := 0; ci < c.Cards.NumCards(); ci += heap.PageBytes {
			c.H.Pages.TouchCardByte(ci)
		}
	}
}

// switchColors is SwitchAllocationClearColors of Figure 3: exchange the
// meaning of the two toggled colors. Only the collector writes these
// variables; mutators read them on every allocation and barrier call.
func (c *Collector) switchColors() {
	a := c.allocColor.Load()
	cl := c.clearColor.Load()
	c.clearColor.Store(a)
	c.allocColor.Store(cl)
}
