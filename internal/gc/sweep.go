package gc

import (
	"gengc/internal/fault"
	"gengc/internal/heap"
)

// sweepChunkBlocks is the block walk's step: the walk passes the
// fault.SweepShard seam once per chunk of this many blocks.
const sweepChunkBlocks = 16

// maxAgeBuckets bounds the per-age survival histogram. Ages past the
// last bucket are clamped into it; the tenure threshold is at most 200
// (Config.OldAge validation), well inside the uint8 age range.
const maxAgeBuckets = 208

// ageBucket clamps an age into the survival histogram.
func ageBucket(a uint8) int {
	if int(a) >= maxAgeBuckets {
		return maxAgeBuckets - 1
	}
	return int(a)
}

// sweepBlockOne reclaims the clear-colored objects of block b (Figures 2
// and 5) — and, in a full collection, the stale-coded ones — counting
// them into the cycle record. With the color toggle there is nothing
// else to do in the simple algorithm: old objects keep the old code —
// that is the promotion — and allocation-colored
// objects were created during the cycle and stay untouched, playing the
// role of white in the next cycle.
//
// The aging variant additionally walks the age table: reachable objects
// younger than the tenure threshold are recolored with the allocation
// color (so they remain collectible in the next partial collection) and
// their age is incremented; objects at the threshold stay old.
//
// heap.SweepBlock frees the dead cells a color word at a time; only the
// aging variant sees the survivors one by one.
func (c *Collector) sweepBlockOne(b int, full, aging bool, cc, stale, old, ac heap.Color, oldest uint8) {
	if !full && c.H.AllBlackHint(b) {
		// Entirely old block: it holds only old objects and has
		// no free cells, so nothing in it can carry the clear
		// color until a full collection flips the old code.
		// Partial sweeps skip it — this is what confines
		// a partial collection's working set to the young
		// generation (Figure 15).
		return
	}
	var survivor func(addr heap.Addr, col heap.Color) bool
	young := false // a survivor below the tenure threshold: not an old block
	if aging {
		survivor = func(addr heap.Addr, col heap.Color) bool {
			age := c.H.Age(addr)
			young = young || age < oldest
			if addr == c.globals {
				return false
			}
			c.H.Pages.TouchAge(addr)
			// Objects at or past the threshold stay old with their
			// age frozen: that is the promotion, counted trace-side in
			// finishCycle (traced young minus the survivors demoted
			// here — the sweep cannot tell a freshly tenured object
			// from one tenured cycles ago, but the trace only ever
			// blackens young ones).
			if age < oldest {
				c.H.SetColor(addr, ac)
				c.H.SetAge(addr, age+1)
				if col == old && !full {
					c.cyc.Survivors++
					c.cyc.SurvivorBytes += c.H.SizeOf(addr)
					if c.cyc.SurvivalByAge == nil {
						c.cyc.SurvivalByAge = make([]int64, maxAgeBuckets)
					}
					c.cyc.SurvivalByAge[ageBucket(age)]++
				}
			}
			return false
		}
	}
	n, bytes, allBlack := c.H.SweepBlock(b, cc, stale, old, survivor)
	if n > 0 {
		bucket := c.H.BlockClass(b)
		if bucket < 0 {
			bucket = heap.NumClasses // a dead large object, its blocks free by now
		}
		c.cyc.ObjectsFreed += n
		c.cyc.BytesFreed += bytes
		if c.cyc.DeathsByClass == nil {
			c.cyc.DeathsByClass = make([]int64, heap.NumClasses+1)
		}
		c.cyc.DeathsByClass[bucket] += int64(n)
		c.noteFreed(n, bytes)
	}
	// Every block the sweep enters gets its hint recomputed (a partial
	// sweep enters only unhinted ones, and no sweep enters a block with
	// no cell); only small blocks are all-black.
	c.H.SetAllBlackHint(b, allBlack && !young && c.H.BlockQuiet(b))
}

// sweep reclaims every clear-colored object, block by block, in chunks
// of sweepChunkBlocks, and — in a full collection — every stale-coded
// one: no byte holds the stale code afterwards, so it retires.
func (c *Collector) sweep(full bool) {
	cc, stale, old := c.ClearColor(), c.stale(), c.OldColor()
	ac := c.AllocColor()
	aging := c.cfg.Mode == GenerationalAging
	oldest := c.oldestAge()
	nBlocks := c.H.NumBlocks()
	for lo := 1; lo < nBlocks; lo += sweepChunkBlocks {
		// Delay-only point: skipping a chunk would leak its dead cells
		// and corrupt the hint/aging bookkeeping, so Drop/Fail rules
		// degrade to their configured delay.
		c.seamDelay(fault.SweepShard)
		for b := lo; b < min(lo+sweepChunkBlocks, nBlocks); b++ {
			// A block with no cell has nothing to free, and its hint is
			// false already: it became free through a sweep that freed
			// its cells and rewrote the hint, or never held a cell
			// (CheckIntegrity audits that).
			if c.H.HoldsCells(b) {
				c.sweepBlockOne(b, full, aging, cc, stale, old, ac, oldest)
			}
		}
	}
	c.staleColor.Store(uint32(heap.NoColor))
}
