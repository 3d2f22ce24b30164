package gc

import (
	"sync"
	"sync/atomic"
	"time"

	"gengc/internal/fault"
	"gengc/internal/heap"
)

// sweepChunkBlocks is how many blocks a walker claims per cursor bump:
// large enough to amortize the atomic, small enough to balance uneven
// block populations.
const sweepChunkBlocks = 16

// sweepSpillLatency approximates the scheduler cost of engaging the
// pool mid-phase on a loaded machine: a freshly spawned worker may wait
// a full rotation of the run queue — tens of milliseconds behind
// compute-bound mutators — before claiming its first block, so the pool
// is engaged only when the projected remaining walk time dwarfs that
// latency.
const sweepSpillLatency = 25 * time.Millisecond

// sweepState accumulates one worker's reclamation results: the counters
// that are merged into the cycle record when the sweep finishes. It
// lives on the pool's traceWorker and is reused across cycles, so no
// counter is contended and nothing is allocated per sweep.
type sweepState struct {
	objectsFreed int
	bytesFreed   int
	survivors    int

	// Demographics: deaths by allocator size class (the last slot
	// aggregates large objects), the aging survival histogram indexed
	// by the age at which the object survived, and the byte volume of
	// the demoted survivors (the young side of the aging promotion
	// arithmetic in finishCycle).
	deathsByClass [heap.NumClasses + 1]int64
	survivalByAge [maxAgeBuckets]int64
	survivorBytes int
}

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

// mergeInto folds this sweeper's counters into the cycle record; the
// caller (the collector goroutine, after every sweeper finished) owns
// cyc.
func (st *sweepState) mergeInto(c *Collector) {
	c.cyc.ObjectsFreed += st.objectsFreed
	c.cyc.BytesFreed += st.bytesFreed
	c.cyc.Survivors += st.survivors
	c.cyc.SurvivorBytes += st.survivorBytes
	for i, n := range st.deathsByClass {
		if n == 0 {
			continue
		}
		if c.cyc.DeathsByClass == nil {
			c.cyc.DeathsByClass = make([]int64, heap.NumClasses+1)
		}
		c.cyc.DeathsByClass[i] += n
	}
	for i, n := range st.survivalByAge {
		if n == 0 {
			continue
		}
		if c.cyc.SurvivalByAge == nil {
			c.cyc.SurvivalByAge = make([]int64, maxAgeBuckets)
		}
		c.cyc.SurvivalByAge[i] += n
	}
}

// sweepBlockOne reclaims the clear-colored objects of block b (Figures 2
// and 5) into st. With the color toggle there is nothing else to do in
// the simple algorithm: black (old) objects stay black — that is the
// promotion — and allocation-colored objects were created during the
// cycle and stay untouched, playing the role of white in the next cycle.
//
// The aging variant additionally walks the age table: reachable objects
// younger than the tenure threshold are recolored with the allocation
// color (so they remain collectible in the next partial collection) and
// their age is incremented; objects at the threshold stay black.
//
// Distinct blocks hold distinct objects — and whole color words — so
// concurrent calls for different blocks touch disjoint color/age entries
// and per-block hints. heap.SweepBlock frees the dead cells a color word
// at a time; only the aging variant sees the survivors one by one.
func (c *Collector) sweepBlockOne(b int, full, aging bool, cc, ac heap.Color, oldest uint8, st *sweepState) {
	if !full && c.H.AllBlackHint(b) {
		// Entirely old block: it holds only black objects and
		// has no free cells, so nothing in it can carry the
		// clear color until a full collection recolors the
		// heap. Partial sweeps skip it — this is what confines
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
			// Objects at or past the threshold stay black with their
			// age frozen: that is the promotion, counted trace-side in
			// finishCycle (traced young minus the survivors demoted
			// here — the sweep cannot tell a freshly tenured object
			// from one tenured cycles ago, but the trace only ever
			// blackens young ones).
			if age < oldest {
				c.H.SetColor(addr, ac)
				c.H.SetAge(addr, age+1)
				if col == heap.Black && !full {
					st.survivors++
					st.survivorBytes += c.H.SizeOf(addr)
					st.survivalByAge[ageBucket(age)]++
				}
			}
			return false
		}
	}
	n, bytes, allBlack := c.H.SweepBlock(b, cc, survivor)
	if n > 0 {
		bucket := c.H.BlockClass(b)
		if bucket < 0 {
			bucket = heap.NumClasses // a dead large object, its blocks free by now
		}
		st.objectsFreed += n
		st.bytesFreed += bytes
		st.deathsByClass[bucket] += int64(n)
		c.noteFreed(n, bytes)
	}
	// Every block the sweep enters gets its hint recomputed (a partial
	// sweep enters only unhinted ones); only small blocks are all-black.
	c.H.SetAllBlackHint(b, allBlack && !young && c.H.BlockQuiet(b))
}

// walkBlocks applies visit to every block of the heap, in chunks of
// sweepChunkBlocks claimed from an atomic cursor — the one block walker
// under both the sweep and the full-collection recoloring pass. Worker 0
// walks alone first; when more workers are active it projects the whole
// walk's duration from its progress and engages the rest of the pool
// only for a walk long enough to pay for it (sweepSpillLatency). With
// one active worker it neither reads the clock nor spawns. Blocks are
// disjoint and the hint, color, age and page structures take concurrent
// writers, so visits need no further coordination.
//
// visit handles blocks [lo, hi) on behalf of worker w. When the pool
// engages, shard (if non-nil) runs once on each engaged worker after its
// last claim, with the time that worker joined — worker 0's being the
// start of the walk — so the caller can record per-worker spans.
func (c *Collector) walkBlocks(visit func(w *traceWorker, lo, hi int), shard func(id int, w *traceWorker, joined time.Time)) {
	ws := c.pool()
	nBlocks := c.H.NumBlocks()
	var cursor atomic.Int64
	cursor.Store(1) // block 0 is reserved
	claim := func(w *traceWorker) bool {
		lo := int(cursor.Add(sweepChunkBlocks)) - sweepChunkBlocks
		if lo >= nBlocks {
			return false
		}
		// Delay-only point: skipping a claimed chunk would leak its dead
		// cells and corrupt the hint/aging bookkeeping, so Drop/Fail
		// rules degrade to their configured delay.
		c.seamDelay(fault.SweepShard)
		hi := lo + sweepChunkBlocks
		if hi > nBlocks {
			hi = nBlocks
		}
		visit(w, lo, hi)
		return true
	}
	if len(ws) == 1 {
		for claim(ws[0]) {
		}
		return
	}

	start := time.Now()
	spill := false
	for !spill && claim(ws[0]) {
		if elapsed := time.Since(start); elapsed > sweepSpillLatency/8 {
			walked := cursor.Load() - 1
			if walked > int64(nBlocks) {
				walked = int64(nBlocks)
			}
			projected := time.Duration(float64(elapsed) * float64(nBlocks) / float64(walked))
			spill = projected-elapsed > sweepSpillLatency
		}
	}
	if !spill {
		return
	}
	run := func(id int, joined time.Time) {
		for claim(ws[id]) {
		}
		if shard != nil {
			shard(id, ws[id], joined)
		}
	}
	var wg sync.WaitGroup
	for id := 1; id < len(ws); id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			run(id, time.Now())
		}(id)
	}
	run(0, start)
	wg.Wait()
}

// sweep reclaims every clear-colored object, block by block.
func (c *Collector) sweep(full bool) {
	cc := c.ClearColor()
	ac := c.AllocColor()
	aging := c.cfg.Mode == GenerationalAging
	oldest := c.oldestAge()
	c.walkBlocks(func(w *traceWorker, lo, hi int) {
		for b := lo; b < hi; b++ {
			c.sweepBlockOne(b, full, aging, cc, ac, oldest, &w.sweep)
		}
	}, func(id int, w *traceWorker, joined time.Time) {
		// The sweep state was reset by the previous sweep, so the
		// counter is this worker's whole share.
		c.emitWorker(w.ring, "sweepshard", id, joined, int64(w.sweep.objectsFreed))
	})
	for id, w := range c.workers {
		st := &w.sweep
		st.mergeInto(c)
		c.cyc.WorkerFreed[id] += st.objectsFreed
		*st = sweepState{}
	}
}
