package gc

import (
	"strings"
	"sync"
	"testing"
	"time"

	"gengc/internal/heap"
	"gengc/internal/metrics"
)

// collectWhileCooperating runs a synchronous cycle while keeping the
// mutators responsive from the test goroutine's perspective: each
// mutator is parked in a goroutine that cooperates until the cycle ends.
func collectWhileCooperating(c *Collector, full bool, muts ...*Mutator) {
	var wg sync.WaitGroup
	done := make(chan struct{})
	for _, m := range muts {
		wg.Add(1)
		go func(m *Mutator) {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
					m.Cooperate()
				}
			}
		}(m)
	}
	c.CollectNow(full)
	close(done)
	wg.Wait()
}

// TestPartialPromotesSurvivors: §3 — after a partial collection the
// survivors are black (old) and are neither traced nor reclaimed by the
// next partial.
func TestPartialPromotesSurvivors(t *testing.T) {
	c := newTestCollector(t, Generational)
	m := c.NewMutator()
	a := mustAlloc(t, m, 1, 0)
	m.PushRoot(a)
	garbage := mustAlloc(t, m, 0, 32)
	_ = garbage

	collectWhileCooperating(c, false, m)
	if got := c.H.Color(a); got != heap.Black {
		t.Fatalf("survivor color = %v, want black (promoted)", got)
	}
	if c.H.ValidObject(garbage) {
		t.Fatal("garbage survived the partial collection")
	}

	// The next partial must not rescan the promoted object.
	scanned := func() int {
		cs := c.Metrics().Cycles()
		return cs[len(cs)-1].ObjectsScanned
	}
	collectWhileCooperating(c, false, m)
	// Only the globals object is re-grayed as a root; the promoted
	// object must not be traced (no dirty card points at it).
	if got := scanned(); got > 2 {
		t.Errorf("second partial scanned %d objects, want <= 2 (old gen must not be traced)", got)
	}
	if c.H.Color(a) != heap.Black {
		t.Error("promoted object lost its color")
	}
}

// TestFullCollectsOldGarbage: garbage promoted by a partial is reclaimed
// by the next full collection (InitFullCollection recolors black).
func TestFullCollectsOldGarbage(t *testing.T) {
	c := newTestCollector(t, Generational)
	m := c.NewMutator()
	a := mustAlloc(t, m, 0, 32)
	r := m.PushRoot(a)
	collectWhileCooperating(c, false, m)
	if c.H.Color(a) != heap.Black {
		t.Fatal("not promoted")
	}
	m.SetRoot(r, 0) // now it is old garbage
	collectWhileCooperating(c, false, m)
	if !c.H.ValidObject(a) {
		t.Fatal("partial collected an old object")
	}
	collectWhileCooperating(c, true, m)
	if c.H.ValidObject(a) {
		t.Fatal("full collection did not reclaim old garbage")
	}
}

// TestInterGenerationalPointerKeepsYoungAlive: a young object reachable
// only through an old object's slot must survive a partial collection —
// the card-marking invariant of §3.1.
func TestInterGenerationalPointerKeepsYoungAlive(t *testing.T) {
	for _, mode := range []Mode{Generational, GenerationalAging} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			cfg := Config{Mode: mode, HeapBytes: 4 << 20, YoungBytes: 1 << 20, OldAge: 1}
			c, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			m := c.NewMutator()
			old := mustAlloc(t, m, 1, 0)
			m.PushRoot(old)
			// Promote (tenure threshold 1 for aging: survive one cycle).
			collectWhileCooperating(c, false, m)
			if mode == GenerationalAging {
				collectWhileCooperating(c, false, m)
			}
			if c.H.Color(old) != heap.Black {
				t.Fatalf("old object color = %v, want black", c.H.Color(old))
			}
			// Store a young object reachable ONLY via the old object.
			young := mustAlloc(t, m, 0, 32)
			m.Update(old, 0, young)
			collectWhileCooperating(c, false, m)
			if !c.H.ValidObject(young) {
				t.Fatal("young object referenced from old generation was collected")
			}
			if m.Read(old, 0) != young {
				t.Fatal("old object's slot corrupted")
			}
			if err := c.Verify(); err != nil {
				t.Fatal(err)
			}
			if err := c.VerifyCardInvariant(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestGlobalRootsSurvive: objects reachable only from a global root
// survive partial and full collections.
func TestGlobalRootsSurvive(t *testing.T) {
	c := newTestCollector(t, Generational)
	m := c.NewMutator()
	a := mustAlloc(t, m, 0, 48)
	m.Update(c.Globals(), 7, a)
	collectWhileCooperating(c, false, m)
	if !c.H.ValidObject(a) {
		t.Fatal("global-rooted object collected by partial")
	}
	collectWhileCooperating(c, true, m)
	if !c.H.ValidObject(a) {
		t.Fatal("global-rooted object collected by full")
	}
	m.Update(c.Globals(), 7, 0)
	collectWhileCooperating(c, true, m)
	collectWhileCooperating(c, true, m)
	if c.H.ValidObject(a) {
		t.Fatal("dropped global not reclaimed after two fulls")
	}
}

// TestNonGenerationalReclaimsEachCycle: with the toggle, garbage made
// before cycle N is reclaimed by cycle N+1 at the latest.
func TestNonGenerationalReclaimsEachCycle(t *testing.T) {
	c := newTestCollector(t, NonGenerational)
	m := c.NewMutator()
	keep := mustAlloc(t, m, 0, 32)
	m.PushRoot(keep)
	var garbage []heap.Addr
	for i := 0; i < 50; i++ {
		garbage = append(garbage, mustAlloc(t, m, 0, 32))
	}
	collectWhileCooperating(c, true, m)
	collectWhileCooperating(c, true, m)
	for _, g := range garbage {
		if c.H.ValidObject(g) {
			t.Fatalf("garbage %#x survived two full cycles", g)
		}
	}
	if !c.H.ValidObject(keep) {
		t.Fatal("rooted object collected")
	}
}

// TestYellowObjectsNotPromoted: objects created during a partial cycle
// carry the allocation color and are not promoted by that cycle (§4) —
// and are collectible in the next cycle once dead.
func TestYellowObjectsNotPromoted(t *testing.T) {
	c := newTestCollector(t, Generational)
	m := c.NewMutator()
	m.PushRoot(mustAlloc(t, m, 0, 32))

	var during heap.Addr
	var wg sync.WaitGroup
	done := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		allocated := false
		for {
			select {
			case <-done:
				return
			default:
				m.Cooperate()
				// Allocate one object mid-cycle, after the toggle.
				if !allocated && c.tracing.Load() &&
					Status(m.status.Load()) == StatusAsync {
					during = mustAlloc(t, m, 0, 32)
					allocated = true
				}
			}
		}
	}()
	c.CollectNow(false)
	close(done)
	wg.Wait()
	if during == 0 {
		t.Skip("cycle completed before the mid-cycle allocation")
	}
	if got := c.H.Color(during); got == heap.Black {
		t.Fatal("object created during the cycle was promoted")
	}
	// It is garbage (never rooted): the next partial must reclaim it.
	collectWhileCooperating(c, false, m)
	if c.H.ValidObject(during) {
		t.Fatal("yellow garbage not reclaimed by the following partial")
	}
}

// TestCardsClearedBySimplePartial: after a partial collection in the
// simple algorithm every previously dirty card is clean (all survivors
// were promoted, §3.2).
func TestCardsClearedBySimplePartial(t *testing.T) {
	c := newTestCollector(t, Generational)
	m := c.NewMutator()
	x := mustAlloc(t, m, 2, 0)
	y := mustAlloc(t, m, 0, 32)
	m.PushRoot(x)
	m.Update(x, 0, y)
	ci := c.Cards.IndexOf(x)
	if !c.Cards.IsDirty(ci) {
		t.Fatal("setup: card not dirty")
	}
	collectWhileCooperating(c, false, m)
	if c.Cards.IsDirty(ci) {
		t.Fatal("card still dirty after simple partial")
	}
}

// TestStatsRecorded: cycles record freed counts and kinds.
func TestStatsRecorded(t *testing.T) {
	c := newTestCollector(t, Generational)
	m := c.NewMutator()
	for i := 0; i < 20; i++ {
		mustAlloc(t, m, 0, 64)
	}
	collectWhileCooperating(c, false, m)
	collectWhileCooperating(c, true, m)
	cs := c.Metrics().Cycles()
	if len(cs) != 2 {
		t.Fatalf("%d cycles recorded, want 2", len(cs))
	}
	if cs[0].Kind.String() != "partial" || cs[1].Kind.String() != "full" {
		t.Errorf("kinds = %v, %v", cs[0].Kind, cs[1].Kind)
	}
	if cs[0].ObjectsFreed < 20 {
		t.Errorf("partial freed %d, want >= 20", cs[0].ObjectsFreed)
	}
	if cs[0].Duration <= 0 {
		t.Error("no duration recorded")
	}
	if c.CyclesDone() != 2 || c.FullsDone() != 1 {
		t.Errorf("counters = %d/%d", c.CyclesDone(), c.FullsDone())
	}
}

// TestRecordPhaseDurations: the record's sub-phase durations nest in the
// phases that contain them — InitFullTime zero on partials, the card
// scan inside sync2 (and zero outside generational partials), the ack
// rounds and drains inside the trace — and its per-phase page counts
// sum to PagesTouched, with pages in every trace (the globals root at
// least) and every generational partial's card scan.
func TestRecordPhaseDurations(t *testing.T) {
	for _, mode := range []Mode{NonGenerational, Generational, GenerationalAging} {
		c, err := New(Config{Mode: mode, HeapBytes: 4 << 20, YoungBytes: 1 << 20, TrackPages: true})
		if err != nil {
			t.Fatal(err)
		}
		m := c.NewMutator()
		m.PushRoot(mustAlloc(t, m, 2, 64))
		for i := 0; i < 200; i++ {
			mustAlloc(t, m, 1, 64)
		}
		collectWhileCooperating(c, false, m)
		collectWhileCooperating(c, true, m)
		collectWhileCooperating(c, false, m)
		for _, r := range c.Metrics().Cycles() {
			full := r.Kind == metrics.Full
			if !full && r.InitFullTime != 0 {
				t.Errorf("%v partial cycle %d: InitFullTime %v", mode, r.Seq, r.InitFullTime)
			}
			if scans := !full && mode.IsGenerational(); !scans && r.CardScanTime != 0 || r.CardScanTime > r.Sync2Time {
				t.Errorf("%v %v cycle %d: CardScanTime %v, Sync2Time %v",
					mode, r.Kind, r.Seq, r.CardScanTime, r.Sync2Time)
			}
			if r.AckTime <= 0 || r.DrainTime <= 0 || r.AckTime+r.DrainTime > r.TraceTime {
				t.Errorf("%v %v cycle %d: AckTime %v + DrainTime %v, TraceTime %v",
					mode, r.Kind, r.Seq, r.AckTime, r.DrainTime, r.TraceTime)
			}
			if sum := r.CardScanPages + r.TracePages + r.SweepPages; sum != r.PagesTouched {
				t.Errorf("%v %v cycle %d: card scan %d + trace %d + sweep %d = %d pages, PagesTouched %d",
					mode, r.Kind, r.Seq, r.CardScanPages, r.TracePages, r.SweepPages, sum, r.PagesTouched)
			}
			if scans := !full && mode.IsGenerational(); r.TracePages <= 0 || scans && r.CardScanPages <= 0 {
				t.Errorf("%v %v cycle %d: card scan %d, trace %d pages",
					mode, r.Kind, r.Seq, r.CardScanPages, r.TracePages)
			}
		}
		m.Detach()
	}
}

// TestAllBlackBlockSkipSoundness: a fully black block skipped by partial
// sweeps must still have its dead objects reclaimed by a full
// collection.
func TestAllBlackBlockSkipSoundness(t *testing.T) {
	c := newTestCollector(t, Generational)
	m := c.NewMutator()
	// Fill whole blocks with objects, root them, promote them.
	var roots []int
	var objs []heap.Addr
	for i := 0; i < 3*heap.BlockSize/64; i++ {
		a := mustAlloc(t, m, 0, 64)
		roots = append(roots, m.PushRoot(a))
		objs = append(objs, a)
	}
	collectWhileCooperating(c, false, m)
	// At least one block should now be hinted all-black.
	hinted := 0
	for b := 1; b < c.H.NumBlocks(); b++ {
		if c.H.AllBlackHint(b) {
			hinted++
		}
	}
	if hinted == 0 {
		t.Fatal("no all-black blocks after promoting block-filling objects")
	}
	// Drop everything; partials skip the black blocks (objects stay),
	// a full must reclaim them.
	for _, r := range roots {
		m.SetRoot(r, 0)
	}
	collectWhileCooperating(c, false, m)
	alive := 0
	for _, a := range objs {
		if c.H.ValidObject(a) {
			alive++
		}
	}
	if alive == 0 {
		t.Fatal("partial reclaimed promoted (old) objects")
	}
	collectWhileCooperating(c, true, m)
	for _, a := range objs {
		if c.H.ValidObject(a) {
			t.Fatal("full collection missed dead old objects in hinted blocks")
		}
	}
	if err := c.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestCycleWithNoMutators: collections run fine with an empty registry.
func TestCycleWithNoMutators(t *testing.T) {
	c := newTestCollector(t, Generational)
	c.CollectNow(false)
	c.CollectNow(true)
	if c.CyclesDone() != 2 {
		t.Fatalf("cycles = %d", c.CyclesDone())
	}
	if err := c.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestMutatorAttachMidCycle: attaching a mutator during a cycle must not
// wedge the handshake protocol.
func TestMutatorAttachMidCycle(t *testing.T) {
	c := newTestCollector(t, Generational)
	m := c.NewMutator()
	mustAlloc(t, m, 0, 32)
	var wg sync.WaitGroup
	done := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		attached := false
		for {
			select {
			case <-done:
				return
			default:
				m.Cooperate()
				if !attached && Status(c.statusC.Load()) != StatusAsync {
					m2 := c.NewMutator()
					a := mustAlloc(t, m2, 0, 32)
					m2.PushRoot(a)
					m2.Cooperate()
					m2.Detach()
					attached = true
				}
			}
		}
	}()
	c.CollectNow(false)
	c.CollectNow(true)
	close(done)
	wg.Wait()
	if err := c.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckQuiescentCycleNamesViolations is the auditor's negative leg:
// after a clean cycle, an object left gray, one left on the collector's
// gray stack, one still carrying the old code the full collection
// flipped away from, or the stale code left set must be named as a
// violation, not passed.
func TestCheckQuiescentCycleNamesViolations(t *testing.T) {
	for want, leave := range map[string]func(*Collector){
		"left gray after cycle":         func(c *Collector) { c.H.SetColor(c.globals, heap.Gray) },
		"left queued on the gray stack": func(c *Collector) { c.gray = append(c.gray, c.globals) },
		"still carries the stale old code": func(c *Collector) {
			c.H.SetColor(c.globals, heap.OtherBlack(c.OldColor()))
		},
		"stale old code black still set": func(c *Collector) { c.staleColor.Store(uint32(heap.Black)) },
	} {
		c, err := New(Config{Mode: Generational, HeapBytes: 1 << 20, YoungBytes: 256 << 10})
		if err != nil {
			t.Fatal(err)
		}
		c.CollectNow(true)
		if err := c.CheckQuiescentCycle(); err != nil {
			t.Fatalf("clean cycle failed the audit: %v", err)
		}
		leave(c)
		if err := c.CheckQuiescentCycle(); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("audit = %v, want a violation naming %q", err, want)
		}
		c.Stop()
	}
}

// TestFullCollectionFlipsOldCode: each full collection flips the old code
// instead of recoloring the heap, and the census — hence Snapshot,
// expvar and /metrics — counts old objects the same on either side of a
// flip: both codes fold into Black.
func TestFullCollectionFlipsOldCode(t *testing.T) {
	c := newTestCollector(t, Generational)
	m := c.NewMutator()
	var live []heap.Addr
	for i := 0; i < 50; i++ {
		a := mustAlloc(t, m, 1, 0)
		m.PushRoot(a)
		live = append(live, a)
	}
	for i := 0; i < 20; i++ {
		mustAlloc(t, m, 0, 32) // garbage
	}
	collectWhileCooperating(c, false, m)
	want := c.H.CountColor(heap.Black)
	if want < len(live) {
		t.Fatalf("after a partial %d old objects, want at least the %d rooted", want, len(live))
	}
	for i, old := range []heap.Color{heap.Black2, heap.Black} {
		collectWhileCooperating(c, true, m)
		if got := c.OldColor(); got != old {
			t.Fatalf("full %d: old code %v, want %v", i+1, got, old)
		}
		for _, a := range live {
			if got := c.H.Color(a); got != old {
				t.Fatalf("full %d: live object %#x is %v, want %v", i+1, a, got, old)
			}
		}
		if got := c.H.CountColor(heap.Black); got != want {
			t.Errorf("full %d: CountColor(black) = %d, want %d", i+1, got, want)
		}
		if s := c.H.Census(); s.ColorCounts[heap.Black] != want {
			t.Errorf("full %d: census black = %d, want %d", i+1, s.ColorCounts[heap.Black], want)
		}
		if err := c.CheckQuiescentCycle(); err != nil {
			t.Errorf("full %d: %v", i+1, err)
		}
	}
	if err := c.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestNoCycleAfterCloseAbort: Stop aborts a full cycle wedged on a
// mutator that never cooperates, which leaves the cycle's stale old code
// set (and could leave grays on no stack). A cycle that gets the lock
// afterwards must not run on that heap: a second flip would make the
// unreached stale objects old.
func TestNoCycleAfterCloseAbort(t *testing.T) {
	c, err := New(Config{Mode: Generational, HeapBytes: 1 << 20, YoungBytes: 256 << 10,
		StallTimeout: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	m := c.NewMutator()
	m.PushRoot(mustAlloc(t, m, 1, 0))
	done := make(chan struct{})
	go func() {
		c.CollectNow(true)
		close(done)
	}()
	for Status(c.statusC.Load()) == StatusAsync {
		time.Sleep(time.Millisecond)
	}
	c.Stop()
	<-done
	if c.AbortedCycles() != 1 || c.stale() == heap.NoColor {
		t.Fatalf("setup: %d aborted cycles, stale code %v; want the wedged full cycle aborted mid-flip",
			c.AbortedCycles(), c.stale())
	}
	m.Detach()
	cycles := c.CyclesDone()
	c.Cycle(true)
	if c.CyclesDone() != cycles || c.AbortedCycles() != 1 {
		t.Errorf("a cycle ran after the close: %d completed (was %d), %d aborted",
			c.CyclesDone(), cycles, c.AbortedCycles())
	}
}
