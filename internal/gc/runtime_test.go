package gc

import (
	"errors"
	"testing"
	"time"

	"gengc/internal/heap"
	"gengc/internal/trace"
)

// TestBackgroundTrigger: the young-generation trigger fires the
// background collector (§3.3).
func TestBackgroundTrigger(t *testing.T) {
	c, err := New(Config{Mode: Generational, HeapBytes: 8 << 20, YoungBytes: 256 << 10})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer c.Stop()
	m := c.NewMutator()
	defer m.Detach()
	for i := 0; i < 20000; i++ {
		if _, err := m.Alloc(0, 64); err != nil {
			t.Fatal(err)
		}
		m.Cooperate()
	}
	deadline := time.Now().Add(10 * time.Second)
	for c.CyclesDone() == 0 && time.Now().Before(deadline) {
		m.Cooperate()
		time.Sleep(time.Millisecond)
	}
	if c.CyclesDone() == 0 {
		t.Fatal("background partial never ran")
	}
}

// TestOOMTriggersFullCollection: when the heap fills with garbage, the
// allocation slow path forces a full collection and succeeds.
func TestOOMTriggersFullCollection(t *testing.T) {
	c, err := New(Config{Mode: NonGenerational, HeapBytes: 2 << 20, YoungBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer c.Stop()
	m := c.NewMutator()
	defer m.Detach()
	// All garbage: each allocation replaces the root.
	r := m.PushRoot(0)
	for i := 0; i < 200000; i++ {
		a, err := m.Alloc(0, 256)
		if err != nil {
			t.Fatalf("allocation %d failed: %v", i, err)
		}
		m.SetRoot(r, a)
		m.Cooperate()
		if c.FullsDone() > 2 {
			return // full collections rescued us: done
		}
	}
	if c.FullsDone() == 0 {
		t.Fatal("no full collection despite heap pressure")
	}
}

// TestHopelessOOMReturnsError: a heap packed with live data eventually
// reports out-of-memory instead of hanging.
func TestHopelessOOMReturnsError(t *testing.T) {
	c, err := New(Config{Mode: Generational, HeapBytes: 1 << 20, YoungBytes: 512 << 10})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer c.Stop()
	m := c.NewMutator()
	defer m.Detach()
	sawErr := false
	for i := 0; i < 100000; i++ {
		a, err := m.Alloc(0, 2048)
		if err != nil {
			if !errors.Is(err, heap.ErrOutOfMemory) {
				t.Fatalf("unexpected error type: %v", err)
			}
			sawErr = true
			break
		}
		m.PushRoot(a) // everything stays live
		m.Cooperate()
	}
	if !sawErr {
		t.Fatal("allocation never failed on a heap full of live data")
	}
}

// TestStopIsIdempotent: Stop can be called multiple times and before
// Start.
func TestStopIsIdempotent(t *testing.T) {
	c := newTestCollector(t, Generational)
	c.Stop() // not started: no-op
	c.Start()
	c.Start() // double start: no-op
	c.Stop()
	c.Stop()
}

// TestRetargetRatchet: after a full collection the target is what the
// cycle left occupied, in the currency the mode triggers in, plus
// headroom — capped, and never lowered. The generational modes trigger
// on old-generation bytes (allocated − young), so what the mutators
// allocated while the cycle ran must not move their target: retargeting
// on total occupancy would raise it by the 16 MiB of the last leg for
// good, which is how a faster mutator bloats heap_peak_mb. Without
// generations the trigger is total occupancy and the sprint does raise
// the target — the ratchet behind the footprint contrast of Figure 15.
func TestRetargetRatchet(t *testing.T) {
	const (
		mib      = int64(1 << 20)
		heapSize = 64 << 20
		before   = 7 * mib // allocated when the full cycle starts
		live     = 5 * mib // what its sweep leaves of that
	)
	for _, mode := range []Mode{NonGenerational, Generational, GenerationalAging} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			cfg := Config{Mode: mode, HeapBytes: heapSize}.withDefaults()
			// fullCycle plays one full collection during which the
			// mutators allocate sprint bytes, and returns the pacer.
			fullCycle := func(sprint int64) *Pacer {
				p := newPacer(cfg, heapSize)
				p.NoteAlloc(before)
				youngAtStart := p.YoungAlloc()
				p.NoteAlloc(sprint)
				if p.EndCycle(youngAtStart, live+sprint, true) {
					t.Fatal("a full collection reported another full due")
				}
				return p
			}
			base := live + fullHeadroom
			for _, sprint := range []int64{0, 4 * mib, 16 * mib} {
				want := base
				if mode == NonGenerational {
					want += sprint
				}
				p := fullCycle(sprint)
				if got := p.Target(); got != want {
					t.Errorf("%d MiB allocated during the cycle: target %d, want %d", sprint/mib, got, want)
				}
				// Never lowered: a later full cycle that finds less.
				p.EndCycle(p.YoungAlloc(), mib, true)
				if got := p.Target(); got != want {
					t.Errorf("target moved %d -> %d after a smaller full cycle", want, got)
				}
			}

			// Clamped to the emergency bound from above and the
			// initial target from below.
			p := newPacer(cfg, heapSize)
			p.EndCycle(0, 0, true)
			if got := p.Target(); got != fullHeadroom {
				t.Errorf("empty heap: target %d, want the initial %d", got, fullHeadroom)
			}
			p.EndCycle(0, heapSize, true)
			if got := p.Target(); got != p.emergency {
				t.Errorf("full heap: target %d, want the emergency bound %d", got, p.emergency)
			}
			// A heap whose emergency bound is below the headroom starts
			// its target at that bound.
			if p := newPacer(cfg, 2<<20); p.Target() != p.emergency {
				t.Errorf("2 MiB heap: initial target %d, want the emergency bound %d", p.Target(), p.emergency)
			}

			// The staleness check on a queued full request (run) reads
			// the target in the same currency: with generations, young
			// bytes on top of an old generation below the target do
			// not keep a full due — until the emergency bound.
			p = fullCycle(0)
			p.NoteAlloc(4 * mib) // young; total = live + 4 MiB > target
			if got, want := p.FullDue(live+4*mib), mode == NonGenerational; got != want {
				t.Errorf("FullDue with %d old + %d young bytes against target %d = %v, want %v",
					live, 4*mib, p.Target(), got, want)
			}
			if !p.FullDue(base+p.YoungAlloc()) || !p.FullDue(p.emergency) {
				t.Error("FullDue false with the old generation at the target / the heap at the emergency bound")
			}

			// The partial-end verdict: a full is due iff what the
			// partial left outside the young generation reached the
			// target, whatever was allocated while it ran.
			for _, sprint := range []int64{0, 4 * mib} {
				for _, c := range []struct {
					old int64
					due bool
				}{{base - 1, false}, {base, true}} {
					p := fullCycle(0)
					youngAtStart := p.YoungAlloc()
					p.NoteAlloc(sprint)
					if got := p.EndCycle(youngAtStart, c.old+sprint, false); got != c.due {
						t.Errorf("partial leaving %d old bytes (target %d, sprint %d MiB): fullDue = %v, want %v",
							c.old, p.Target(), sprint/mib, got, c.due)
					}
				}
			}
		})
	}
}

// TestMutatorCollectHelper: (*Mutator).Collect runs a cycle even without
// the background goroutine.
func TestMutatorCollectHelper(t *testing.T) {
	c := newTestCollector(t, Generational)
	m := c.NewMutator()
	mustAlloc(t, m, 0, 64)
	m.Collect(false)
	if c.CyclesDone() != 1 {
		t.Fatalf("cycles = %d, want 1", c.CyclesDone())
	}
	m.Collect(true)
	if c.FullsDone() != 1 {
		t.Fatalf("fulls = %d, want 1", c.FullsDone())
	}
}

// TestVerifyCatchesDanglingRoot: the verifier reports a root pointing at
// a freed object.
func TestVerifyCatchesDanglingRoot(t *testing.T) {
	c := newTestCollector(t, Generational)
	m := c.NewMutator()
	a := mustAlloc(t, m, 0, 32)
	m.PushRoot(a)
	// Simulate an (incorrect) free of a live object.
	c.H.SweepBlock(int(a/heap.BlockSize), heap.NoColor, heap.NoColor, heap.Black, func(x heap.Addr, _ heap.Color) bool { return x == a })
	if err := c.Verify(); err == nil {
		t.Fatal("Verify missed a dangling root")
	}
}

// flushCountSink counts Flush calls and fails each one when failing is
// set.
type flushCountSink struct {
	flushes int
	failing bool
}

func (s *flushCountSink) Emit(trace.Event) {}
func (s *flushCountSink) Flush() error {
	s.flushes++
	if s.failing {
		return errors.New("sink down")
	}
	return nil
}

// TestTriggerDumpFlushesOncePerGap: a storm of flight-recorder triggers
// flushes the tracer once, for the one capture the recorder's gap lets
// through, and counts every trigger.
func TestTriggerDumpFlushesOncePerGap(t *testing.T) {
	sink := &flushCountSink{}
	c, err := New(Config{Mode: Generational, TraceSink: sink, FlightRecorderEvents: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	for i := 0; i < 100; i++ {
		c.triggerDump("shed")
	}
	if sink.flushes > 1 {
		t.Errorf("100 triggers flushed the tracer %d times, want at most 1", sink.flushes)
	}
	if got := c.FlightRecorder().TriggerCount(); got != 100 {
		t.Errorf("TriggerCount = %d, want 100", got)
	}
}

// TestFailingSinkDoesNotStarveRecorder: the tracer's failure isolation
// cuts off the user's sink, not the flight recorder, so a dump taken
// after the sink degraded still holds the latest cycle.
func TestFailingSinkDoesNotStarveRecorder(t *testing.T) {
	c, err := New(Config{Mode: Generational, TraceSink: &flushCountSink{failing: true},
		FlightRecorderEvents: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	const cycles = 5
	for i := 0; i < cycles; i++ {
		c.CollectNow(false)
	}
	if !c.TraceDegraded() {
		t.Fatal("the failing sink never degraded")
	}
	if !c.FlightRecorder().Trigger("manual") {
		t.Fatal("manual trigger captured nothing")
	}
	d, _ := c.FlightRecorder().LastDump()
	for _, e := range d.Events {
		if e.Ev == "cycle" && e.Cycle == cycles {
			return
		}
	}
	t.Errorf("dump of %d events holds no cycle event for cycle %d", len(d.Events), cycles)
}
