package gengc_test

// Integration tests for the observability layer: pause histograms and
// Snapshot, the structured trace stream, and the gcreport pipeline —
// driven through the public API plus the workload runner, the way
// cmd/gctrace and cmd/gcbench use them.

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"gengc"
	"gengc/internal/report"
	"gengc/internal/trace"
	"gengc/internal/workload"
)

// churn is a small allocation-heavy profile: most objects die young,
// some survive and get promoted, old objects are updated — every pause
// cause (handshake, roots, ack, allocwait) can occur.
func churn(threads int) workload.Profile {
	return workload.Profile{
		Name:          "churn",
		Threads:       threads,
		OpsPerThread:  30000,
		AllocFrac:     0.7,
		MeanSize:      96,
		SizeJitter:    32,
		SlotsMax:      3,
		NurserySlots:  256,
		AttachFrac:    0.5,
		SurvivorFrac:  0.02,
		SurvivorSlots: 64,
		SurvivorTTL:   2,
		BaseBytes:     256 << 10,
		BaseSlots:     4,
		BaseObjSize:   64,
		OldUpdateFrac: 0.05,
		OldRetain:     256,
		Locality:      0.5,
	}
}

// TestPauseBoundedChurnParallel runs the churn workload on four mutator
// threads against the single collector thread (the workers=1 case) and
// asserts that pauses were recorded and that the worst mutator-visible
// pause stays within a generous bound — the on-the-fly property:
// mutators are never stopped for a whole collection, so no pause should
// approach the multi-second range even on a loaded CI machine.
func TestPauseBoundedChurnParallel(t *testing.T) {
	t.Run("workers=1", func(t *testing.T) {
		res, err := workload.Run(churn(4), gengc.Config{
			HeapBytes:  8 << 20,
			Mode:       gengc.Generational,
			YoungBytes: 512 << 10,
		}, 42)
		if err != nil {
			t.Fatal(err)
		}
		if res.Summary.NumCycles == 0 {
			t.Fatal("workload triggered no collections")
		}
		p := res.Pauses
		if p.Count == 0 {
			t.Fatal("no pauses recorded despite collections running")
		}
		if p.Mutator != -1 {
			t.Errorf("fleet stats mutator id = %d, want -1", p.Mutator)
		}
		if p.Max <= 0 || p.Max > 5*time.Second {
			t.Errorf("max pause %v outside (0, 5s]", p.Max)
		}
		if p.P50 > p.P99 || p.P99 > p.P999 || p.P999 > p.Max {
			t.Errorf("quantiles not monotone: p50=%v p99=%v p99.9=%v max=%v",
				p.P50, p.P99, p.P999, p.Max)
		}
		if p.Total <= 0 {
			t.Errorf("total pause time = %v, want > 0", p.Total)
		}
	})
}

// TestSnapshotPerMutator drives mutators directly and checks the
// Snapshot surface: per-mutator entries while attached, fleet coverage
// after detach, and heap/cycle counters.
func TestSnapshotPerMutator(t *testing.T) {
	rt, err := gengc.NewManual(gengc.WithMode(gengc.Generational), gengc.WithHeapBytes(4<<20))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	m := rt.NewMutator()
	root := m.PushRoot(gengc.Nil)
	for i := 0; i < 2000; i++ {
		m.SetRoot(root, m.MustAlloc(1, 64))
	}
	m.Collect(false) // cooperates → records pauses
	m.Collect(true)

	snap := rt.Snapshot()
	if snap.Cycles != 2 || snap.Fulls != 1 {
		t.Fatalf("snapshot cycles=%d fulls=%d, want 2/1", snap.Cycles, snap.Fulls)
	}
	if snap.HeapObjects <= 0 || snap.HeapBytes <= 0 {
		t.Fatalf("snapshot heap empty: %+v", snap)
	}
	if len(snap.Mutators) != 1 {
		t.Fatalf("per-mutator entries = %d, want 1", len(snap.Mutators))
	}
	if snap.Mutators[0].Count == 0 {
		t.Fatal("attached mutator recorded no pauses across two collections")
	}
	if snap.Fleet.Count < snap.Mutators[0].Count {
		t.Fatalf("fleet count %d < mutator count %d",
			snap.Fleet.Count, snap.Mutators[0].Count)
	}

	// After detach the per-mutator list empties but the fleet keeps the
	// history (the retired histogram).
	before := snap.Fleet.Count
	m.Detach()
	snap = rt.Snapshot()
	if len(snap.Mutators) != 0 {
		t.Fatalf("per-mutator entries after detach = %d, want 0", len(snap.Mutators))
	}
	if snap.Fleet.Count != before {
		t.Fatalf("fleet count changed across detach: %d -> %d", before, snap.Fleet.Count)
	}
}

// TestTraceSinkEvents runs collections against a memory sink and checks
// the event stream's shape: the start boundary, per-cycle spans, and
// cycle numbers that match the metrics records.
func TestTraceSinkEvents(t *testing.T) {
	sink := &trace.MemorySink{}
	rt, err := gengc.NewManual(gengc.WithMode(gengc.Generational),
		gengc.WithHeapBytes(4<<20), gengc.WithTraceSink(sink))
	if err != nil {
		t.Fatal(err)
	}
	m := rt.NewMutator()
	root := m.PushRoot(gengc.Nil)
	for i := 0; i < 2000; i++ {
		m.SetRoot(root, m.MustAlloc(1, 64))
	}
	m.Collect(false)
	m.Collect(true)
	m.Detach()
	rt.Close() // final flush

	byEv := map[string][]gengc.TraceEvent{}
	for _, e := range sink.Events() {
		byEv[e.Ev] = append(byEv[e.Ev], e)
	}
	if n := len(byEv["start"]); n != 1 {
		t.Fatalf("start events = %d, want 1", n)
	}
	cycles := byEv["cycle"]
	if len(cycles) != 2 {
		t.Fatalf("cycle events = %d, want 2", len(cycles))
	}
	recs := rt.Cycles()
	for i, e := range cycles {
		if e.Cycle != int64(recs[i].Seq) {
			t.Errorf("cycle event %d numbered %d, metrics Seq %d", i, e.Cycle, recs[i].Seq)
		}
		if e.K != recs[i].Kind.String() {
			t.Errorf("cycle event %d kind %q, metrics %v", i, e.K, recs[i].Kind)
		}
		if e.D <= 0 {
			t.Errorf("cycle event %d has non-positive duration %d", i, e.D)
		}
	}
	if len(byEv["sync"]) != 6 {
		t.Errorf("sync events = %d, want 3 per cycle", len(byEv["sync"]))
	}
	if len(byEv["sweep"]) != 2 {
		t.Errorf("sweep events = %d, want 2", len(byEv["sweep"]))
	}
	if len(byEv["pause"]) == 0 {
		t.Error("no pause events emitted")
	}
	if len(byEv["initfull"]) != 1 {
		t.Errorf("initfull events = %d, want 1 (one full cycle)", len(byEv["initfull"]))
	}
}

// TestTraceJSONLThroughReport is the in-process version of the
// Makefile's trace-verify target: workload → JSONL sink → report.Parse
// → renderers, asserting the pipeline agrees with the run's metrics.
func TestTraceJSONLThroughReport(t *testing.T) {
	var buf bytes.Buffer
	sink := gengc.NewJSONLTraceSink(&buf)
	res, err := workload.Run(churn(2), gengc.Config{
		HeapBytes:  8 << 20,
		Mode:       gengc.Generational,
		YoungBytes: 512 << 10,
	}, 7, workload.TraceTo(sink))
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Err(); err != nil {
		t.Fatal(err)
	}
	tr, err := report.Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Runs != 1 {
		t.Fatalf("runs = %d, want 1", tr.Runs)
	}
	bds := tr.Breakdown()
	var traced int
	for _, b := range bds {
		traced += b.Cycles
	}
	if traced != res.Summary.NumCycles {
		t.Fatalf("trace holds %d cycles, metrics %d", traced, res.Summary.NumCycles)
	}
	pauses := tr.Pauses()
	if pauses.Count == 0 {
		t.Fatal("no pause events in trace")
	}
	if max := pauses.Max(); max != res.Pauses.Max {
		// Histogram Max is exact and the events carry the same
		// durations, so the two views must agree.
		t.Fatalf("trace max pause %v != histogram max %v", max, res.Pauses.Max)
	}
	var out bytes.Buffer
	report.RenderSummary(&out, tr)
	report.RenderPauseCDF(&out, tr, false)
	report.RenderBreakdown(&out, tr, false)
	if !strings.Contains(out.String(), "partial") {
		t.Fatalf("rendered report missing cycle table:\n%s", out.String())
	}
}

// TestPublishExpvar checks the expvar surface: publishing works once
// per name and reports a duplicate instead of panicking.
func TestPublishExpvar(t *testing.T) {
	rt, err := gengc.NewManual(gengc.WithHeapBytes(8 << 20))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	if err := rt.PublishExpvar("gengc-test-snapshot"); err != nil {
		t.Fatal(err)
	}
	if err := rt.PublishExpvar("gengc-test-snapshot"); err == nil {
		t.Fatal("second publish under the same name did not fail")
	}
}
