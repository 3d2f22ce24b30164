package gengc_test

// Integration tests for the observability layer: pause histograms and
// Snapshot, the structured trace stream, and the gcreport pipeline —
// driven through the public API plus the workload runner, the way
// cmd/gctrace and cmd/gcbench use them.

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gengc"
	"gengc/internal/metrics"
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
// the event stream's shape: the start boundary, and one "cycle" event
// per collection numbered like, and carrying, its metrics record.
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
		if e.Rec == nil || !reflect.DeepEqual(*e.Rec, recs[i]) {
			t.Errorf("cycle event %d carries %+v, metrics %+v", i, e.Rec, recs[i])
			continue
		}
		if e.Rec.Sync1Time <= 0 || e.Rec.Sync2Time <= 0 || e.Rec.Sync3Time <= 0 || e.Rec.SweepTime <= 0 {
			t.Errorf("cycle event %d record lacks a handshake or sweep time: %+v", i, e.Rec)
		}
	}
	if cycles[0].Rec.InitFullTime != 0 || cycles[1].Rec.InitFullTime <= 0 {
		t.Errorf("InitFullTime partial %v, full %v; want 0 and > 0",
			cycles[0].Rec.InitFullTime, cycles[1].Rec.InitFullTime)
	}
	if len(byEv["pause"]) == 0 {
		t.Error("no pause events emitted")
	}
}

// TestTraceTotalsMatchRuntime: the trace's cycle records and pause
// events are the runtime's own, and gcreport folds them with the same
// code, so over a traced run (two Mix mutators, then a full collection)
// its per-kind sums equal those behind Stats, its demographics
// Snapshot().Demographics and its fleet pause statistics
// Snapshot().Fleet, exactly, in both generational modes.
func TestTraceTotalsMatchRuntime(t *testing.T) {
	for _, mode := range []gengc.Mode{gengc.Generational, gengc.GenerationalAging} {
		t.Run(mode.String(), func(t *testing.T) {
			var buf bytes.Buffer
			sink := gengc.NewJSONLTraceSink(&buf)
			// Tenure after one survival, so the aging run promotes and
			// closes its survival histogram with the tenure bucket.
			rt, err := gengc.New(gengc.WithMode(mode), gengc.WithOldAge(1),
				gengc.WithHeapBytes(8<<20), gengc.WithYoungBytes(512<<10),
				gengc.WithTraceSink(sink))
			if err != nil {
				t.Fatal(err)
			}
			if err := workload.RunMix(rt, 2, 20_000, 5); err != nil {
				t.Fatal(err)
			}
			rt.Collect(true)
			rt.Close()
			if err := sink.Err(); err != nil {
				t.Fatal(err)
			}
			tr, err := report.Parse(&buf)
			if err != nil {
				t.Fatal(err)
			}
			st := rt.Stats()
			if st.NumPartial == 0 || st.NumFull == 0 {
				t.Fatalf("run too quiet: %d partials, %d fulls", st.NumPartial, st.NumFull)
			}
			if tr.Dropped != 0 {
				t.Fatalf("trace dropped %d events", tr.Dropped)
			}
			tot := tr.Totals()
			if !reflect.DeepEqual(tot, st.Totals) {
				t.Errorf("trace totals\n%+v\nStats\n%+v", tot, st.Totals)
			}
			snap := rt.Snapshot()
			demo := tot.Demographics()
			if !reflect.DeepEqual(demo, snap.Demographics) {
				t.Errorf("trace demographics\n%+v\nSnapshot\n%+v", demo, snap.Demographics)
			}
			if got := tr.Pauses().Fleet.Stats(-1); got != snap.Fleet {
				t.Errorf("trace pauses %+v, Snapshot %+v", got, snap.Fleet)
			}
			if demo.PromotedObjects == 0 || len(demo.DeathsByClass) == 0 {
				t.Errorf("demographics empty: %+v", demo)
			}
			if mode == gengc.GenerationalAging && len(demo.SurvivalByAge) == 0 {
				t.Error("aging run has no survival histogram")
			}
			if p := tot[metrics.Partial]; p.Sum.CardScanTime <= 0 || snap.Fleet.Count == 0 {
				t.Errorf("%d partials scanned cards for %v, %d pauses", p.Cycles, p.Sum.CardScanTime, snap.Fleet.Count)
			}
		})
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
	tot := tr.Totals()
	if traced := tot[metrics.Partial].Cycles + tot[metrics.Full].Cycles; traced != res.Summary.NumCycles {
		t.Fatalf("trace holds %d cycles, metrics %d", traced, res.Summary.NumCycles)
	}
	pauses := tr.Pauses().Fleet
	if pauses.Count() == 0 {
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

// expvarSeq numbers the expvar names the tests publish: expvar names
// are process-global and never unpublished, so each test invocation
// (-count > 1 included) needs a name of its own.
var expvarSeq atomic.Int64

// expvarName returns a process-unique expvar name starting with prefix.
func expvarName(prefix string) string {
	return fmt.Sprintf("%s_%d", prefix, expvarSeq.Add(1))
}

// TestPublishExpvar checks the expvar surface: publishing works once
// per name and reports a duplicate instead of panicking.
func TestPublishExpvar(t *testing.T) {
	rt, err := gengc.NewManual(gengc.WithHeapBytes(8 << 20))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	name := expvarName("gengc-test-snapshot")
	if err := rt.PublishExpvar(name); err != nil {
		t.Fatal(err)
	}
	if err := rt.PublishExpvar(name); err == nil {
		t.Fatal("second publish under the same name did not fail")
	}
}
