package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"

	"gengc"
)

// Spans are recorded here, in the benchmark's own files, around the
// public calls into each layer. The tree of one repetition is
//
//	rep ─ batch ─ heap.alloc | heap.read | gc.barrier.write |
//	      │        gc.handshake.safepoint
//	      ├ gc.barrier.write_batch           (the base build, in set-up)
//	      ├ gc.collect ─ gc.cycle            (collect_quiescent)
//	      ├ gc.cycle ─ sync1 | sync2 | sync3 | trace | sweep
//	      └ server.submit                    (server_overload)
//
// gc.cycle and its children are rebuilt from the records Runtime.OnCycle
// delivers (end = delivery time, start = end − Duration, the phases laid
// end to end in protocol order). Every span carries name, start, end
// and parent; the spans of one repetition share its id.

type spanKind int

const (
	spRep spanKind = iota
	spBatch
	spAlloc
	spRead
	spWrite
	spWriteBatch
	spSafepoint
	spCollect
	spSubmit
	spCycle
	spSync1
	spSync2
	spSync3
	spTrace
	spSweep
	nSpanKinds
)

var spanNames = [nSpanKinds]string{
	"rep", "batch", "heap.alloc", "heap.read", "gc.barrier.write",
	"gc.barrier.write_batch", "gc.handshake.safepoint", "gc.collect",
	"server.submit", "gc.cycle", "sync1", "sync2", "sync3", "trace", "sweep",
}

var spanParents = [nSpanKinds]spanKind{
	spRep, spRep, spBatch, spBatch, spBatch, spRep, spBatch, spRep,
	spRep, spRep, spCycle, spCycle, spCycle, spCycle, spCycle,
}

// span is one retained record.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Rep    int    `json:"rep"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanAgg is what a span kind folds into as its spans close. Self time
// is duration minus the part the span's children cover.
type spanAgg struct {
	count   int64
	totalNs int64
	selfNs  int64
	hist    loghist
}

func (a *spanAgg) add(d, self int64) {
	a.count++
	a.totalNs += d
	a.selfNs += self
	a.hist.add(d)
}

const (
	repSpanID       = 1
	submitKeepNs    = 1_000_000 // server.submit spans over 1 ms are kept in full
	batchP99Refresh = 1024      // batches between refreshes of the keep threshold
)

// tracer records the spans of one repetition. A repetition has > 10⁷
// call spans, so they fold into per-kind aggregates as they close; full
// records are kept only for batches over the running p99, for every
// gc.cycle and gc.collect, and for slow server.submit calls.
type tracer struct {
	rep  int
	aggs [nSpanKinds]spanAgg

	spans  []span
	nextID int64

	// The open batch: its children's time, and the duration above which
	// a closing batch is kept.
	batchChildNs int64
	batchKeepNs  int64

	mu sync.Mutex // server.submit spans close on many goroutines
}

func newTracer(rep int) *tracer {
	return &tracer{rep: rep, nextID: repSpanID + 1, batchKeepNs: math.MaxInt64}
}

func (t *tracer) keep(kind spanKind, parent, start, end int64) int64 {
	id := t.nextID
	t.nextID++
	t.spans = append(t.spans, span{ID: id, Parent: parent, Rep: t.rep, Name: spanNames[kind], Start: start, End: end})
	return id
}

// call closes one mutator-side call span inside the open batch.
func (t *tracer) call(kind spanKind, start, end int64) {
	d := end - start
	t.aggs[kind].add(d, d)
	t.batchChildNs += d
}

// endBatch closes the open batch.
func (t *tracer) endBatch(start, end int64) {
	d := end - start
	a := &t.aggs[spBatch]
	a.add(d, d-t.batchChildNs)
	t.batchChildNs = 0
	if d > t.batchKeepNs {
		t.keep(spBatch, repSpanID, start, end)
	}
	if a.count%batchP99Refresh == 0 {
		t.batchKeepNs = int64(a.hist.quantile(0.99))
	}
}

// submit closes one server.submit span; safe from any goroutine.
func (t *tracer) submit(start, end int64) {
	d := end - start
	t.mu.Lock()
	t.aggs[spSubmit].add(d, d)
	if d > submitKeepNs {
		t.keep(spSubmit, repSpanID, start, end)
	}
	t.mu.Unlock()
}

// cycle records one collection from its record; parent is the
// gc.collect span that ran it, or the repetition. It returns the time
// of the cycle its phase children do not cover (clear, toggle, init).
func (t *tracer) cycle(c gengc.CycleRecord, endNs, parent int64) int64 {
	start := endNs - int64(c.Duration)
	id := t.keep(spCycle, parent, start, endNs)
	phases := [...]struct {
		kind spanKind
		d    int64
	}{
		{spSync1, int64(c.Sync1Time)}, {spSync2, int64(c.Sync2Time)}, {spSync3, int64(c.Sync3Time)},
		{spTrace, int64(c.TraceTime)}, {spSweep, int64(c.SweepTime)},
	}
	var covered int64
	for _, p := range phases {
		covered += p.d
	}
	// The record gives the phases' durations, not their starts; they run
	// in this order and end when the cycle ends.
	at := endNs - covered
	for _, p := range phases {
		t.keep(p.kind, id, at, at+p.d)
		t.aggs[p.kind].add(p.d, p.d)
		at += p.d
	}
	self := int64(c.Duration) - covered
	t.aggs[spCycle].add(int64(c.Duration), self)
	return self
}

// collect closes one gc.collect span around the cycle it ran.
func (t *tracer) collect(start, end int64, c gengc.CycleRecord) {
	id := t.keep(spCollect, repSpanID, start, end)
	cycleSelf := t.cycle(c, end, id)
	// What Collect spends outside the phases: its own entry and exit
	// plus the cycle's clear, toggle and init.
	t.aggs[spCollect].add(end-start, (end-start)-int64(c.Duration)+cycleSelf)
}

type traceAggJSON struct {
	Name    string  `json:"name"`
	Parent  string  `json:"parent"`
	Count   int64   `json:"count"`
	TotalNs int64   `json:"total_ns"`
	SelfNs  int64   `json:"self_ns"`
	P50Ns   float64 `json:"p50_ns"`
	P99Ns   float64 `json:"p99_ns"`
}

type traceFileJSON struct {
	Workload    string         `json:"workload"`
	Seed        int64          `json:"seed"`
	Rep         int            `json:"rep"`
	RepStartNs  int64          `json:"rep_start_ns"`
	RepEndNs    int64          `json:"rep_end_ns"`
	TimedWallNs int64          `json:"timed_wall_ns"`
	Aggregates  []traceAggJSON `json:"aggregates"`
	Spans       []span         `json:"spans"`
}

// write stores the repetition's trace as dir/trace-<workload>.json.
func (t *tracer) write(dir, workload string, seed, repStart, repEnd, timedWall int64) error {
	out := traceFileJSON{
		Workload: workload, Seed: seed, Rep: t.rep,
		RepStartNs: repStart, RepEndNs: repEnd, TimedWallNs: timedWall,
		Spans: append([]span{{ID: repSpanID, Rep: t.rep, Name: spanNames[spRep], Start: repStart, End: repEnd}}, t.spans...),
	}
	for k := spBatch; k < nSpanKinds; k++ {
		a := &t.aggs[k]
		if a.count == 0 {
			continue
		}
		out.Aggregates = append(out.Aggregates, traceAggJSON{
			Name: spanNames[k], Parent: spanNames[spanParents[k]],
			Count: a.count, TotalNs: a.totalNs, SelfNs: a.selfNs,
			P50Ns: a.hist.quantile(0.5), P99Ns: a.hist.quantile(0.99),
		})
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	data, err := json.Marshal(out)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return nil
}
