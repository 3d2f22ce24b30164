package main

import (
	"fmt"
	"sync"

	"gengc"
)

// What the workloads share: the record of a repetition, the log of its
// collections, the base structure and the correctness checks.

// cycleAt is a collection record and the time OnCycle delivered it.
type cycleAt struct {
	rec   gengc.CycleRecord
	endNs int64
}

// cycleLog collects the records OnCycle delivers on the collector
// goroutine.
type cycleLog struct {
	mu     sync.Mutex
	cycles []cycleAt
}

func (l *cycleLog) record(c gengc.CycleRecord) {
	at := now()
	l.mu.Lock()
	l.cycles = append(l.cycles, cycleAt{c, at})
	l.mu.Unlock()
}

// since returns the records delivered at or after t.
func (l *cycleLog) since(t int64) []cycleAt {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i, c := range l.cycles {
		if c.endNs >= t {
			return append([]cycleAt(nil), l.cycles[i:]...)
		}
	}
	return nil
}

// rep is everything one repetition of one workload measured. The
// end-to-end and per-layer metrics are computed from it (metrics.go).
type rep struct {
	setupNs int64 // start of the repetition to its first timed op
	wallNs  int64 // the timed section
	cpuNs   int64 // process user+sys CPU over the timed section

	attempted int64 // ops offered to the program
	completed int64 // ops that did what the user asked: the throughput numerator
	refused   int64 // server_overload: shed, timed out or late — refusals the load is meant to cause
	failed    int64 // ops that went wrong: errors no workload is meant to produce

	latUs []float64 // latency of each unit of work

	// hostSlowdown is how much slower than nominal the host ran around
	// this repetition (hostprobe.go); the end-to-end times are divided
	// by it. Set by runSet.
	hostSlowdown float64

	heapPeak    int64
	heapSum     float64
	heapSamples int64

	allocs int64 // objects allocated in the timed section
	stores int64 // pointer slots stored through the barrier in the timed section

	cycles      []cycleAt // collections that ended in the timed section
	before, end gengc.Snapshot
	tr          *tracer
	repStartNs  int64
	repEndNs    int64

	// collect_quiescent: Σ objects, slots, cards scanned and objects
	// freed, and the Collect latencies (also in latUs) by kind.
	exact             [4]int64
	partialMs, fullMs []float64

	overload, steady *legStats // server_overload
	lateUs           []float64 // server_overload: how late each arrival was dispatched

	checkErr error // the correctness gate's verdict
}

// traceCycles records the timed section's collections as gc.cycle spans
// under the repetition (collect_quiescent records its own, under the
// gc.collect span that ran each).
func (r *rep) traceCycles() {
	if r.tr == nil {
		return
	}
	for _, c := range r.cycles {
		r.tr.cycle(c.rec, c.endNs, repSpanID)
	}
}

func (r *rep) sampleHeap(rt *gengc.Runtime) {
	b := rt.HeapBytes()
	r.heapPeak = max(r.heapPeak, b)
	r.heapSum += float64(b)
	r.heapSamples++
}

// buildBase allocates n chained objects (slot 0 links to the previous
// one) and publishes the head in global root 0, so the structure
// outlives the mutator that built it. It is the benchmark's only user
// of WriteBatch, so a tracer records those calls here, as children of
// the repetition.
func buildBase(rt *gengc.Runtime, m *gengc.Mutator, n, slots, size int, tr *tracer) ([]gengc.Ref, error) {
	base := make([]gengc.Ref, 0, n)
	root := m.PushRoot(gengc.Nil)
	link := make([]gengc.Ref, 1)
	for i := 0; i < n; i++ {
		m.Safepoint()
		obj, err := m.Alloc(slots, size)
		if err != nil {
			return nil, fmt.Errorf("building base object %d: %w", i, err)
		}
		if i > 0 {
			link[0] = base[i-1]
		}
		if tr == nil {
			m.WriteBatch(obj, link)
		} else {
			t := now()
			m.WriteBatch(obj, link)
			d := now() - t
			tr.aggs[spWriteBatch].add(d, d)
		}
		m.SetRoot(root, obj)
		base = append(base, obj)
	}
	rt.SetGlobal(m, 0, base[n-1])
	m.PopRoots(1)
	return base, nil
}

// checkBase walks the chain from global root 0 and requires exactly n
// objects on it.
func checkBase(rt *gengc.Runtime, m *gengc.Mutator, n int) error {
	got := 0
	for x := rt.Global(0); x != gengc.Nil && got <= n; x = m.Read(x, 0) {
		got++
		if got&1023 == 0 {
			m.Safepoint()
		}
	}
	if got != n {
		return fmt.Errorf("base chain has %d objects, want %d", got, n)
	}
	return nil
}

// verifyQuiescent is the part of the correctness gate every workload
// shares; no mutator may be running.
func verifyQuiescent(rt *gengc.Runtime) error {
	if err := rt.Verify(); err != nil {
		return fmt.Errorf("Verify: %w", err)
	}
	if err := rt.VerifyCardInvariant(); err != nil {
		return fmt.Errorf("VerifyCardInvariant: %w", err)
	}
	return nil
}
