package gc

import (
	"math/rand"
	"runtime"
	"testing"
	"time"

	"gengc/internal/fault"
	"gengc/internal/heap"
	"gengc/internal/metrics"
	"gengc/internal/trace"
)

// buildEngineGraph allocates n objects whose every node is reachable from
// the returned root: one deep chain through slot 0 of every node, plus
// random cross links out of the wider nodes (fans of 8 and 32 slots), so
// a trace of it has both long dependent runs and bursts of sons.
func buildEngineGraph(t *testing.T, m *Mutator, rng *rand.Rand, n int) (root heap.Addr, nodes []heap.Addr) {
	t.Helper()
	widths := []int{1, 1, 2, 8, 32}
	nodes = make([]heap.Addr, n)
	for i := range nodes {
		nodes[i] = mustAlloc(t, m, widths[rng.Intn(len(widths))], 0)
	}
	for i, x := range nodes {
		if i+1 < n {
			m.Update(x, 0, nodes[i+1])
		}
		for s := 1; s < m.c.H.Slots(x); s++ {
			m.Update(x, s, nodes[rng.Intn(n)])
		}
	}
	return nodes[0], nodes
}

// TestParallelDrainTerminationRace drives drain() directly over a seeded
// graph far larger than the serial budget, at several pool sizes, with
// steal scans randomly dropped: the drain must return, every object must
// be blackened exactly once (the per-worker counts sum to the object
// count and every node is black), and the post-cycle audit must hold.
func TestParallelDrainTerminationRace(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8)) // let every pool size engage fully
	const n = 20000
	for _, workers := range []int{1, 2, 4, 8} {
		for seed := int64(1); seed <= 2; seed++ {
			in := fault.New(seed)
			in.Install(fault.Rule{Point: fault.TraceSteal, Kind: fault.Drop, P: 0.3})
			c, err := New(Config{Mode: Generational, HeapBytes: 16 << 20, YoungBytes: 1 << 20,
				Workers: workers, Fault: in})
			if err != nil {
				t.Fatal(err)
			}
			m := c.NewMutator()
			root, nodes := buildEngineGraph(t, m, rand.New(rand.NewSource(seed)), n)

			// The objects carry the allocation color; the toggle makes it
			// the clear color, as at the start of a cycle's trace.
			c.switchColors()
			c.cyc = metrics.Cycle{WorkerScanned: make([]int, workers)}
			c.shade(c.workers[0], root, c.ClearColor())
			c.drain()

			if c.cyc.ObjectsScanned != n {
				t.Errorf("workers=%d seed=%d: blackened %d objects, graph has %d",
					workers, seed, c.cyc.ObjectsScanned, n)
			}
			sum, busy := 0, 0
			for _, k := range c.cyc.WorkerScanned {
				sum += k
				if k > 0 {
					busy++
				}
			}
			if sum != n {
				t.Errorf("workers=%d seed=%d: per-worker scans sum to %d, want %d", workers, seed, sum, n)
			}
			if busy != workers {
				t.Errorf("workers=%d seed=%d: %d workers took part in the drain", workers, seed, busy)
			}
			for i, x := range nodes {
				if c.H.Color(x) != heap.Black {
					t.Fatalf("workers=%d seed=%d: node %d left %v", workers, seed, i, c.H.Color(x))
				}
			}
			if err := c.CheckQuiescentCycle(); err != nil {
				t.Errorf("workers=%d seed=%d: %v", workers, seed, err)
			}
			if workers > 1 && in.Fired(fault.TraceSteal) == 0 {
				t.Errorf("workers=%d seed=%d: no steal scan was dropped", workers, seed)
			}
			m.Detach()
			c.Stop()
		}
	}
}

// TestParallelEngineSpansAndSeam checks the observability contract of the
// engine at Workers=4: over whole cycles, the "drain" spans' N sum — per
// cycle and per worker — to the cycle record's scan counters, the pool
// really engaged (spans from more than one worker), and the armed
// TraceDrain seam is stepped exactly once per blackened object. A delay
// on every sweep chunk makes the block walks long enough to spill, so
// the "sweepshard" spans are checked against the free counters too.
func TestParallelEngineSpansAndSeam(t *testing.T) {
	const workers = 4
	sink := &trace.MemorySink{}
	in := fault.New(1)
	in.Install(fault.Rule{Point: fault.TraceDrain, Kind: fault.Delay, P: 1})
	in.Install(fault.Rule{Point: fault.SweepShard, Kind: fault.Delay, P: 1, Delay: 200 * time.Microsecond})
	c, err := New(Config{Mode: Generational, HeapBytes: 16 << 20, YoungBytes: 1 << 20,
		Workers: workers, Fault: in, TraceSink: sink})
	if err != nil {
		t.Fatal(err)
	}
	m := c.NewMutator()
	root, _ := buildEngineGraph(t, m, rand.New(rand.NewSource(7)), 20000)
	m.PushRoot(root)
	for i := 0; i < 5000; i++ {
		mustAlloc(t, m, 1, 0) // garbage for the sweep
	}
	collectWhileCooperating(c, false, m)
	collectWhileCooperating(c, true, m)
	m.Detach()
	c.Stop()

	type key struct{ cycle, worker int }
	spanN, shardN := map[key]int{}, map[key]int{}
	for _, e := range sink.Events() {
		switch e.Ev {
		case "drain":
			spanN[key{int(e.Cycle), e.Worker}] += int(e.N)
		case "sweepshard":
			shardN[key{int(e.Cycle), e.Worker}] += int(e.N)
		}
	}
	if len(shardN) < 2 {
		t.Errorf("%d sweepshard spans: the slowed sweeps never engaged the pool", len(shardN))
	}
	scanned, engaged := 0, false
	for _, rec := range c.Metrics().Cycles() {
		for w, k := range rec.WorkerFreed {
			if got, ok := shardN[key{rec.Seq, w}]; ok && got != k {
				t.Errorf("cycle %d worker %d: sweepshard span carries %d objects, record says %d", rec.Seq, w, got, k)
			}
		}
		scanned += rec.ObjectsScanned
		if len(rec.WorkerScanned) != workers {
			t.Fatalf("cycle %d: %d per-worker counters, want %d", rec.Seq, len(rec.WorkerScanned), workers)
		}
		for w, k := range rec.WorkerScanned {
			if got := spanN[key{rec.Seq, w}]; got != k {
				t.Errorf("cycle %d worker %d: drain spans carry %d objects, record says %d", rec.Seq, w, got, k)
			}
			if w > 0 && k > 0 {
				engaged = true
			}
		}
	}
	if !engaged {
		t.Error("no worker beyond the collector goroutine ever scanned an object")
	}
	var hits int64
	for _, ps := range in.Stats() {
		if ps.Point == fault.TraceDrain {
			hits = ps.Hits
		}
	}
	if hits != int64(scanned) {
		t.Errorf("TraceDrain seam stepped %d times, %d objects were blackened", hits, scanned)
	}
}
