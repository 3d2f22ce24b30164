package gc

import (
	"math/rand"
	"testing"

	"gengc/internal/fault"
	"gengc/internal/heap"
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
// 20 000-node graph: the drain must return with every node black, each
// blackened exactly once (ObjectsScanned equals the node count), and the
// post-cycle audit must hold.
func TestParallelDrainTerminationRace(t *testing.T) {
	const n = 20000
	for seed := int64(1); seed <= 2; seed++ {
		c, err := New(Config{Mode: Generational, HeapBytes: 16 << 20, YoungBytes: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		m := c.NewMutator()
		root, nodes := buildEngineGraph(t, m, rand.New(rand.NewSource(seed)), n)

		// The objects carry the allocation color; the toggle makes it
		// the clear color, as at the start of a cycle's trace.
		c.switchColors()
		c.shade(root, c.ClearColor(), heap.NoColor, c.OldColor())
		c.drain()

		if c.cyc.ObjectsScanned != n {
			t.Errorf("seed=%d: blackened %d objects, graph has %d", seed, c.cyc.ObjectsScanned, n)
		}
		for i, x := range nodes {
			if c.H.Color(x) != c.OldColor() {
				t.Fatalf("seed=%d: node %d left %v", seed, i, c.H.Color(x))
			}
		}
		if err := c.CheckQuiescentCycle(); err != nil {
			t.Errorf("seed=%d: %v", seed, err)
		}
		m.Detach()
		c.Stop()
	}
}

// TestParallelEngineSpansAndSeam checks the observability contract of the
// trace over whole cycles: per cycle, the "drain" spans' N sum to the
// cycle record's scan counter, and the armed TraceDrain seam is stepped
// exactly once per blackened object.
func TestParallelEngineSpansAndSeam(t *testing.T) {
	sink := &trace.MemorySink{}
	in := fault.New(1)
	in.Install(fault.Rule{Point: fault.TraceDrain, Kind: fault.Delay, P: 1})
	c, err := New(Config{Mode: Generational, HeapBytes: 16 << 20, YoungBytes: 1 << 20,
		Fault: in, TraceSink: sink})
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

	spanN := map[int]int{}
	for _, e := range sink.Events() {
		if e.Ev == "drain" {
			spanN[int(e.Cycle)] += int(e.N)
		}
	}
	scanned := 0
	for _, rec := range c.Metrics().Cycles() {
		scanned += rec.ObjectsScanned
		if got := spanN[rec.Seq]; got != rec.ObjectsScanned {
			t.Errorf("cycle %d: drain spans carry %d objects, record says %d", rec.Seq, got, rec.ObjectsScanned)
		}
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
