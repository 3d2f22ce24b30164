package gc

import (
	"fmt"
	"testing"

	"gengc/internal/fault"
	"gengc/internal/heap"
	"gengc/internal/trace"
)

// frontierGraph is a partial collection's gray frontier built from dirty
// cards: old objects, each with three slots — its own young son, one of
// a few young objects the whole frontier shares, and nil. The sons
// rotate through a pointer-free object, an object holding a pointer-free
// grandson and a nil slot, and an object pointing at a shared one.
type frontierGraph struct {
	olds  []heap.Addr // promoted, then stored into: the dirty-card objects
	young []heap.Addr // every young object, reachable from olds only
}

func buildFrontier(t *testing.T, c *Collector, m *Mutator, nOld int) *frontierGraph {
	t.Helper()
	g := &frontierGraph{olds: make([]heap.Addr, nOld)}
	for i := range g.olds {
		g.olds[i] = mustAlloc(t, m, 3, 0)
		m.PushRoot(g.olds[i])
	}
	collectWhileCooperating(c, false, m) // promotes them, cards clean
	for _, x := range g.olds {
		if c.H.Color(x) != c.OldColor() {
			t.Fatalf("setup: %#x left %v by the promoting partial", x, c.H.Color(x))
		}
	}
	young := func(slots, size int) heap.Addr {
		y := mustAlloc(t, m, slots, size)
		g.young = append(g.young, y)
		return y
	}
	shared := make([]heap.Addr, 4)
	for i := range shared {
		shared[i] = young(1, 0)
	}
	m.Update(shared[0], 0, shared[1]) // a shared chain; the rest hold nil
	for i, x := range g.olds {
		var son heap.Addr
		switch i % 3 {
		case 0:
			son = young(0, 16+16*(i%4))
		case 1:
			son = young(2, 0)
			m.Update(son, 0, young(0, 24))
		case 2:
			son = young(1, 0)
			m.Update(son, 0, shared[(i+1)%len(shared)])
		}
		m.Update(x, 0, son)
		m.Update(x, 1, shared[i%len(shared)])
	}
	return g
}

// traceCounts computes from the heap graph what a partial trace must
// scan: the dirty-card objects and the globals root, then every young
// object reachable from them, each once.
func traceCounts(c *Collector, start []heap.Addr) (objects, slots, bytes int) {
	old := c.OldColor()
	seen := map[heap.Addr]bool{}
	queue := append([]heap.Addr(nil), start...)
	for _, x := range queue {
		seen[x] = true
	}
	for len(queue) > 0 {
		x := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		n := c.H.Slots(x)
		objects++
		slots += n
		bytes += c.H.SizeOf(x)
		for i := 0; i < n; i++ {
			if y := c.H.LoadSlot(x, i); y != 0 && !seen[y] && c.H.Color(y) != old {
				seen[y] = true
				queue = append(queue, y)
			}
		}
	}
	return objects, slots, bytes
}

// TestDrainFrontierBoundary: a partial collection whose first drain
// starts with 15, 16, 32, 33 or about 5 000 gray entries — either side
// of the batched drain's threshold (frontierMin) and of its batch size
// (batchMax) — scans exactly the objects, slots and bytes the graph
// holds, loses nothing, passes the quiescent audits, and steps the
// TraceDrain seam once per scanned object (the contract
// TestParallelEngineSpansAndSeam pins over a random graph) on both
// sides of the threshold.
func TestDrainFrontierBoundary(t *testing.T) {
	if frontierMin != 16 || batchMax != 32 {
		t.Fatalf("frontierMin %d, batchMax %d: re-pick the frontiers below", frontierMin, batchMax)
	}
	for _, frontier := range []int{15, 16, 32, 33, 5000} {
		t.Run(fmt.Sprint(frontier), func(t *testing.T) {
			sink := &trace.MemorySink{}
			in := fault.New(1)
			in.Install(fault.Rule{Point: fault.TraceDrain, Kind: fault.Delay, P: 1})
			c, err := New(Config{Mode: Generational, HeapBytes: 16 << 20, YoungBytes: 4 << 20,
				Fault: in, TraceSink: sink})
			if err != nil {
				t.Fatal(err)
			}
			m := c.NewMutator()
			// The first drain holds the card scan's grays and, on top,
			// the globals root.
			g := buildFrontier(t, c, m, frontier-1)
			objects, slots, bytes := traceCounts(c, append(append([]heap.Addr(nil), g.olds...), c.globals))

			collectWhileCooperating(c, false, m)
			cs := c.Metrics().Cycles()
			rec := cs[len(cs)-1]
			if rec.InterGenScanned != frontier-1 {
				t.Fatalf("card scan grayed %d old objects, want %d", rec.InterGenScanned, frontier-1)
			}
			if rec.ObjectsScanned != objects || rec.SlotsScanned != slots || rec.TraceBytes != bytes {
				t.Errorf("traced %d objects, %d slots, %d bytes; the graph holds %d, %d, %d",
					rec.ObjectsScanned, rec.SlotsScanned, rec.TraceBytes, objects, slots, bytes)
			}
			for _, y := range g.young {
				if !c.H.ValidObject(y) || c.H.Color(y) != c.OldColor() {
					t.Fatalf("young %#x reachable from the frontier left %v", y, c.H.Color(y))
				}
			}
			if err := c.CheckQuiescentCycle(); err != nil {
				t.Error(err)
			}
			if err := c.Verify(); err != nil {
				t.Error(err)
			}
			m.Detach()
			c.Stop()
			checkDrainSpansAndSeam(t, c, sink, in)
		})
	}
}

// checkDrainSpansAndSeam asserts over every cycle c ran that the
// "drain" spans' N sum to the cycle's scan counter and that the armed
// TraceDrain seam was stepped once per scanned object.
func checkDrainSpansAndSeam(t *testing.T, c *Collector, sink *trace.MemorySink, in *fault.Injector) {
	t.Helper()
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
		t.Errorf("TraceDrain seam stepped %d times, %d objects were scanned", hits, scanned)
	}
}
