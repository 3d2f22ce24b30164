package gengc

import (
	"sync"
	"testing"
)

// allocChurnMutator is an allocation-heavy mutator for the shard stress
// test: it cycles through mixed size classes (each mutator offset so
// concurrent mutators mostly hit different classes, the pattern the
// sharded central lists are built for), keeps a rolling window of live
// objects rooted, and drops the rest as garbage for the concurrent
// cycles to reclaim.
func allocChurnMutator(t *testing.T, rt *Runtime, id, ops int) {
	m := rt.NewMutator()
	defer m.Detach()
	sizes := []int{16, 40, 96, 224, 480, 992}
	const window = 128
	roots := make([]int, window)
	for i := range roots {
		roots[i] = m.PushRoot(Nil)
	}
	for op := 0; op < ops; op++ {
		n, err := m.Alloc(2, sizes[(op+id)%len(sizes)])
		if err != nil {
			t.Errorf("mutator %d: alloc: %v", id, err)
			return
		}
		m.SetRoot(roots[op%window], n)
		if op%64 == 0 {
			// Some structure, so the trace has pointers to chase.
			if x := m.Root(roots[(op/2)%window]); x != Nil {
				m.Write(x, 0, n)
			}
			m.Safepoint()
		}
	}
}

// TestAllocShardStressUnderCycles churns allocations from several
// mutators while partial and full collections run continuously.
// Afterwards it requires Verify (allocator bookkeeping + exact shard
// counter reconciliation + reachability) to pass and the Stats totals
// to agree with the heap's allocation counters. Run under -race by
// `make race`.
func TestAllocShardStressUnderCycles(t *testing.T) {
	ops := 30000
	if testing.Short() {
		ops = 6000
	}
	rt, err := NewManual(
		WithMode(GenerationalAging),
		WithHeapBytes(16<<20),
		WithYoungBytes(256<<10),
		WithOldAge(2),
		WithSelfCheck(true),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	// Cycle driver: alternate minor and full collections for the whole
	// run, so refills, flushes and sweep frees hit the shards
	// concurrently from both sides.
	stop := make(chan struct{})
	var driver sync.WaitGroup
	driver.Add(1)
	go func() {
		defer driver.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			rt.Collect(i%3 == 0)
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			allocChurnMutator(t, rt, id, ops)
		}(w)
	}
	wg.Wait()
	close(stop)
	driver.Wait()

	if err := rt.Verify(); err != nil {
		t.Fatal(err)
	}
	if err, n := rt.Collector().SelfCheckErr(); err != nil {
		t.Fatalf("%d self-check violations, first: %v", n, err)
	}
	// Stats totals must agree with the allocator's shard counters once
	// everything is quiescent.
	h := rt.Collector().H
	st := h.Census()
	if int64(st.ObjectBytes) != h.AllocatedBytes() {
		t.Errorf("census %d object bytes, counters say %d",
			st.ObjectBytes, h.AllocatedBytes())
	}
	if int64(st.Objects) != h.AllocatedObjects() {
		t.Errorf("census %d objects, counters say %d",
			st.Objects, h.AllocatedObjects())
	}
	if st.Alloc.CachedCells != 0 {
		t.Errorf("%d cells still marked cached after all mutators detached",
			st.Alloc.CachedCells)
	}
}
