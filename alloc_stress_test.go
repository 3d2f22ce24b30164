package gengc_test

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gengc"
	"gengc/internal/workload"
)

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
	rt, err := gengc.NewManual(
		gengc.WithMode(gengc.GenerationalAging),
		gengc.WithHeapBytes(16<<20),
		gengc.WithYoungBytes(256<<10),
		gengc.WithOldAge(2),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	audit := workload.Audit(rt)

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

	err = workload.RunStorm(rt, 4, ops, 0)
	close(stop)
	driver.Wait()

	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Verify(); err != nil {
		t.Fatal(err)
	}
	if n, err := audit(); n > 0 {
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

// TestAccountingStressUnderCycles checks the batched allocation
// accounting from outside while everything moves: four mutators churn
// under back-to-back partial and full collections and a sampler reads
// Snapshot throughout. Each mutator first roots a base it keeps until
// the sampler has stopped and passes a publication point (Collect), so
// from then on the totals may trail the churn by a block per mutator
// but can never read below the base: the sweep only uncharges objects
// whose charge was published at their owner's handshake response. Run
// under -race by `make race`.
func TestAccountingStressUnderCycles(t *testing.T) {
	const (
		mutators  = 4
		baseObjs  = 256
		baseSize  = 64
		baseBytes = mutators * baseObjs * baseSize
		minCycles = 6 // two fulls, four partials
	)
	rt, err := gengc.NewManual(gengc.WithMode(gengc.Generational), gengc.WithHeapBytes(16<<20), gengc.WithYoungBytes(256<<10))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	// cooperateUntil keeps m answering handshakes while its goroutine
	// has nothing else to do: every collection waits on every attached
	// mutator.
	cooperateUntil := func(m *gengc.Mutator, ch <-chan struct{}) {
		for {
			select {
			case <-ch:
				return
			default:
				m.Safepoint()
				runtime.Gosched()
			}
		}
	}
	var ready, churned, detached sync.WaitGroup
	// stop ends the cycle driver and the sampler; release lets the
	// mutators drop their bases and detach, only once both have exited —
	// a sample taken after a detach would find the bases collected.
	start, stop, release := make(chan struct{}), make(chan struct{}), make(chan struct{})
	var cycles atomic.Int64
	deadline := time.Now().Add(30 * time.Second)
	for w := 0; w < mutators; w++ {
		ready.Add(1)
		churned.Add(1)
		detached.Add(1)
		go func(id int) {
			defer detached.Done()
			m := rt.NewMutator()
			defer m.Detach()
			for i := 0; i < baseObjs; i++ {
				m.PushRoot(m.MustAlloc(0, baseSize))
			}
			m.Collect(false)
			ready.Done()
			cooperateUntil(m, start)
			slot := m.PushRoot(gengc.Nil)
			for op := 0; cycles.Load() < minCycles; op++ {
				n, err := m.Alloc(1, 24+8*((op+id)%32))
				if err != nil {
					t.Errorf("mutator %d: alloc: %v", id, err)
					break
				}
				if op%8 == 0 {
					m.SetRoot(slot, n)
				}
				m.Safepoint()
				if op%64 == 0 {
					// Let the collector and the sampler run: six busy
					// goroutines share the race detector's few threads.
					if !time.Now().Before(deadline) {
						break
					}
					runtime.Gosched()
				}
			}
			churned.Done()
			cooperateUntil(m, release)
		}(w)
	}
	ready.Wait()

	var aux sync.WaitGroup
	aux.Add(2)
	go func() { // cycle driver
		defer aux.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			rt.Collect(i%3 == 0)
			cycles.Add(1)
		}
	}()
	go func() { // sampler
		defer aux.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := rt.Snapshot()
			if s.HeapBytes < baseBytes || s.HeapObjects < mutators*baseObjs {
				t.Errorf("Snapshot read %d bytes / %d objects, below the %d / %d held live by roots",
					s.HeapBytes, s.HeapObjects, baseBytes, mutators*baseObjs)
				return
			}
			time.Sleep(100 * time.Microsecond)
		}
	}()
	close(start)
	churned.Wait()
	close(stop)
	aux.Wait()
	close(release)
	detached.Wait()

	if n := cycles.Load(); n < minCycles {
		t.Fatalf("only %d of %d collections ran under the churn before the deadline", n, minCycles)
	}
	if err := rt.Verify(); err != nil {
		t.Fatal(err)
	}
}
