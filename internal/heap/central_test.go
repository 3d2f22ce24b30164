package heap

import (
	"sync"
	"testing"
)

// TestShardedAllocReconciles churns allocations from four mutators over
// the per-class shards and checks that the shard counters reconcile
// exactly against the block lists and a color census once the mutators
// quiesce.
func TestShardedAllocReconciles(t *testing.T) {
	h, err := New(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for id := 0; id < 4; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			if err := h.AllocChurn(id, 20000); err != nil {
				t.Error(err)
			}
		}(id)
	}
	wg.Wait()
	if err := h.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
	if err := h.ReconcileCounters(); err != nil {
		t.Fatal(err)
	}
	if n := h.AllocatedObjects(); n != 0 {
		t.Fatalf("%d objects leaked after churn", n)
	}
}

// TestAllocStatsCounters checks that the contention/throughput counters
// move and aggregate: refills and flushes happen, per-shard rows sum to
// the totals, and freeCells+cached matches the census's blue-cell count
// at quiescence.
func TestAllocStatsCounters(t *testing.T) {
	h, err := New(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	var c Cache
	addrs := make([]Addr, 0, 500)
	for i := 0; i < 500; i++ {
		a, err := h.Alloc(&c, 2, 48, White)
		if err != nil {
			t.Fatal(err)
		}
		addrs = append(addrs, a)
	}
	h.FreeBatch(addrs[:250])
	h.Flush(&c)
	st := h.Census()
	a := st.Alloc
	if a.Refills == 0 {
		t.Error("no refills recorded")
	}
	if a.Flushes == 0 {
		t.Error("no flushes recorded")
	}
	if len(a.PerShard) != NumClasses {
		t.Errorf("%d shard rows, want one per size class (%d)", len(a.PerShard), NumClasses)
	}
	var locks, refills, free, cached int64
	for _, ss := range a.PerShard {
		locks += ss.Locks
		refills += ss.Refills
		free += ss.FreeCells
		cached += ss.CachedCells
	}
	if locks != a.ShardLocks || refills != a.Refills ||
		free != a.FreeCells || cached != a.CachedCells {
		t.Errorf("per-shard rows do not sum to totals: %+v", a)
	}
	if cached != 0 {
		t.Errorf("cached = %d after flush, want 0", cached)
	}
	if int(free) != st.FreeCells {
		t.Errorf("shard freeCells %d, census blue cells %d", free, st.FreeCells)
	}
}
