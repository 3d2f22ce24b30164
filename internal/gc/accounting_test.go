package gc

import (
	"context"
	"errors"
	"testing"
	"time"

	"gengc/internal/heap"
)

// TestAllocAccountingPublishesPerBlock pins the batching contract of
// Mutator.publishAllocs: nothing reaches the collector's totals or the
// pacer until a block's worth of cells is pending, the allocation that
// crosses the block publishes everything, and every point where the
// mutator synchronizes with the collector leaves nothing pending.
func TestAllocAccountingPublishesPerBlock(t *testing.T) {
	c := newTestCollector(t, Generational)
	m := c.NewMutator()
	objs0, bytes0 := c.HeapObjects(), c.HeapBytes()
	const cell = 64
	perBlock := heap.BlockSize / cell

	for i := 1; i < perBlock; i++ {
		mustAlloc(t, m, 0, cell)
		if c.HeapObjects() != objs0 || c.HeapBytes() != bytes0 || c.pacer.YoungAlloc() != 0 {
			t.Fatalf("after %d allocations (%d B < one block): published objects %d bytes %d young %d",
				i, i*cell, c.HeapObjects()-objs0, c.HeapBytes()-bytes0, c.pacer.YoungAlloc())
		}
		if m.pend.objects != int64(i) || m.pend.bytes != int64(i*cell) || m.pend.req != int64(i*cell) {
			t.Fatalf("after %d allocations: pending %+v", i, m.pend)
		}
	}
	mustAlloc(t, m, 0, cell) // crosses the block
	if m.pend.objects != 0 || m.pend.bytes != 0 || m.pend.req != 0 {
		t.Fatalf("block-crossing allocation left %+v pending", m.pend)
	}
	if got := c.HeapObjects() - objs0; got != int64(perBlock) {
		t.Fatalf("published %d objects, want %d", got, perBlock)
	}
	if got := c.HeapBytes() - bytes0; got != heap.BlockSize {
		t.Fatalf("published %d bytes, want %d", got, heap.BlockSize)
	}
	if got := c.pacer.YoungAlloc(); got != heap.BlockSize {
		t.Fatalf("pacer saw %d young bytes, want %d", got, heap.BlockSize)
	}

	// A safe point with nothing to respond to is not a publication point.
	mustAlloc(t, m, 0, cell)
	m.Cooperate()
	if m.pend.objects != 1 {
		t.Fatalf("idle Cooperate published: pending %+v", m.pend)
	}

	points := []struct {
		name string
		sync func()
	}{
		{"Cooperate/handshake", func() {
			c.postHandshake(StatusSync1)
			m.Cooperate()
			c.postHandshake(StatusAsync)
			m.Cooperate()
		}},
		{"Cooperate/ack", func() { c.ackEpoch.Add(1); m.Cooperate() }},
		{"Collect", func() { m.Collect(false) }},
		{"Verify", func() {
			if err := c.Verify(); err != nil {
				t.Fatal(err)
			}
		}},
		{"Detach", m.Detach},
	}
	for _, p := range points {
		m.PushRoot(mustAlloc(t, m, 0, cell))
		m.PushRoot(mustAlloc(t, m, 1, 2*cell))
		if m.pend.objects == 0 {
			t.Fatalf("%s: nothing pending before the publication point", p.name)
		}
		p.sync()
		if m.pend.objects != 0 || m.pend.bytes != 0 || m.pend.req != 0 {
			t.Errorf("%s left %+v pending", p.name, m.pend)
		}
		// The heap's own counters publish at different points; fold the
		// cache in so both sides are exact.
		c.H.PublishAllocs(&m.cache)
		if got, want := c.HeapObjects(), c.H.AllocatedObjects(); got != want {
			t.Errorf("after %s: HeapObjects %d, heap counters %d", p.name, got, want)
		}
		if got, want := c.HeapBytes(), c.H.AllocatedBytes(); got != want {
			t.Errorf("after %s: HeapBytes %d, heap counters %d", p.name, got, want)
		}
	}
}

// TestPartialTriggerAtMostOneBlockLate: with batched accounting the
// §3.3 young-generation trigger is evaluated once per published block,
// so a lone mutator's partial is requested no later than one block past
// YoungBytes — and never before YoungBytes.
func TestPartialTriggerAtMostOneBlockLate(t *testing.T) {
	const young = 64 << 10
	c, err := New(Config{Mode: Generational, HeapBytes: 4 << 20, YoungBytes: young})
	if err != nil {
		t.Fatal(err)
	}
	m := c.NewMutator()
	defer m.Detach()
	const size = 48
	for allocated := 0; allocated < young+heap.BlockSize; allocated += size {
		if allocated < young && c.pending.Load() {
			t.Fatalf("partial requested after %d young bytes, before YoungBytes = %d", allocated, young)
		}
		mustAlloc(t, m, 0, size)
	}
	if !c.pending.Load() {
		t.Fatalf("no partial requested by YoungBytes + BlockSize = %d young bytes (pacer saw %d, %+v pending)",
			young+heap.BlockSize, c.pacer.YoungAlloc(), m.pend)
	}
	if c.wantFull.Load() {
		t.Fatal("young-generation trigger asked for a full collection")
	}
}

// TestMutatorAllocAllocatesNoGoMemory guards the create fast path: a
// warmed Alloc of a pointer-free object — block publications, pacer
// verdicts and collection requests included — makes no Go allocation,
// and neither does AllocCtx under a deadline context, the server's
// create. Run by name from `make alloc-guard`.
func TestMutatorAllocAllocatesNoGoMemory(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	for _, tc := range []struct {
		name  string
		alloc func(m *Mutator) (heap.Addr, error)
	}{
		{"Alloc", func(m *Mutator) (heap.Addr, error) { return m.Alloc(0, 32) }},
		{"AllocCtx", func(m *Mutator) (heap.Addr, error) { return m.AllocCtx(ctx, 0, 32) }},
	} {
		c, err := New(Config{Mode: Generational, HeapBytes: 8 << 20, YoungBytes: 64 << 10})
		if err != nil {
			t.Fatal(err)
		}
		m := c.NewMutator()
		mustAlloc(t, m, 0, 32) // warm: the size class owns a block
		// 20 000 × 32 B is over 150 blocks: publications, a crossed
		// young trigger and block refills all fall inside the measured
		// runs.
		if n := testing.AllocsPerRun(20000, func() {
			if _, err := tc.alloc(m); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("Mutator.%s made %v Go allocations per call, want 0", tc.name, n)
		}
		m.Detach()
	}
}

// TestAllocCtxExpiredClaimsNothing pins what the create's first attempt
// keeps on a warm cache (an owned block with blue cells): a context
// that has expired before the call fails the create with the context's
// error, not ErrStalled — it never waited — and claims no cell.
func TestAllocCtxExpiredClaimsNothing(t *testing.T) {
	c, err := New(Config{Mode: Generational, HeapBytes: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	m := c.NewMutator()
	defer m.Detach()
	mustAlloc(t, m, 0, 32) // warm: the size class owns a block
	c.H.PublishAllocs(&m.cache)
	before, pend := c.H.AllocatedObjects(), m.pend
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	a, err := m.AllocCtx(ctx, 0, 32)
	if a != 0 || !errors.Is(err, context.Canceled) || errors.Is(err, ErrStalled) {
		t.Fatalf("AllocCtx(expired) = %#x, %v; want 0 and an error wrapping context.Canceled, not ErrStalled", a, err)
	}
	c.H.PublishAllocs(&m.cache)
	if after := c.H.AllocatedObjects(); after != before {
		t.Fatalf("AllocCtx(expired) claimed %d cells, want none", after-before)
	}
	if m.pend != pend {
		t.Fatalf("AllocCtx(expired) charged %+v, want %+v", m.pend, pend)
	}
}
