package gengc

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gengc/internal/trace"
)

// drive runs fn on a helper goroutine while mutator m cooperates, so
// collector-side operations that handshake with m can complete.
func drive(m *Mutator, fn func()) {
	done := make(chan struct{})
	go func() { fn(); close(done) }()
	for {
		select {
		case <-done:
			return
		default:
			m.Safepoint()
			time.Sleep(20 * time.Microsecond)
		}
	}
}

// TestMustAllocOOMPanic exhausts a small heap and checks that MustAlloc
// panics with the typed *OOMPanic whose chain reaches ErrOutOfMemory.
func TestMustAllocOOMPanic(t *testing.T) {
	rt, err := NewManual(WithMode(Generational), WithHeapBytes(256<<10),
		WithYoungBytes(128<<10))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	m := rt.NewMutator()
	defer m.Detach()

	fill := func() (p any) {
		defer func() { p = recover() }()
		for i := 0; ; i++ {
			m.PushRoot(m.MustAlloc(0, 4096)) // rooted: nothing collectible
			m.Safepoint()
		}
	}
	p := fill()
	if p == nil {
		t.Fatal("MustAlloc never panicked on an exhausted heap")
	}
	oom, ok := p.(*OOMPanic)
	if !ok {
		t.Fatalf("panic value is %T, want *OOMPanic", p)
	}
	if !errors.Is(oom, ErrOutOfMemory) {
		t.Fatalf("panic chain does not reach ErrOutOfMemory: %v", oom)
	}
	var target *OOMPanic
	if err := error(oom); !errors.As(err, &target) {
		t.Fatalf("errors.As failed on %v", err)
	}
}

// TestClosedSentinel checks the ErrClosed surface: allocation on a
// closed runtime fails with the sentinel, and Close is idempotent.
func TestClosedSentinel(t *testing.T) {
	rt, err := New(WithMode(Generational), WithHeapBytes(4<<20))
	if err != nil {
		t.Fatal(err)
	}
	m := rt.NewMutator()
	if _, err := m.Alloc(1, 0); err != nil {
		t.Fatal(err)
	}
	rt.Close()
	rt.Close() // idempotent
	if _, err := m.Alloc(1, 0); !errors.Is(err, ErrClosed) {
		t.Fatalf("Alloc after Close: err = %v, want ErrClosed in chain", err)
	}
	if _, err := m.AllocCtx(context.Background(), 1, 0); !errors.Is(err, ErrClosed) {
		t.Fatalf("AllocCtx after Close: err = %v, want ErrClosed in chain", err)
	}
	m.Detach()
}

// TestStallWatchdog stalls a mutator past the configured deadline and
// checks all three report surfaces: the OnStall callback, the Stalls
// snapshot counter, and the "stall" trace event.
func TestStallWatchdog(t *testing.T) {
	sink := &trace.MemorySink{}
	rt, err := NewManual(WithMode(Generational), WithHeapBytes(4<<20),
		WithStallTimeout(10*time.Millisecond), WithTraceSink(sink))
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var reports []StallEvent
	rt.OnStall(func(s StallEvent) {
		mu.Lock()
		reports = append(reports, s)
		mu.Unlock()
	})
	m := rt.NewMutator()

	done := make(chan struct{})
	go func() { rt.Collect(false); close(done) }()
	time.Sleep(60 * time.Millisecond) // stall: no safepoints
	for {
		select {
		case <-done:
		default:
			m.Safepoint()
			continue
		}
		break
	}

	if got := rt.Snapshot().Stalls; got == 0 {
		t.Fatal("Snapshot.Stalls == 0 after a 60ms stall against a 10ms deadline")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(reports) == 0 {
		t.Fatal("OnStall never fired")
	}
	r := reports[0]
	if r.Phase != "sync1" {
		t.Errorf("first stall phase = %q, want sync1 (the first wedged wait)", r.Phase)
	}
	if r.Waited < 10*time.Millisecond {
		t.Errorf("reported wait %v is below the deadline", r.Waited)
	}
	m.Detach()
	rt.Close()
	stalls := 0
	for _, e := range sink.Events() {
		if e.Ev == "stall" {
			stalls++
			if e.K != "sync1" && e.K != "sync2" && e.K != "sync3" && e.K != "ack" {
				t.Errorf("stall event with unknown phase %q", e.K)
			}
		}
	}
	if stalls != len(reports) {
		t.Errorf("%d stall trace events, %d OnStall reports — surfaces disagree", stalls, len(reports))
	}
}

// TestAllocCtxStalledCollection wedges a collection behind an
// uncooperative mutator and checks that AllocCtx's deadline converts
// the indefinite wait into ErrStalled, and that Close then aborts the
// wedged cycle instead of hanging.
func TestAllocCtxStalledCollection(t *testing.T) {
	in := NewFaultInjector(7)
	// Every allocation reports transient OOM, forcing the full-collection
	// wait; the collection can never finish because m2 never cooperates.
	in.Install(FaultRule{Point: FaultAlloc, Kind: FaultFail})
	rt, err := NewManual(WithMode(Generational), WithHeapBytes(4<<20),
		WithFaultInjector(in), WithStallTimeout(15*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	m1 := rt.NewMutator()
	m2 := rt.NewMutator()
	_ = m2 // attached but silent: wedges every handshake

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = m1.AllocCtx(ctx, 1, 0)
	if err == nil {
		t.Fatal("AllocCtx succeeded although every allocation faults")
	}
	if !errors.Is(err, ErrStalled) {
		t.Fatalf("err = %v, want ErrStalled in chain", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded in chain", err)
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Fatalf("AllocCtx blocked %v past its 50ms deadline", waited)
	}

	// Close must abort the wedged cycle after the grace period.
	closed := make(chan struct{})
	go func() { rt.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close hung on the wedged handshake")
	}
	if rt.Snapshot().AbortedCycles == 0 {
		t.Error("no aborted cycle recorded although Close cut a wedged handshake")
	}
}

// TestAllocFaultRetries arms a bounded run of injected allocation
// failures and checks the retry path absorbs them: the allocation
// succeeds once the rule disarms, within the three-round retry budget.
func TestAllocFaultRetries(t *testing.T) {
	in := NewFaultInjector(11)
	in.Install(FaultRule{Point: FaultAlloc, Kind: FaultFail, Count: 2})
	rt, err := NewManual(WithMode(Generational), WithHeapBytes(4<<20),
		WithFaultInjector(in))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	m := rt.NewMutator()
	defer m.Detach()

	addr, err := m.Alloc(1, 0)
	if err != nil {
		t.Fatalf("Alloc did not survive 2 injected faults with 3 retries: %v", err)
	}
	if addr == Nil {
		t.Fatal("nil ref from successful Alloc")
	}
	if fired := in.Fired(FaultAlloc); fired != 2 {
		t.Fatalf("Alloc point fired %d times, want 2", fired)
	}
	// The two failed attempts each waited out a full collection.
	if fulls := rt.Snapshot().Fulls; fulls < 2 {
		t.Errorf("only %d full collections ran during the retries, want >= 2", fulls)
	}
}

// TestAllocRetryBudgetExhausted checks that an unbounded fault stream
// surfaces as ErrOutOfMemory after exactly the three retries rather than
// looping forever.
func TestAllocRetryBudgetExhausted(t *testing.T) {
	in := NewFaultInjector(13)
	in.Install(FaultRule{Point: FaultAlloc, Kind: FaultFail})
	rt, err := NewManual(WithMode(Generational), WithHeapBytes(4<<20),
		WithFaultInjector(in))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	m := rt.NewMutator()
	defer m.Detach()

	if _, err := m.Alloc(1, 0); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("err = %v, want ErrOutOfMemory after exhausted retries", err)
	}
	if fired := in.Fired(FaultAlloc); fired != 4 {
		t.Errorf("Alloc point fired %d times, want 4 (initial + 3 retries)", fired)
	}
}

// panickingSink explodes on every Emit; the runtime must degrade
// tracing instead of crashing the collector.
type panickingSink struct{ calls atomic.Int64 }

func (s *panickingSink) Emit(TraceEvent) {
	s.calls.Add(1)
	panic("bad sink")
}
func (s *panickingSink) Flush() error { return nil }

// TestTraceSinkDegradation runs collections against a sink that panics
// on every write and checks that the collector survives, degrades the
// sink, and counts the dropped events.
func TestTraceSinkDegradation(t *testing.T) {
	sink := &panickingSink{}
	rt, err := NewManual(WithMode(Generational), WithHeapBytes(4<<20),
		WithTraceSink(sink))
	if err != nil {
		t.Fatal(err)
	}
	m := rt.NewMutator()
	for i := 0; i < 100; i++ {
		m.PushRoot(m.MustAlloc(1, 0))
	}
	for i := 0; i < 3; i++ {
		drive(m, func() { rt.Collect(true) })
	}
	snap := rt.Snapshot()
	if snap.Fulls != 3 {
		t.Fatalf("collector stopped collecting under a panicking sink: %d fulls", snap.Fulls)
	}
	if !snap.TraceDegraded {
		t.Error("TraceDegraded false although every sink write panicked")
	}
	if snap.TraceDrops == 0 {
		t.Error("TraceDrops == 0 although the degraded sink dropped events")
	}
	m.Detach()
	rt.Close() // final drain must not panic either
}

// TestCloseAllocRace closes the runtime — twice, concurrently — while
// mutators allocate and the background collector cycles. Every
// allocator must come to rest with ErrClosed; nothing may deadlock or
// trip the race detector.
func TestCloseAllocRace(t *testing.T) {
	rt, err := New(WithMode(Generational), WithHeapBytes(8<<20),
		WithYoungBytes(256<<10), WithStallTimeout(20*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	const workers = 4
	var wg sync.WaitGroup
	var closedErrs atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m := rt.NewMutator()
			defer m.Detach()
			var keep int
			for {
				ref, err := m.Alloc(2, 64)
				if err != nil {
					if !errors.Is(err, ErrClosed) {
						t.Errorf("allocator got %v, want ErrClosed", err)
					}
					closedErrs.Add(1)
					return
				}
				if keep < 64 {
					m.PushRoot(ref)
					keep++
				} else {
					m.PopRoots(32)
					keep -= 32
				}
				m.Safepoint()
			}
		}()
	}
	time.Sleep(30 * time.Millisecond) // let cycles and allocation overlap
	var cwg sync.WaitGroup
	for i := 0; i < 2; i++ {
		cwg.Add(1)
		go func() {
			defer cwg.Done()
			rt.Close()
		}()
	}
	cwg.Wait()
	rt.Close() // and once more, after the fact
	wg.Wait()
	if got := closedErrs.Load(); got != workers {
		t.Fatalf("%d allocators saw ErrClosed, want %d", got, workers)
	}
}

// TestDetachHandshakeRace detaches and re-attaches mutators while
// collections run, so detach keeps racing mid-flight handshakes. The
// handshake must neither wait on detached mutators nor miss their
// leftover gray buffers.
func TestDetachHandshakeRace(t *testing.T) {
	rt, err := New(WithMode(Generational), WithHeapBytes(8<<20),
		WithYoungBytes(128<<10))
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				m := rt.NewMutator()
				prev := m.MustAlloc(2, 0)
				m.PushRoot(prev)
				for i := 0; i < 100; i++ {
					n := m.MustAlloc(2, 32)
					m.Write(n, 0, prev)
					m.SetRoot(0, n)
					prev = n
					m.Safepoint()
				}
				m.Detach() // mid-cycle more often than not
			}
		}()
	}
	deadline := time.After(300 * time.Millisecond)
	for done := false; !done; {
		select {
		case <-deadline:
			done = true
		default:
			rt.Collect(false)
		}
	}
	close(stop)
	wg.Wait()
	drainDone := make(chan struct{})
	go func() { rt.Collect(true); close(drainDone) }()
	<-drainDone
	if err := rt.Verify(); err != nil {
		t.Fatal(err)
	}
	rt.Close()
}

// TestAllocCtxCancelledBetweenRetries cancels the context while the
// allocation slow path is part-way through its bounded OOM retry
// budget. The errors.go contract for ErrStalled must hold on this path
// too: the error wraps both ErrStalled and the context's error, the
// call returns promptly instead of burning the remaining retries, and
// it does not get misreported as ErrOutOfMemory.
func TestAllocCtxCancelledBetweenRetries(t *testing.T) {
	in := NewFaultInjector(13)
	// Every allocation reports transient OOM, so the slow path loops
	// collect-and-retry; delayed handshake posts make each of the three
	// rounds outlast the 20ms cancellation, so it lands mid-budget.
	in.Install(FaultRule{Point: FaultAlloc, Kind: FaultFail})
	in.Install(FaultRule{Point: FaultHandshakePost, Kind: FaultDelay, P: 1, Delay: 25 * time.Millisecond})
	rt, err := New(WithMode(Generational), WithHeapBytes(4<<20),
		WithFaultInjector(in), WithStallTimeout(10*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	m := rt.NewMutator()

	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(20*time.Millisecond, cancel)
	start := time.Now()
	_, err = m.AllocCtx(ctx, 1, 0)
	waited := time.Since(start)
	if err == nil {
		t.Fatal("AllocCtx succeeded although every allocation faults")
	}
	if errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("err = %v: cancellation burned the retry budget into ErrOutOfMemory", err)
	}
	if !errors.Is(err, ErrStalled) {
		t.Fatalf("err = %v, want ErrStalled in chain", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled in chain", err)
	}
	if waited > 5*time.Second {
		t.Fatalf("AllocCtx returned %v after a 20ms cancellation", waited)
	}
}
