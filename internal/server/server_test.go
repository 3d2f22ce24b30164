package server

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"gengc"
)

func testRuntime(t *testing.T, opts ...gengc.Option) *gengc.Runtime {
	t.Helper()
	rt, err := gengc.New(append([]gengc.Option{
		gengc.WithMode(gengc.Generational),
		gengc.WithHeapBytes(16 << 20),
		gengc.WithYoungBytes(1 << 20),
	}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

func TestServerCompletesRequests(t *testing.T) {
	rt := testRuntime(t,
		gengc.WithAdmission(gengc.AdmissionConfig{}),
		gengc.WithRequestSLO(time.Second))
	s := New(rt, Config{Workers: 2})
	const n = 200
	for i := 0; i < n; i++ {
		if err := s.Submit(Request{Objects: 32, Slots: 2, Size: 64,
			Deadline: time.Second}); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	st := s.Stats()
	if st.Completed != n || st.FailedOOM != 0 || st.FailedStalled != 0 {
		t.Fatalf("stats: %+v, want %d completed and no failures", st, n)
	}
	snap := rt.Snapshot()
	if snap.RequestLatency.Count != n {
		t.Fatalf("request histogram count = %d, want %d", snap.RequestLatency.Count, n)
	}
	if snap.Admission.Admitted != n {
		t.Fatalf("admitted = %d, want %d", snap.Admission.Admitted, n)
	}
}

func TestServerDrainRejectsLateSubmits(t *testing.T) {
	rt := testRuntime(t, gengc.WithAdmission(gengc.AdmissionConfig{}))
	s := New(rt, Config{Workers: 1})
	if err := s.Submit(Request{Objects: 8, Slots: 1}); err != nil {
		t.Fatal(err)
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	err := s.Submit(Request{Objects: 8, Slots: 1})
	if !errors.Is(err, gengc.ErrClosed) {
		t.Fatalf("submit after drain: err = %v, want ErrClosed", err)
	}
	// Idempotent.
	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("second drain: %v", err)
	}
	if st := s.Stats(); st.Completed != 1 || st.Rejected != 1 {
		t.Fatalf("stats: %+v, want Completed 1 Rejected 1", st)
	}
}

// TestServerAllocCtxAbsorbsInjectedFaults: two injected transient
// allocation failures are absorbed inside AllocCtx, whose own
// collect-and-retry rounds (three) outlast them, so the request
// completes on its one run and nothing counts as a failure.
func TestServerAllocCtxAbsorbsInjectedFaults(t *testing.T) {
	in := gengc.NewFaultInjector(11)
	in.Install(gengc.FaultRule{Point: gengc.FaultAlloc, Kind: gengc.FaultFail, Count: 2})
	rt := testRuntime(t, gengc.WithFaultInjector(in),
		gengc.WithAdmission(gengc.AdmissionConfig{}))
	s := New(rt, Config{Workers: 1})
	if err := s.Submit(Request{Objects: 4, Slots: 1, Deadline: 5 * time.Second}); err != nil {
		t.Fatal(err)
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if n := in.Fired(gengc.FaultAlloc); n != 2 {
		t.Fatalf("%d allocation faults fired, want 2", n)
	}
	if st := s.Stats(); st.Completed != 1 || st.Retries != 0 || st.FailedStalled != 0 {
		t.Fatalf("stats: %+v, want the faulted request completed on its one run", st)
	}
}

// heldServer starts a one-worker server with admission armed and parks
// its worker inside a first request for about hold (every later
// allocation runs undelayed), so the test can fill the stack and, in
// place of the worker, pop it itself.
func heldServer(t *testing.T, hold time.Duration, ac gengc.AdmissionConfig, opts ...gengc.Option) *Server {
	t.Helper()
	in := gengc.NewFaultInjector(5)
	in.Install(gengc.FaultRule{Point: gengc.FaultAlloc, Kind: gengc.FaultDelay,
		Delay: hold, Count: 1})
	rt := testRuntime(t, append(opts, gengc.WithFaultInjector(in), gengc.WithAdmission(ac))...)
	s := New(rt, Config{Workers: 1})
	if err := s.Submit(Request{Objects: 1, Slots: 1}); err != nil {
		t.Fatal(err)
	}
	for s.adm.Stats().InFlight == 0 {
		time.Sleep(100 * time.Microsecond)
	}
	return s
}

func TestServerServesNewestFirst(t *testing.T) {
	s := heldServer(t, 200*time.Millisecond, gengc.AdmissionConfig{})
	for objects := 1; objects <= 3; objects++ {
		if err := s.Submit(Request{Objects: objects, Slots: 1}); err != nil {
			t.Fatal(err)
		}
	}
	for want := 3; want >= 1; want-- {
		req, ok := s.take()
		if !ok || req.Objects != want {
			t.Fatalf("popped %+v (ok %v), want the request with Objects %d", req, ok, want)
		}
		s.adm.Finish()
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if st := s.rt.Snapshot().Admission; st.Admitted != 4 || st.Queued != 0 || st.InFlight != 0 {
		t.Fatalf("admission stats %+v, want 4 admitted and empty gauges", st)
	}
}

func TestServerShedsWhenSaturated(t *testing.T) {
	// The worker is busy and the stack holds two requests: the third
	// is shed at the door, synchronously, without waiting.
	s := heldServer(t, 100*time.Millisecond, gengc.AdmissionConfig{MaxQueue: 2})
	for i := 0; i < 2; i++ {
		if err := s.Submit(Request{Objects: 8, Slots: 1}); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	if err := s.Submit(Request{Objects: 8, Slots: 1}); !errors.Is(err, gengc.ErrShed) {
		t.Fatalf("submit onto a full stack: err = %v, want ErrShed", err)
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	st, adm := s.Stats(), s.rt.Snapshot().Admission
	if st.Shed != 1 || st.Completed != 3 || adm.ShedQueueFull != 1 || adm.Shed != 1 {
		t.Fatalf("stats %+v admission %+v, want 1 shed (queue full) and 3 completed", st, adm)
	}
}

func TestServerDropsExpiredRequest(t *testing.T) {
	s := heldServer(t, 300*time.Millisecond, gengc.AdmissionConfig{})
	fresh := Request{Objects: 2, Slots: 1, Deadline: time.Hour}
	stale := Request{Objects: 3, Slots: 1, Deadline: time.Nanosecond}
	// Each run pushes a fresh request and then a stale one on top; the
	// pop drops the stale one and returns the fresh one below it.
	allocs := testing.AllocsPerRun(100, func() {
		if err := s.Submit(fresh); err != nil {
			t.Fatal(err)
		}
		if err := s.Submit(stale); err != nil {
			t.Fatal(err)
		}
		if req, ok := s.take(); !ok || req.Objects != fresh.Objects {
			t.Fatalf("popped %+v (ok %v), want the fresh request", req, ok)
		}
		s.adm.Finish()
	})
	if allocs != 0 {
		t.Fatalf("submit + expire + pop allocated %v Go objects per run, want 0", allocs)
	}
	// The stale requests were never taken up: only the held one and the
	// fresh ones count as admitted.
	adm := s.rt.Snapshot().Admission
	if adm.ShedTimeout != 101 || adm.Admitted != 102 || s.Stats().Shed != 101 {
		t.Fatalf("admission %+v server %+v, want 101 timeout sheds and 102 admitted",
			adm, s.Stats())
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

func TestServerShedsLowPriorityWhenDegraded(t *testing.T) {
	// An occupancy estimate far past the red line keeps the runtime
	// degraded until a collection reconciles it, after the submits.
	rt := testRuntime(t, gengc.WithAdmission(gengc.AdmissionConfig{}))
	rt.Collector().Pacer().Reconcile(1 << 40)
	s := New(rt, Config{Workers: 1})
	if err := s.Submit(Request{Priority: gengc.PriorityLow, Objects: 8, Slots: 1}); !errors.Is(err, gengc.ErrShed) {
		t.Fatalf("low-priority submit while degraded: err = %v, want ErrShed", err)
	}
	if err := s.Submit(Request{Priority: gengc.PriorityHigh, Objects: 8, Slots: 1}); err != nil {
		t.Fatalf("high-priority submit while degraded: %v", err)
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if st, adm := s.Stats(), rt.Snapshot().Admission; st.Completed != 1 || adm.ShedDegraded != 1 {
		t.Fatalf("stats %+v admission %+v, want 1 completed and 1 degraded shed", st, adm)
	}
}

func TestServerDrainCountsEveryRequest(t *testing.T) {
	// The worker is held past the drain's deadline: the queued requests
	// are abandoned and counted, the held one completes, and the runtime
	// closes either way.
	s := heldServer(t, 300*time.Millisecond, gengc.AdmissionConfig{})
	const queued = 5
	for i := 0; i < queued; i++ {
		if err := s.Submit(Request{Objects: 8, Slots: 1}); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := s.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("drain past its deadline: err = %v, want DeadlineExceeded", err)
	}
	if err := s.Submit(Request{Objects: 8, Slots: 1}); !errors.Is(err, gengc.ErrClosed) {
		t.Fatalf("submit after drain: err = %v, want ErrClosed", err)
	}
	st, adm := s.Stats(), s.rt.Snapshot().Admission
	if st.Completed != 1 || st.Shed != queued || st.Rejected != 1 || adm.ShedDraining != queued {
		t.Fatalf("stats %+v admission %+v, want 1 completed, %d abandoned, 1 rejected", st, adm, queued)
	}
	if sum := st.Completed + st.Shed + st.Rejected + st.FailedStalled + st.FailedOOM + st.FailedClosed; sum != st.Submitted {
		t.Fatalf("outcomes sum to %d, %d submitted", sum, st.Submitted)
	}
}

func TestLoadgenOpenLoopSchedule(t *testing.T) {
	rt := testRuntime(t, gengc.WithAdmission(gengc.AdmissionConfig{}))
	s := New(rt, Config{Workers: 2})
	stats := RunLoad(context.Background(), s, LoadConfig{
		Rate:     400,
		Duration: 250 * time.Millisecond,
		Template: Request{Objects: 16, Slots: 2, Size: 64, Deadline: time.Second},
		Seed:     3,
	})
	// Poisson with mean ~100 arrivals; accept a wide band.
	if stats.Offered < 30 || stats.Offered > 300 {
		t.Fatalf("offered = %d arrivals for a 400/s * 0.25s run", stats.Offered)
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	st := s.Stats()
	if st.Submitted != stats.Offered {
		t.Fatalf("submitted %d != offered %d", st.Submitted, stats.Offered)
	}
	if st.Completed == 0 {
		t.Fatal("no requests completed")
	}
}

func TestLoadgenBurstRaisesRate(t *testing.T) {
	base := rateAt(LoadConfig{Rate: 100, Duration: time.Second,
		BurstEvery: 100 * time.Millisecond, BurstLen: 20 * time.Millisecond,
		BurstFactor: 5}, 105*time.Millisecond)
	quiet := rateAt(LoadConfig{Rate: 100, Duration: time.Second,
		BurstEvery: 100 * time.Millisecond, BurstLen: 20 * time.Millisecond,
		BurstFactor: 5}, 50*time.Millisecond)
	if base != 500 || quiet != 100 {
		t.Fatalf("burst rate = %v quiet rate = %v, want 500/100", base, quiet)
	}
}

// TestServerStressParallelSubmit rides the race-detector subset: eight
// goroutines submitting against two workers and a small stack while the
// collector cycles, then a drain racing late submissions. Every
// submission must end in exactly one outcome.
func TestServerStressParallelSubmit(t *testing.T) {
	rt := testRuntime(t, gengc.WithAdmission(gengc.AdmissionConfig{MaxQueue: 16}))
	s := New(rt, Config{Workers: 2})
	done := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				// Every fourth request carries a deadline too short to
				// survive the stack, exercising the expiry path.
				deadline := 100 * time.Millisecond
				if i%4 == 0 {
					deadline = 50 * time.Microsecond
				}
				_ = s.Submit(Request{Objects: 64, Slots: 2, Size: 64, Deadline: deadline})
			}
		}()
	}
	time.Sleep(200 * time.Millisecond)
	close(done)
	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	wg.Wait()
	st := s.Stats()
	if st.Completed == 0 {
		t.Fatalf("stats %+v: nothing completed", st)
	}
	if sum := st.Completed + st.Shed + st.Rejected + st.FailedStalled + st.FailedOOM + st.FailedClosed; sum != st.Submitted {
		t.Fatalf("stats %+v: outcomes sum to %d, %d submitted", st, sum, st.Submitted)
	}
	if adm := rt.Snapshot().Admission; adm.Queued != 0 || adm.InFlight != 0 {
		t.Fatalf("admission gauges %+v after drain, want empty", adm)
	}
}
