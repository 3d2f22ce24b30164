package gc

import (
	"context"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestHandshakeRoundTrip: posting a status blocks waitHandshake until
// every mutator cooperates, in order sync1 → sync2 → async.
func TestHandshakeRoundTrip(t *testing.T) {
	c := newTestCollector(t, Generational)
	m1 := c.NewMutator()
	m2 := c.NewMutator()

	done := make(chan struct{})
	go func() {
		c.handshake(StatusSync1)
		c.handshake(StatusSync2)
		c.postHandshake(StatusAsync)
		c.waitHandshake()
		close(done)
	}()
	deadline := time.After(10 * time.Second)
	for {
		select {
		case <-done:
			if Status(m1.status.Load()) != StatusAsync || Status(m2.status.Load()) != StatusAsync {
				t.Fatal("mutators not in async after handshakes")
			}
			return
		case <-deadline:
			t.Fatal("handshakes did not complete")
		default:
			m1.Cooperate()
			m2.Cooperate()
		}
	}
}

// TestWaitHandshakeSkipsDetached: a detached mutator cannot stall a
// handshake.
func TestWaitHandshakeSkipsDetached(t *testing.T) {
	c := newTestCollector(t, Generational)
	live := c.NewMutator()
	dead := c.NewMutator()
	dead.Detach() // never cooperates again

	done := make(chan struct{})
	go func() {
		c.handshake(StatusSync1)
		c.postHandshake(StatusAsync)
		c.waitHandshake()
		close(done)
	}()
	deadline := time.After(10 * time.Second)
	for {
		select {
		case <-done:
			return
		case <-deadline:
			t.Fatal("handshake stalled on a detached mutator")
		default:
			live.Cooperate()
		}
	}
}

// TestWaitSpuriousWakeRace: a wake is only a hint. With a token left in
// the wake slot, the parked wait takes it, looks again, and keeps
// waiting until the lagging mutator answers.
func TestWaitSpuriousWakeRace(t *testing.T) {
	c := newTestCollector(t, Generational)
	m := c.NewMutator()
	c.wake <- struct{}{} // left by an earlier round
	c.postHandshake(StatusSync1)
	done := make(chan struct{})
	go func() {
		c.waitHandshake()
		close(done)
	}()
	deadline := time.Now().Add(10 * time.Second)
	for len(c.wake) != 0 {
		if time.Now().After(deadline) {
			t.Fatal("the wait never took the token")
		}
		time.Sleep(50 * time.Microsecond)
	}
	select {
	case <-done:
		t.Fatal("the wait ended on a spurious wake, before the mutator answered")
	case <-time.After(20 * time.Millisecond):
	}
	m.Cooperate()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("the wait did not end after the mutator answered")
	}
}

// TestWaitLostWakeRace: a response that sends no wake (the status
// stored behind Cooperate's back) still ends a parked wait within a few
// ticks.
func TestWaitLostWakeRace(t *testing.T) {
	c := newTestCollector(t, Generational)
	m := c.NewMutator()
	c.postHandshake(StatusSync1)
	done := make(chan time.Time, 1)
	go func() {
		c.waitHandshake()
		done <- time.Now()
	}()
	deadline := time.Now().Add(10 * time.Second)
	for !c.parked.Load() {
		if time.Now().After(deadline) {
			t.Fatal("the wait never parked")
		}
		time.Sleep(50 * time.Microsecond)
	}
	answered := time.Now()
	m.status.Store(uint32(StatusSync1))
	select {
	case end := <-done:
		if d := end.Sub(answered); d > 50*time.Millisecond {
			t.Errorf("the wait noticed an answer without a wake after %v, want a few ticks of %v", d, WaitTick)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the wait never noticed an answer that sent no wake")
	}
}

// TestHandshakeContendedRace: on one processor, with two compute-bound
// mutators that reach a safe point every ~1 000 iterations and never
// otherwise yield, a cycle's handshake and ack rounds are answered in
// well under a scheduling quantum: each response wakes the parked
// collector and hands it the processor.
func TestHandshakeContendedRace(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	c := newTestCollector(t, Generational)
	var stop atomic.Bool
	var sink atomic.Uint64
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		m := c.NewMutator()
		wg.Add(1)
		go func(x uint64) {
			defer wg.Done()
			defer m.Detach()
			for !stop.Load() {
				for j := 0; j < 1000; j++ {
					x = x*6364136223846793005 + 1442695040888963407
				}
				m.Cooperate()
			}
			sink.Add(x)
		}(uint64(i + 1))
	}
	rounds := make([]time.Duration, 10)
	for i := range rounds {
		c.CollectNow(false)
		r := c.cyc
		rounds[i] = r.Sync1Time + r.Sync2Time + r.Sync3Time + r.AckTime
	}
	stop.Store(true)
	wg.Wait()
	slices.Sort(rounds)
	if med := rounds[len(rounds)/2]; med >= 5*time.Millisecond {
		t.Errorf("median handshake+ack time per cycle %v on one processor, want < 5ms (sorted: %v)", med, rounds)
	}
}

// TestAckRoundVisibility: after an ack round, grays shaded before each
// mutator's acknowledgement are visible to collectBuffers.
func TestAckRoundVisibility(t *testing.T) {
	c := newTestCollector(t, Generational)
	m := c.NewMutator()
	x := mustAlloc(t, m, 0, 32)
	c.switchColors() // make x clear-colored
	m.markGray(x)    // CAS + buffer append

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				m.Cooperate()
			}
		}
	}()
	c.ackRound()
	n := c.collectBuffers()
	close(stop)
	wg.Wait()
	if n != 1 {
		t.Fatalf("collected %d grays after ack round, want 1", n)
	}
	if len(c.gray) != 1 || c.gray[0] != x {
		t.Fatalf("gray stack = %v", c.gray)
	}
	c.gray = c.gray[:0]
	c.switchColors() // restore
}

// TestCooperateFastPathCheap: with nothing pending, Cooperate performs
// no handshake work (regression guard for the hot path: it must not
// mark roots or yield).
func TestCooperateFastPathCheap(t *testing.T) {
	c := newTestCollector(t, Generational)
	m := c.NewMutator()
	a := mustAlloc(t, m, 0, 32)
	m.PushRoot(a)
	c.switchColors() // a becomes clear-colored
	for i := 0; i < 1000; i++ {
		m.Cooperate()
	}
	// No handshake was posted, so the root must not have been grayed.
	if got := c.H.Color(a); got == 3 /* gray */ {
		t.Fatal("fast-path Cooperate marked roots")
	}
	c.switchColors()
}

// TestFullWaitOutlastsItsHelper: without a background collector, an
// allocation wait runs its full collection on a helper goroutine. When
// another full completes first, the wait must still cooperate until its
// own helper's cycle has run: that cycle needs this mutator's handshake
// responses, and once the mutator stops cooperating a helper left
// queued on the cycle lock would wedge the next cycle or Verify.
func TestFullWaitOutlastsItsHelper(t *testing.T) {
	c := newTestCollector(t, Generational)
	m := c.NewMutator()
	c.cycleMu.Lock() // hold the helper back, queued on the cycle lock
	waited := make(chan error, 1)
	go func() { waited <- m.waitForFullCollection(context.Background(), 0) }()
	for c.fullWaiters.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(10 * time.Millisecond) // the wait has read its start count
	c.fullsDone.Add(1)                // another full completes first
	select {
	case err := <-waited:
		c.cycleMu.Unlock()
		t.Fatalf("wait returned (%v) while its own helper cycle was still queued", err)
	case <-time.After(50 * time.Millisecond):
	}
	c.cycleMu.Unlock()
	select {
	case err := <-waited:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("wait did not end after its helper cycle ran")
	}
	verified := make(chan error, 1)
	go func() { verified <- c.Verify() }()
	select {
	case err := <-verified:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Verify wedged behind a queued helper cycle")
	}
}
