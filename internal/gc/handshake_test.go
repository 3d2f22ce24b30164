package gc

import (
	"context"
	"sync"
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
