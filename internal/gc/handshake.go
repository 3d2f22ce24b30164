package gc

import (
	"runtime"
	"time"

	"gengc/internal/fault"
)

// The paper separates the handshake into postHandshake and
// waitHandshake (§7) instead of using a second collector thread; we do
// the same. The collector's wait (waitAll) polls while it can have a
// processor of its own and otherwise parks until a response wakes it.

// pollWindow is how long a wait busy-polls before it parks, when the
// collector can have a processor of its own (fewer attached mutators
// than GOMAXPROCS): a prompt response then costs no scheduler round
// trip, and the collector and a lone mutator stay on their own cores
// instead of trading one at every round.
const pollWindow = time.Millisecond

// postHandshake publishes a new collector status; mutators observe it at
// their next safe point and update their own status.
func (c *Collector) postHandshake(s Status) {
	// Delay-only seam: the publication itself must happen, so a
	// Drop/Fail rule here degrades to its configured delay (and the
	// virtual scheduler just parks the collector before the store).
	c.seamDelay(fault.HandshakePost)
	c.statusC.Store(uint32(s))
}

// stallWatch tracks one wait's watchdog state: when the wait began and
// which mutators were already reported.
type stallWatch struct {
	phase    string
	start    time.Time
	reported map[int]bool
}

// watchdog runs the stall check for a wait that has lasted elapsed.
// lagging reports whether a mutator has yet to respond to the wait in
// progress. It returns true when the wait must be abandoned: the
// collector is closing and the handshake has been wedged past its
// grace period — the caller aborts the cycle (Stop documents why that
// is safe).
func (c *Collector) watchdog(w *stallWatch, lagging func(*Mutator) bool, elapsed time.Duration) (abort bool) {
	deadline := c.cfg.StallTimeout
	if c.closed.Load() && elapsed > deadline {
		return true
	}
	if elapsed < deadline {
		return false
	}
	// Past the deadline: report every laggard exactly once per wait.
	c.muts.Lock()
	snapshot := append([]*Mutator(nil), c.muts.list...)
	c.muts.Unlock()
	for _, m := range snapshot {
		if m.detached.Load() || !lagging(m) || w.reported[m.id] {
			continue
		}
		if w.reported == nil {
			w.reported = make(map[int]bool)
		}
		w.reported[m.id] = true
		c.notifyStall(Stall{Mutator: m.id, Phase: w.phase, Waited: elapsed})
	}
	return false
}

// waitHandshake blocks until every attached mutator has responded to
// the last posted status (waitAll).
func (c *Collector) waitHandshake() bool {
	target := c.statusC.Load()
	return c.waitAll(fault.HandshakeWait, phaseLabel(Status(target)),
		func(m *Mutator) bool { return m.status.Load() != target })
}

// waitAll is the collector's one wait loop, shared by the handshake and
// acknowledgement rounds: it blocks until no attached mutator is
// lagging. Under a virtual scheduler the wait diverts to it at point p
// (seamWait). Otherwise it busy-polls for pollWindow when the collector
// can have a processor of its own, then parks (park) until a response
// wakes it or a tick passes; the stall watchdog, which reports
// laggards under phase, runs on every iteration. The predicate alone
// ends the wait: a wake is a hint. Mutators attached mid-wait adopt
// the posted status on attach, so they never stall the wait; detached
// mutators are skipped. The false return is the close-abort path: the
// collector is stopping and a mutator stayed unresponsive past the
// grace period.
func (c *Collector) waitAll(p fault.Point, phase string, lagging func(*Mutator) bool) bool {
	done := func() bool { return c.noneLagging(lagging) }
	if handled, ok := c.seamWait(p, done); handled {
		return ok
	}
	w := stallWatch{phase: phase, start: time.Now()}
	c.muts.Lock()
	poll := len(c.muts.list) < runtime.GOMAXPROCS(0)
	c.muts.Unlock()
	for {
		if done() {
			return true
		}
		elapsed := time.Since(w.start)
		if c.watchdog(&w, lagging, elapsed) {
			return false
		}
		if poll && elapsed < pollWindow {
			continue
		}
		c.park(done)
	}
}

// park blocks the collector until a mutator's response wakes it or one
// WaitTick passes. parked is set before the last look at the predicate,
// so a response stored after that look sees it and sends the wake
// (Cooperate); a token left by an earlier round only makes the caller
// look again. The tick timer is the collector's one, reused, so a wait
// allocates nothing.
func (c *Collector) park(done func() bool) {
	c.parked.Store(true)
	if !done() {
		c.tick.Reset(WaitTick)
		select {
		case <-c.wake:
		case <-c.tick.C:
		}
		c.tick.Stop()
	}
	c.parked.Store(false)
}

// noneLagging reports whether every attached mutator has answered the
// wait in progress.
func (c *Collector) noneLagging(lagging func(*Mutator) bool) bool {
	c.muts.Lock()
	defer c.muts.Unlock()
	for _, m := range c.muts.list {
		if !m.detached.Load() && lagging(m) {
			return false
		}
	}
	return true
}

// phaseLabel names the wait for stall reports: the three handshake
// rounds wait for sync1, sync2 and async (the paper's third handshake)
// respectively.
func phaseLabel(target Status) string {
	switch target {
	case StatusSync1:
		return "sync1"
	case StatusSync2:
		return "sync2"
	}
	return "sync3"
}

// handshake is the combined post-and-wait of Figure 3.
func (c *Collector) handshake(s Status) bool {
	c.postHandshake(s)
	return c.waitHandshake()
}

// ackRound asks every mutator to pass one safe point and waits for it.
// It closes the trace-termination race: when a mutator acknowledges the
// epoch, every gray transition it performed before the acknowledgement
// is visible in its gray buffer. Each round's latency is added to the
// cycle record's AckTime and emitted as an "ack" trace event. It waits
// in waitAll and returns false only on the close-abort path.
func (c *Collector) ackRound() bool {
	// Delay-only seam (a Drop/Fail rule degrades to its delay): the
	// epoch bump must happen or the round never completes.
	c.seamDelay(fault.HandshakeAck)
	start := time.Now()
	e := c.ackEpoch.Add(1)
	if !c.waitAll(fault.AckWait, "ack", func(m *Mutator) bool { return m.ack.Load() < e }) {
		return false
	}
	c.cyc.AckRounds++
	c.cyc.AckTime += time.Since(start)
	c.emit("ack", start, "", e, 0)
	return true
}
