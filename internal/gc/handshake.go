package gc

import (
	"runtime"
	"time"

	"gengc/internal/fault"
)

// The collector's wait loops poll with the named backoff constants of
// sched.go (HandshakeYieldBudget and friends — shared with the virtual
// scheduler's time model). The paper separates the handshake into
// postHandshake and waitHandshake (§7) instead of using a second
// collector thread; we do the same.
const (
	// watchdogCheckMask gates the watchdog's clock reads while the
	// wait is still in its yield phase: the stall deadline is checked
	// once per this many iterations, keeping the hot spin loop free
	// of time.Now calls. Once the wait falls back to sleeping, every
	// iteration already pays a sleep — whose true wall cost is timer
	// granularity, often ~1ms — so the gate is bypassed there: at one
	// check per 256 sleeps the watchdog would only look every ~250ms
	// and miss short stalls entirely.
	watchdogCheckMask = 255
)

// postHandshake publishes a new collector status; mutators observe it at
// their next safe point and update their own status.
func (c *Collector) postHandshake(s Status) {
	// Delay-only seam: the publication itself must happen, so a
	// Drop/Fail rule here degrades to its configured delay (and the
	// virtual scheduler just parks the collector before the store).
	c.seamDelay(fault.HandshakePost)
	c.statusC.Store(uint32(s))
}

// stallWatch tracks one wait's watchdog state: when the wait began,
// which mutators were already reported, and the iteration gate.
type stallWatch struct {
	phase    string
	start    time.Time
	reported map[int]bool
	iter     int
}

// watchdog runs the stall check once per gated iteration (every
// iteration when slow is set — the wait is already sleeping between
// polls). lagging reports whether a mutator has yet to respond to the
// wait in progress. It returns true when the wait must be abandoned:
// the collector is closing and the handshake has been wedged past its
// grace period — the caller aborts the cycle (Stop documents why that
// is safe).
func (c *Collector) watchdog(w *stallWatch, lagging func(*Mutator) bool, slow bool) (abort bool) {
	w.iter++
	if !slow && w.iter&watchdogCheckMask != 0 {
		return false
	}
	deadline := c.cfg.StallTimeout
	elapsed := time.Since(w.start)
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
// (seamWait); otherwise it yields, then sleeps, watched by the stall
// watchdog, which reports laggards under phase. Mutators attached
// mid-wait adopt the posted status on attach, so they never stall the
// wait; detached mutators are skipped. The false return is the
// close-abort path: the collector is stopping and a mutator stayed
// unresponsive past the grace period.
func (c *Collector) waitAll(p fault.Point, phase string, lagging func(*Mutator) bool) bool {
	done := func() bool { return c.noneLagging(lagging) }
	if handled, ok := c.seamWait(p, done); handled {
		return ok
	}
	w := stallWatch{phase: phase, start: time.Now()}
	for spin := 0; ; spin++ {
		if done() {
			return true
		}
		if c.watchdog(&w, lagging, spin >= HandshakeYieldBudget) {
			return false
		}
		yieldOrSleep(spin)
	}
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

// yieldOrSleep cedes the processor while polling mutators: Gosched lets
// a cooperating mutator run immediately (it yields back at its next safe
// point). Past the yield budget, sleeps back off exponentially from
// HandshakeSleepMin to the HandshakeSleepMax cap (the constants and
// their rationale live in sched.go).
func yieldOrSleep(spin int) {
	if spin < HandshakeYieldBudget {
		runtime.Gosched()
		return
	}
	d := HandshakeSleepMax
	if shift := spin - HandshakeYieldBudget; shift < HandshakeBackoffDoublings {
		// 1, 2, 4, ... 64µs; from the final doubling the cap applies.
		d = HandshakeSleepMin << uint(shift)
	}
	time.Sleep(d)
}

// handshake is the combined post-and-wait of Figure 3.
func (c *Collector) handshake(s Status) bool {
	c.postHandshake(s)
	return c.waitHandshake()
}

// ackRound asks every mutator to pass one safe point and waits for it.
// It closes the trace-termination race: when a mutator acknowledges the
// epoch, every gray transition it performed before the acknowledgement
// is visible in its gray buffer. Each round's latency is recorded in
// the cycle record and emitted as an "ack" trace event. It waits in
// waitAll and returns false only on the close-abort path.
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
	c.emit("ack", start, "", e, 0)
	return true
}
