package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"gengc"
	"gengc/internal/server"
)

// The offered rates of server_overload are constants. They were set
// once, on the reference host, to 0.5× and 2× the closed-loop capacity
// `-calibrate` measured there (README.md, "server_overload"), rounded
// to two significant figures, and are never recalibrated at run time: a
// rate relative to the capacity of the code under test would move with
// the code and hide every improvement.
const (
	rateLow  = 20000.0 // requests/s, steady leg
	rateHigh = 80000.0 // requests/s, overload leg

	steadySeconds   = 3.0
	overloadSeconds = 4.0

	serverWorkers = 2
	warmRequests  = 8192
	requestSLO    = 50 * time.Millisecond
	lowFraction   = 0.25
	sampleNs      = 10_000_000 // the schedule goroutine samples the runtime every 10 ms
)

var requestTemplate = server.Request{Objects: 96, Slots: 1, Size: 128, Deadline: requestSLO}

// legStats is what one leg (one runtime, one schedule) produced.
type legStats struct {
	offered int64
	good    int64 // completed within the deadline
	seconds float64
	srv     server.Stats
	snap    gengc.Snapshot
}

func newServerRuntime() (*gengc.Runtime, error) {
	return gengc.New(
		gengc.WithMode(gengc.Generational),
		gengc.WithHeapBytes(12<<20),
		gengc.WithYoungBytes(512<<10),
		gengc.WithAdmission(gengc.AdmissionConfig{}),
		gengc.WithRequestSLO(requestSLO),
	)
}

// runLeg drives one open-loop leg: this goroutine walks the schedule
// and hands each due arrival to a goroutine that calls Submit and only
// waits, so a blocked Submit never delays the next arrival. r receives
// the timed section's measurements: heap and latency samples, dispatch
// lateness, the collections and (with r.tr) the submit spans.
func runLeg(rt *gengc.Runtime, sched []arrival, seed int64, r *rep) (*legStats, error) {
	var log cycleLog
	rt.OnCycle(log.record)
	s := server.New(rt, server.Config{Workers: serverWorkers, Seed: seed})
	tr := r.tr
	r.lateUs = make([]float64, 0, len(sched))
	r.before = rt.Snapshot()
	cpu0 := cpuNow()
	var inflight sync.WaitGroup
	start := now()
	// Every sampleNs the schedule goroutine takes a Snapshot: the heap
	// occupancy, and the exact count and total of the request-latency
	// histogram. The requests completed between two samples are the
	// server's unit of work, as a batch of 256 ops is the churn
	// workloads': their mean latency is one latency sample, exact to
	// the nanosecond where the histogram's own quantiles step by 6 %.
	lastSample := start
	var lastCount int64
	var lastTotal time.Duration
	sample := func(t int64) {
		snap := rt.Snapshot()
		r.heapPeak = max(r.heapPeak, snap.HeapBytes)
		r.heapSum += float64(snap.HeapBytes)
		r.heapSamples++
		if lat := snap.RequestLatency; lat.Count > lastCount {
			r.latUs = append(r.latUs, float64(lat.Total-lastTotal)/float64(lat.Count-lastCount)/1e3)
			lastCount, lastTotal = lat.Count, lat.Total
		}
		lastSample = t
	}
	for _, a := range sched {
		due := start + a.dueNs
		for {
			t := now()
			if t-lastSample >= sampleNs {
				sample(t)
			}
			if t >= due {
				r.lateUs = append(r.lateUs, float64(t-due)/1e3)
				break
			}
			// Sleeping, not spinning: on a small host the workers need
			// the processor. A late wake-up dispatches every arrival
			// that came due, and is reported as workload.gen_late_*.
			time.Sleep(time.Duration(min(due-t, sampleNs)))
		}
		req := requestTemplate
		req.Priority = gengc.PriorityHigh
		if a.low {
			req.Priority = gengc.PriorityLow
		}
		inflight.Add(1)
		go func() {
			defer inflight.Done()
			if tr == nil {
				_ = s.Submit(req) // the outcome is counted by Server.Stats
				return
			}
			t0 := now()
			_ = s.Submit(req)
			tr.submit(t0, now())
		}()
	}
	inflight.Wait()
	elapsed := now() - start

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		return nil, err
	}
	r.wallNs = elapsed
	r.cpuNs = cpuNow() - cpu0
	r.cycles = log.since(start)
	leg := &legStats{offered: int64(len(sched)), seconds: float64(elapsed) / 1e9, srv: s.Stats(), snap: rt.Snapshot()}
	leg.good = leg.srv.Completed - leg.snap.RequestSLOBreaches
	return leg, nil
}

// check is the server's correctness gate: every arrival reached the
// server, no outcome is counted twice, none was lost to an error the
// load is not meant to cause, and the heap it leaves is consistent.
// (Outcomes may sum to less than the arrivals: a request whose deadline
// passes between two allocations fails with the bare context error,
// which Server.Stats puts in no class. Those count as refused.)
func (l *legStats) check(rt *gengc.Runtime) error {
	st := l.srv
	if st.Submitted != l.offered {
		return fmt.Errorf("server saw %d submissions, schedule has %d", st.Submitted, l.offered)
	}
	if sum := st.Completed + st.Shed + st.Rejected + st.FailedStalled + st.FailedOOM + st.FailedClosed; sum > l.offered {
		return fmt.Errorf("server counted %d outcomes for %d requests", sum, l.offered)
	}
	if bad := l.hardFailed(); bad != 0 {
		return fmt.Errorf("%d requests rejected, out of memory or closed (%+v)", bad, st)
	}
	return verifyQuiescent(rt)
}

// hardFailed counts requests lost to something other than the overload
// the schedule is built to cause.
func (l *legStats) hardFailed() int64 {
	return l.srv.Rejected + l.srv.FailedOOM + l.srv.FailedClosed
}

// runOverload is one repetition of server_overload. Open loop: Poisson
// arrivals at a constant rate, rateHigh for the timed leg. When
// traced it first runs the steady leg, at rateLow on its own
// runtime, for the server.steady.* layer metrics.
func runOverload(env runEnv) (*rep, error) {
	r := &rep{}
	if env.traced {
		rt, err := newServerRuntime()
		if err != nil {
			return nil, err
		}
		sched := genSchedule(env.seed+1, rateLow, env.scaledSeconds(steadySeconds), lowFraction)
		// Only the steady leg's counters are reported; its samples go
		// to a repetition record that is dropped.
		if r.steady, err = runLeg(rt, sched, env.seed, &rep{}); err != nil {
			return nil, err
		}
		if err := r.steady.check(rt); err != nil {
			r.checkErr = fmt.Errorf("steady leg: %w", err)
		}
	}

	r.repStartNs = now()
	rt, err := newServerRuntime()
	if err != nil {
		return nil, err
	}
	sched := genSchedule(env.seed, rateHigh, env.scaledSeconds(overloadSeconds), lowFraction)
	if env.traced {
		r.tr = newTracer(env.rep)
	}
	if err := warmHeap(rt, env.scaledCount(warmRequests)); err != nil {
		return nil, err
	}
	r.setupNs = now() - r.repStartNs
	if r.overload, err = runLeg(rt, sched, env.seed, r); err != nil {
		return nil, err
	}
	r.traceCycles()
	leg := r.overload
	r.end = leg.snap
	r.attempted = leg.offered
	r.completed = leg.good
	r.failed = leg.hardFailed()
	r.refused = r.attempted - r.completed - r.failed
	r.allocs = leg.srv.Completed * int64(requestTemplate.Objects)
	r.stores = leg.srv.Completed * int64(requestTemplate.Objects-1)
	if err := leg.check(rt); err != nil && r.checkErr == nil {
		r.checkErr = err
	}
	r.repEndNs = now()
	return r, nil
}

// warmHeap is the server's warm-up: a mutator of its own allocates n
// request-shaped graphs and drops them, keeping the last few rooted as
// a worker's session ring does. That is two hundred young generations:
// the size classes are carved, the free lists filled and the pacer's
// estimates settled before the first arrival. It goes through no
// server, so the request histogram and the admission counters start
// the timed leg empty.
func warmHeap(rt *gengc.Runtime, n int) error {
	m := rt.NewMutator()
	defer m.Detach()
	ring := pushRoots(m, 32)
	for i := 0; i < n; i++ {
		head, err := m.Alloc(requestTemplate.Slots, requestTemplate.Size)
		if err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
		m.SetRoot(ring[i%len(ring)], head)
		for prev, j := head, 1; j < requestTemplate.Objects; j++ {
			obj, err := m.Alloc(requestTemplate.Slots, requestTemplate.Size)
			if err != nil {
				return fmt.Errorf("warm-up: %w", err)
			}
			m.Write(prev, 0, obj)
			prev = obj
		}
		m.Safepoint()
	}
	return nil
}

// calibrate measures the closed-loop capacity the rate constants were
// derived from: requests without deadlines, admission off, submitted as
// fast as the workers consume them.
func calibrate(seconds float64) (float64, error) {
	rt, err := gengc.New(gengc.WithMode(gengc.Generational), gengc.WithHeapBytes(12<<20), gengc.WithYoungBytes(512<<10))
	if err != nil {
		return 0, err
	}
	s := server.New(rt, server.Config{Workers: serverWorkers, QueueCap: 64})
	req := requestTemplate
	req.Deadline = 0
	start := now()
	for now()-start < int64(seconds*1e9) {
		if err := s.Submit(req); err != nil {
			return 0, err
		}
	}
	if err := s.Drain(context.Background()); err != nil {
		return 0, err
	}
	return float64(s.Stats().Completed) / (float64(now()-start) / 1e9), nil
}
