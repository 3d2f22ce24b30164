package main

import (
	"fmt"

	"gengc"
)

// quiescentRounds is the timed rounds of one collect_quiescent
// repetition; a round is three partial collections and one full.
const quiescentRounds = 144

// runQuiescent is one repetition of collect_quiescent: the collector
// alone. A manual runtime never collects on its own; a mutator builds
// the base and detaches, and from then on mutation phases (untimed) and
// Runtime.Collect calls (timed) alternate with no mutator attached
// during a collection. One thread is busy and the graph the collector
// sees is a function of the seed, so its work counts repeat exactly.
// Closed loop, one client.
func runQuiescent(env runEnv) (*rep, error) {
	r := &rep{repStartNs: now()}
	rt, err := gengc.NewManual(gengc.WithMode(gengc.Generational), gengc.WithHeapBytes(64<<20))
	if err != nil {
		return nil, err
	}
	defer rt.Close()
	var log cycleLog
	rt.OnCycle(log.record)

	var tr *tracer
	if env.traced {
		tr = newTracer(env.rep)
	}
	targets := genStoreTargets(env.seed)
	m := rt.NewMutator()
	base, err := buildBase(rt, m, quiescentBase, 6, 96, tr)
	m.Detach()
	if err != nil {
		return nil, err
	}

	// mutate allocates one phase's young objects and stores every 8th
	// into the next target locations of the base.
	next := 0
	mutate := func() error {
		m := rt.NewMutator()
		defer m.Detach()
		for i := 0; i < quiescentYoung; i++ {
			obj, err := m.Alloc(2, 48)
			if err != nil {
				return err
			}
			r.allocs++
			if i%quiescentStoreStep == 0 {
				t := targets[next]
				if next++; next == len(targets) {
					next = 0
				}
				m.Write(base[t.base], int(t.slot), obj)
				r.stores++
			}
		}
		r.sampleHeap(rt)
		return nil
	}
	// collect times one Runtime.Collect call; the CPU clock is read
	// around the call too, so the mutation phases stay out of it.
	collect := func(full bool) {
		cpu0 := cpuNow()
		t0 := now()
		rt.Collect(full)
		t1 := now()
		r.cpuNs += cpuNow() - cpu0
		r.wallNs += t1 - t0
		r.latUs = append(r.latUs, float64(t1-t0)/1e3)
		if full {
			r.fullMs = append(r.fullMs, float64(t1-t0)/1e6)
		} else {
			r.partialMs = append(r.partialMs, float64(t1-t0)/1e6)
		}
		if r.tr != nil {
			if cs := log.since(t0); len(cs) == 1 {
				r.tr.collect(t0, t1, cs[0].rec)
			}
		}
	}
	round := func(timed bool) error {
		for phase := 0; phase < quiescentPhases+1; phase++ {
			full := phase == quiescentPhases
			if !full {
				if err := mutate(); err != nil {
					return err
				}
			}
			if timed {
				collect(full)
			} else {
				rt.Collect(full)
			}
		}
		return nil
	}

	if err := round(false); err != nil { // warm-up
		return nil, fmt.Errorf("warm-up round: %w", err)
	}
	*r = rep{repStartNs: r.repStartNs, tr: tr} // the warm-up round's counts do not belong to the repetition
	r.before = rt.Snapshot()
	t0 := now()
	r.setupNs = t0 - r.repStartNs
	for i := 0; i < env.scaledCount(quiescentRounds); i++ {
		r.attempted += quiescentPhases + 1
		if err := round(true); err != nil {
			// A failed allocation fails the round's collections.
			r.failed += quiescentPhases + 1
		}
	}
	r.end = rt.Snapshot()
	r.cycles = log.since(t0)
	r.completed = r.attempted - r.failed
	for _, c := range r.cycles {
		r.exact[0] += int64(c.rec.ObjectsScanned)
		r.exact[1] += int64(c.rec.SlotsScanned)
		r.exact[2] += int64(c.rec.CardsScanned)
		r.exact[3] += int64(c.rec.ObjectsFreed)
	}

	m = rt.NewMutator()
	r.checkErr = checkBase(rt, m, quiescentBase)
	m.Detach()
	if err := verifyQuiescent(rt); err != nil && r.checkErr == nil {
		r.checkErr = err
	}
	if int64(len(r.cycles)) != r.attempted && r.checkErr == nil {
		r.checkErr = fmt.Errorf("%d collections recorded for %d Collect calls", len(r.cycles), r.attempted)
	}
	r.repEndNs = now()
	return r, nil
}
