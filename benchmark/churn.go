package main

import (
	"gengc"
)

// batchOps is the unit of work whose latency the churn workloads
// report: this many consecutive mutator ops, timed with one clock read
// at each end.
const batchOps = 256

// churner is the mutator-side state of a churn repetition.
type churner struct {
	rt *gengc.Runtime
	m  *gengc.Mutator
	tr *tracer

	ops []op
	pos int

	base     []gengc.Ref
	nursery  []int // root slots, a ring
	survivor []int // root slots, a ring
	nurPos   int
	surPos   int

	// retained is the ring of base locations holding a young object;
	// the location rotating out is cleared.
	retained []struct {
		obj  gengc.Ref
		slot int
	}
	retPos int

	last, head gengc.Ref
	sink       gengc.Ref

	allocs, stores, failed int64
}

// run executes n ops of the stream in batches, timing each batch.
func (c *churner) run(n int, r *rep) {
	tr := c.tr
	t0 := now()
	for done := 0; done < n; done += batchOps {
		for i := 0; i < batchOps; i++ {
			o := &c.ops[c.pos]
			if c.pos++; c.pos == len(c.ops) {
				c.pos = 0
			}
			c.exec(o, tr)
		}
		t1 := now()
		if r != nil {
			r.latUs = append(r.latUs, float64(t1-t0)/1e3)
			r.sampleHeap(c.rt)
			if tr != nil {
				tr.endBatch(t0, t1)
				t1 = now() // the tracer's own work belongs to no batch
			}
		}
		t0 = t1
	}
}

// exec performs one op. With a tracer, every public call is bracketed
// by two clock reads; without one the branches are all that is added.
func (c *churner) exec(o *op, tr *tracer) {
	m := c.m
	var t int64
	if tr != nil {
		t = now()
	}
	m.Safepoint()
	if tr != nil {
		tr.call(spSafepoint, t, now())
	}
	switch o.kind {
	case opAllocNursery, opAllocSurvivor, opAllocAttach:
		if tr != nil {
			t = now()
		}
		obj, err := m.Alloc(int(o.slots), int(o.size))
		if tr != nil {
			tr.call(spAlloc, t, now())
		}
		if err != nil {
			c.failed++
			return
		}
		c.allocs++
		c.last = obj
		switch o.kind {
		case opAllocSurvivor:
			m.SetRoot(c.survivor[c.surPos], obj)
			if c.surPos++; c.surPos == len(c.survivor) {
				c.surPos = 0
			}
		case opAllocAttach:
			c.write(c.head, int(o.slot), obj, tr)
		default:
			m.SetRoot(c.nursery[c.nurPos], obj)
			if c.nurPos++; c.nurPos == len(c.nursery) {
				c.nurPos = 0
			}
			c.head = obj
		}
	case opOldWrite:
		if old := c.retained[c.retPos]; old.obj != gengc.Nil {
			c.write(old.obj, old.slot, gengc.Nil, tr)
		}
		obj, slot := c.base[o.base], int(o.slot)
		c.retained[c.retPos].obj, c.retained[c.retPos].slot = obj, slot
		if c.retPos++; c.retPos == len(c.retained) {
			c.retPos = 0
		}
		c.write(obj, slot, c.last, tr)
	case opChase:
		x := c.base[o.base]
		for _, pick := range o.pick {
			s := m.Slots(x)
			if s == 0 {
				break
			}
			if tr != nil {
				t = now()
			}
			x = m.Read(x, int(pick)%s)
			if tr != nil {
				tr.call(spRead, t, now())
			}
			if x == gengc.Nil {
				break
			}
		}
		c.sink += x
	}
}

func (c *churner) write(x gengc.Ref, slot int, y gengc.Ref, tr *tracer) {
	var t int64
	if tr != nil {
		t = now()
	}
	c.m.Write(x, slot, y)
	if tr != nil {
		tr.call(spWrite, t, now())
	}
	c.stores++
}

// runChurn is one repetition of young_churn or old_mutation: one
// mutator, a concurrent collector, paper-default geometry. Closed loop,
// one client: the next op starts when the previous one returns.
func runChurn(p churnProfile, env runEnv) (*rep, error) {
	r := &rep{repStartNs: now()}
	// Paper defaults for everything: 32 MB heap, 4 MB young generation,
	// 16 B cards. No other knob is named, so none can be tuned for the
	// benchmark and none needs the benchmark to change when it goes.
	rt, err := gengc.New(gengc.WithMode(gengc.Generational))
	if err != nil {
		return nil, err
	}
	defer rt.Close()
	var log cycleLog
	rt.OnCycle(log.record)

	if env.traced {
		r.tr = newTracer(env.rep)
	}
	m := rt.NewMutator()
	c := &churner{rt: rt, m: m, ops: genOps(p, env.seed)}
	if c.base, err = buildBase(rt, m, p.baseObjects, p.baseSlots, p.baseObjSize, r.tr); err != nil {
		m.Detach()
		return nil, err
	}
	c.nursery = pushRoots(m, p.nurserySlots)
	c.survivor = pushRoots(m, p.survivorSlots)
	c.retained = make([]struct {
		obj  gengc.Ref
		slot int
	}, p.oldRetain)

	// Warm-up: one replay of the stream, which is at least two
	// collection cycles on either profile, untimed and untraced.
	c.run(env.scaled(streamLen), nil)
	c.allocs, c.stores, c.failed = 0, 0, 0

	n := env.scaled(p.opsPerRep)
	r.latUs = make([]float64, 0, n/batchOps)
	c.tr = r.tr
	r.before = rt.Snapshot()
	cpu0 := cpuNow()
	t0 := now()
	r.setupNs = t0 - r.repStartNs
	c.run(n, r)
	r.wallNs = now() - t0
	r.cpuNs = cpuNow() - cpu0
	r.end = rt.Snapshot()
	r.cycles = log.since(t0)
	r.traceCycles()

	r.attempted = int64(n)
	r.failed = c.failed
	r.completed = r.attempted - r.failed
	r.allocs, r.stores = c.allocs, c.stores

	// Correctness gate: the base is intact, then — with no mutator
	// attached — the heap and the card table are consistent.
	r.checkErr = checkBase(rt, m, p.baseObjects)
	m.Detach()
	if err := verifyQuiescent(rt); err != nil && r.checkErr == nil {
		r.checkErr = err
	}
	r.repEndNs = now()
	return r, nil
}

func pushRoots(m *gengc.Mutator, n int) []int {
	slots := make([]int, n)
	for i := range slots {
		slots[i] = m.PushRoot(gengc.Nil)
	}
	return slots
}
