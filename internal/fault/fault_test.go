package fault

import (
	"sync"
	"testing"
	"time"
)

// TestSameSeedSameSchedule: the per-point decision stream is a pure
// function of (seed, rules, hit index) — the reproducibility guarantee
// the chaos campaigns rest on.
func TestSameSeedSameSchedule(t *testing.T) {
	build := func() *Injector {
		in := New(42)
		in.Install(Rule{Point: Cooperate, Kind: Delay, P: 0.3, Delay: time.Millisecond})
		in.Install(Rule{Point: Cooperate, Kind: Drop, P: 0.1})
		in.Install(Rule{Point: Alloc, Kind: Fail, P: 0.5})
		return in
	}
	a, b := build(), build()
	for i := 0; i < 10000; i++ {
		if da, db := a.At(Cooperate), b.At(Cooperate); da != db {
			t.Fatalf("hit %d at cooperate diverged: %+v vs %+v", i, da, db)
		}
		if da, db := a.At(Alloc), b.At(Alloc); da != db {
			t.Fatalf("hit %d at alloc diverged: %+v vs %+v", i, da, db)
		}
	}
}

// TestStreamsIndependent: hitting one point does not perturb another
// point's schedule.
func TestStreamsIndependent(t *testing.T) {
	build := func() *Injector {
		in := New(7)
		in.Install(Rule{Point: Alloc, Kind: Fail, P: 0.5})
		return in
	}
	a, b := build(), build()
	// a takes extra hits at an unrelated point between alloc hits.
	for i := 0; i < 1000; i++ {
		a.At(SweepShard)
		if da, db := a.At(Alloc), b.At(Alloc); da != db {
			t.Fatalf("alloc hit %d diverged after cross-point traffic", i)
		}
	}
}

// TestDifferentSeedsDiverge: distinct seeds produce distinct schedules
// (probabilistically certain over 1000 p=0.5 draws).
func TestDifferentSeedsDiverge(t *testing.T) {
	a, b := New(1), New(2)
	r := Rule{Point: Alloc, Kind: Fail, P: 0.5}
	a.Install(r)
	b.Install(r)
	for i := 0; i < 1000; i++ {
		if a.At(Alloc) != b.At(Alloc) {
			return
		}
	}
	t.Fatal("seeds 1 and 2 produced identical 1000-hit schedules")
}

// TestCountDisarms: a Count-bounded rule fires exactly Count times —
// the "drop-once" form.
func TestCountDisarms(t *testing.T) {
	in := New(3)
	in.Install(Rule{Point: Alloc, Kind: Fail, Count: 2}) // P 0 = always
	fails := 0
	for i := 0; i < 100; i++ {
		if d := in.At(Alloc); d.Fail {
			fails++
		}
	}
	if fails != 2 {
		t.Fatalf("count-2 rule fired %d times, want 2", fails)
	}
	if got := in.Fired(Alloc); got != 2 {
		t.Fatalf("Fired = %d, want 2", got)
	}
}

// TestDecisionsMerge: multiple rules firing on one hit merge into one
// decision (delays add, drop/fail OR together).
func TestDecisionsMerge(t *testing.T) {
	in := New(4)
	in.Install(Rule{Point: SinkWrite, Kind: Delay, Delay: time.Millisecond})
	in.Install(Rule{Point: SinkWrite, Kind: Delay, Delay: 2 * time.Millisecond})
	in.Install(Rule{Point: SinkWrite, Kind: Fail})
	d := in.At(SinkWrite)
	if d.Delay != 3*time.Millisecond || !d.Fail || d.Drop {
		t.Fatalf("merged decision = %+v", d)
	}
}

// TestNilInjectorSafe: the disabled state decides nothing, everywhere.
func TestNilInjectorSafe(t *testing.T) {
	var in *Injector
	if d := in.At(Cooperate); d != (Decision{}) {
		t.Fatalf("nil At = %+v", d)
	}
	if drop, fail := in.Inject(Alloc); drop || fail {
		t.Fatal("nil Inject decided something")
	}
	in.Install(Rule{Point: Alloc, Kind: Fail})
	if in.Stats() != nil || in.Fired(Alloc) != 0 || in.Seed() != 0 {
		t.Fatal("nil accessors not zero")
	}
}

// TestStats: hits and fires are accounted per point.
func TestStats(t *testing.T) {
	in := New(5)
	in.Install(Rule{Point: Alloc, Kind: Fail})
	for i := 0; i < 10; i++ {
		in.At(Alloc)
	}
	in.At(Cooperate) // no rules: hit but never fires
	var alloc, coop *PointStats
	stats := in.Stats()
	for i := range stats {
		switch stats[i].Point {
		case Alloc:
			alloc = &stats[i]
		case Cooperate:
			coop = &stats[i]
		}
	}
	if alloc == nil || alloc.Hits != 10 || alloc.Fired != 10 {
		t.Fatalf("alloc stats = %+v", alloc)
	}
	if coop == nil || coop.Hits != 1 || coop.Fired != 0 {
		t.Fatalf("cooperate stats = %+v", coop)
	}
}

// TestConcurrentHitsRace: concurrent hits at the same and different
// points are safe (run under -race by make race).
func TestConcurrentHitsRace(t *testing.T) {
	in := New(6)
	in.Install(Rule{Point: Cooperate, Kind: Drop, P: 0.5})
	in.Install(Rule{Point: Alloc, Kind: Fail, P: 0.5, Count: 100})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				in.At(Cooperate)
				in.Inject(Alloc)
			}
		}()
	}
	wg.Wait()
	if fired := in.Fired(Alloc); fired != 100 {
		t.Fatalf("count-100 rule fired %d times under concurrency", fired)
	}
}

// TestPointAndKindStrings: names stay stable for logs and reports.
func TestPointAndKindStrings(t *testing.T) {
	want := map[Point]string{
		HandshakePost: "handshake-post",
		HandshakeAck:  "handshake-ack",
		Cooperate:     "cooperate",
		SweepShard:    "sweep-shard",
		Alloc:         "alloc",
		SinkWrite:     "sink-write",
		CardScan:      "card-scan",
		TraceDrain:    "trace-drain",
		HandshakeWait: "handshake-wait",
		AckWait:       "ack-wait",
	}
	if len(want) != int(NumPoints) {
		t.Fatalf("test covers %d points, NumPoints = %d", len(want), NumPoints)
	}
	for p, s := range want {
		if p.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(p), p.String(), s)
		}
	}
	for k, s := range map[Kind]string{Delay: "delay", Drop: "drop", Fail: "fail"} {
		if k.String() != s {
			t.Errorf("kind %d = %q, want %q", int(k), k.String(), s)
		}
	}
}
