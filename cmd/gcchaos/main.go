// Command gcchaos runs seeded chaos campaigns against the runtime: the
// soaks' randomized multi-mutator workload (internal/workload's Mix,
// or its AllocStorm variant) executes under a sequence of fault
// schedules — stalled safe points, a slow collector (handshakes, trace
// drains, block walks), transient allocation failures, allocation
// storms against the tiered allocation path, a failing trace sink, a
// close racing live allocators, and a server-mode arrival storm against
// the admission controller (serverstorm: shed, don't panic) — with the
// full invariant battery (Verify, the card invariant, and the per-cycle
// self-check) auditing every round. The fault schedule is a pure
// function of -seed, so a failing campaign reruns identically.
//
//	gcchaos -seed 1 -mode gen -mutators 4 -rounds 2 -ops 3000
//
// Exit status 0 means every schedule completed with zero violations.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"gengc"
	"gengc/internal/server"
	"gengc/internal/workload"
)

// schedule is one named fault configuration plus its post-run
// expectations.
type schedule struct {
	name   string
	rules  []gengc.FaultRule
	flight int  // flight-recorder ring size (0 = recorder off)
	storm  bool // run workload.RunStorm instead of workload.RunMix
	sink   bool
	// expect audits the finished run; it appends violation strings.
	expect func(rt *gengc.Runtime, in *gengc.FaultInjector, v *[]string)
}

func schedules() []schedule {
	return []schedule{
		{
			name: "baseline",
		},
		{
			// Stalled mutators: injected safe-point delays longer than
			// the watchdog deadline. Every fired delay holds a mutator
			// the collector is actively waiting on, so the watchdog
			// must have reported at least one stall if any fired — and
			// each report must freeze a flight-recorder dump carrying
			// the stall event plus the ring that led up to it.
			name:   "stall",
			flight: 256,
			rules: []gengc.FaultRule{
				{Point: gengc.FaultCooperate, Kind: gengc.FaultDelay,
					P: 0.5, Delay: 25 * time.Millisecond, Count: 4},
			},
			expect: func(rt *gengc.Runtime, in *gengc.FaultInjector, v *[]string) {
				fired := in.Fired(gengc.FaultCooperate)
				stalls := rt.Snapshot().Stalls
				if fired == 0 {
					*v = append(*v, "stall: the Cooperate point never fired — campaign too short")
				}
				if fired > 0 && stalls == 0 {
					*v = append(*v, fmt.Sprintf(
						"stall: %d injected safe-point delays but zero watchdog reports", fired))
				}
				if stalls == 0 {
					return
				}
				fr := rt.FlightRecorder()
				if fr == nil || fr.DumpCount() == 0 {
					*v = append(*v, "stall: watchdog fired but the flight recorder captured no dump")
					return
				}
				dump, _ := fr.LastDump()
				var stallEvs, otherEvs int
				for _, e := range dump.Events {
					if e.Ev == "stall" {
						stallEvs++
					} else {
						otherEvs++
					}
				}
				if stallEvs == 0 {
					*v = append(*v, fmt.Sprintf(
						"stall: flight dump (reason %q, %d events) holds no stall event",
						dump.Reason, len(dump.Events)))
				}
				if otherEvs == 0 {
					*v = append(*v, "stall: flight dump holds no ring context besides the stall event")
				}
				if dump.Snapshot == nil {
					*v = append(*v, "stall: flight dump carries no snapshot")
				}
			},
		},
		{
			// Slow collector internals: delayed handshake posting and
			// ack rounds, slow per-object drains, slow block-walk
			// chunks. All latency, no lost work — the invariant battery
			// is the assertion.
			name: "slowcollector",
			rules: []gengc.FaultRule{
				{Point: gengc.FaultHandshakePost, Kind: gengc.FaultDelay, P: 0.2, Delay: 500 * time.Microsecond},
				{Point: gengc.FaultHandshakeAck, Kind: gengc.FaultDelay, P: 0.2, Delay: 300 * time.Microsecond},
				{Point: gengc.FaultTraceDrain, Kind: gengc.FaultDelay, P: 1, Delay: 10 * time.Microsecond},
				{Point: gengc.FaultSweepShard, Kind: gengc.FaultDelay, P: 0.2, Delay: 50 * time.Microsecond},
			},
			expect: func(rt *gengc.Runtime, in *gengc.FaultInjector, v *[]string) {
				if in.Fired(gengc.FaultTraceDrain) == 0 {
					*v = append(*v, "slowcollector: the TraceDrain point never fired")
				}
			},
		},
		{
			// Transient allocation failures: every injected OOM must be
			// absorbed by the collect-and-retry path (the workload
			// treats any surfaced allocation error as a violation).
			name: "oomspike",
			rules: []gengc.FaultRule{
				{Point: gengc.FaultAlloc, Kind: gengc.FaultFail, P: 0.002},
			},
			expect: func(rt *gengc.Runtime, in *gengc.FaultInjector, v *[]string) {
				if in.Fired(gengc.FaultAlloc) == 0 {
					*v = append(*v, "oomspike: the Alloc point never fired — campaign too short")
				}
			},
		},
		{
			// Allocation storm: an allocation-dominated mixed-size-class
			// workload hammers the tiered allocation path (cache refills,
			// flushes, sweep frees through the class shards) while
			// transient allocation failures and slow sweep shards fire.
			// The audit reads back the shard counters the path exports.
			name:  "allocstorm",
			storm: true,
			rules: []gengc.FaultRule{
				{Point: gengc.FaultAlloc, Kind: gengc.FaultFail, P: 0.001},
				{Point: gengc.FaultSweepShard, Kind: gengc.FaultDelay,
					P: 0.2, Delay: 50 * time.Microsecond},
			},
			expect: func(rt *gengc.Runtime, in *gengc.FaultInjector, v *[]string) {
				a := rt.Snapshot().Alloc
				if a.Refills == 0 {
					*v = append(*v, "allocstorm: zero central-shard refills — allocation path not exercised")
				}
				if a.CachedCells != 0 {
					*v = append(*v, fmt.Sprintf(
						"allocstorm: %d cells still cached after every mutator detached", a.CachedCells))
				}
				if a.FreeCells < 0 {
					*v = append(*v, fmt.Sprintf(
						"allocstorm: negative shard free-cell total %d", a.FreeCells))
				}
			},
		},
		{
			// Failing trace sink: every write errors; the collector
			// must degrade tracing and keep collecting.
			name: "failsink",
			sink: true,
			rules: []gengc.FaultRule{
				{Point: gengc.FaultSinkWrite, Kind: gengc.FaultFail},
			},
			expect: func(rt *gengc.Runtime, in *gengc.FaultInjector, v *[]string) {
				snap := rt.Snapshot()
				if !snap.TraceDegraded {
					*v = append(*v, "failsink: tracer did not degrade under a 100% failing sink")
				}
				if snap.Cycles == 0 {
					*v = append(*v, "failsink: no collection completed")
				}
			},
		},
	}
}

// runSchedule executes rounds of the soak under one schedule and audits
// between rounds. It returns the violations it found.
func runSchedule(s schedule, seed int64, mode gengc.Mode, mutators, rounds, ops int, verbose bool) []string {
	in := gengc.NewFaultInjector(seed)
	for _, r := range s.rules {
		in.Install(r)
	}
	opts := []gengc.Option{
		gengc.WithMode(mode),
		gengc.WithHeapBytes(16 << 20),
		gengc.WithYoungBytes(256 << 10),
		gengc.WithFlightRecorder(s.flight),
		gengc.WithStallTimeout(8 * time.Millisecond),
		gengc.WithFaultInjector(in),
	}
	if s.sink {
		opts = append(opts, gengc.WithTraceSink(gengc.NewJSONLTraceSink(io.Discard)))
	}
	rt, err := gengc.New(opts...)
	if err != nil {
		log.Fatalf("%s: %v", s.name, err)
	}
	audit := workload.Audit(rt)
	work := workload.RunMix
	if s.storm {
		work = workload.RunStorm
	}
	var violations []string
	for round := 0; round < rounds; round++ {
		// A driver mutator collects while the round's mutators run: every
		// mode gets cycles for the faults to hit (non-generational soaks
		// need not reach the full-collection trigger), each with at least
		// one attached mutator for the Cooperate point to hold.
		stop := make(chan struct{})
		driven := make(chan struct{})
		go func() {
			defer close(driven)
			m := rt.NewMutator()
			defer m.Detach()
			for {
				m.Collect(false)
				select {
				case <-stop:
					return
				default:
				}
			}
		}()
		err := work(rt, mutators, ops, seed^int64(round*1000))
		close(stop)
		<-driven
		if err != nil {
			violations = append(violations, fmt.Sprintf("%s round %d: %v", s.name, round, err))
		}
		// All mutators detached: the heap is quiescent. Settle with a
		// full collection, then audit everything.
		rt.Collect(true)
		if err := rt.Verify(); err != nil {
			violations = append(violations, fmt.Sprintf("%s round %d: Verify: %v", s.name, round, err))
		}
		if err := rt.VerifyCardInvariant(); err != nil {
			violations = append(violations, fmt.Sprintf("%s round %d: card invariant: %v", s.name, round, err))
		}
	}
	if n, err := audit(); n > 0 {
		violations = append(violations, fmt.Sprintf("%s: %d self-check violations, first: %v", s.name, n, err))
	}
	if s.expect != nil {
		s.expect(rt, in, &violations)
	}
	snap := rt.Snapshot()
	rt.Close()
	fmt.Printf("%-9s cycles=%-4d fulls=%-3d stalls=%-3d aborted=%d degraded=%-5v drops=%d\n",
		s.name, snap.Cycles, snap.Fulls, snap.Stalls, snap.AbortedCycles,
		snap.TraceDegraded, snap.TraceDrops)
	if verbose {
		for _, ps := range in.Stats() {
			if ps.Hits > 0 {
				fmt.Printf("  %-15s hits=%-7d fired=%d\n", ps.Point, ps.Hits, ps.Fired)
			}
		}
	}
	return violations
}

// runCloseRace is the shutdown leg: concurrent Closes race allocating
// mutators and a mid-flight collection; every allocator must come to
// rest with ErrClosed and Close must return.
func runCloseRace(seed int64, mode gengc.Mode, mutators int) []string {
	in := gengc.NewFaultInjector(seed)
	in.Install(gengc.FaultRule{Point: gengc.FaultCooperate, Kind: gengc.FaultDelay,
		P: 0.01, Delay: 5 * time.Millisecond})
	rt, err := gengc.New(
		gengc.WithMode(mode),
		gengc.WithHeapBytes(16<<20),
		gengc.WithYoungBytes(256<<10),
		gengc.WithStallTimeout(8*time.Millisecond),
		gengc.WithFaultInjector(in),
	)
	if err != nil {
		log.Fatalf("closerace: %v", err)
	}
	audit := workload.Audit(rt)
	var violations []string
	var mu sync.Mutex
	var wg sync.WaitGroup
	var settled atomic.Int64
	for id := 0; id < mutators; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			m := rt.NewMutator()
			defer m.Detach()
			mix := workload.NewMix(rt, m, seed+int64(id))
			for {
				if err := mix.Run(64); err != nil {
					if !errors.Is(err, gengc.ErrClosed) {
						mu.Lock()
						violations = append(violations,
							fmt.Sprintf("closerace: mutator %d: %v (want ErrClosed)", id, err))
						mu.Unlock()
					}
					settled.Add(1)
					return
				}
			}
		}(id)
	}
	time.Sleep(50 * time.Millisecond)
	done := make(chan struct{})
	go func() {
		var cwg sync.WaitGroup
		for i := 0; i < 3; i++ {
			cwg.Add(1)
			go func() { defer cwg.Done(); rt.Close() }()
		}
		cwg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		mu.Lock()
		defer mu.Unlock()
		return append(append([]string(nil), violations...),
			"closerace: Close did not return within 30s")
	}
	// Bounded like the Close wait: a mutator stuck in Alloc is reported
	// by the settled count instead of hanging the campaign. A straggler
	// may still append after the timeout, so read a copy under mu.
	settledAll := make(chan struct{})
	go func() { wg.Wait(); close(settledAll) }()
	select {
	case <-settledAll:
	case <-time.After(30 * time.Second):
	}
	mu.Lock()
	out := append([]string(nil), violations...)
	mu.Unlock()
	if got := settled.Load(); got != int64(mutators) {
		out = append(out,
			fmt.Sprintf("closerace: %d/%d allocators settled with ErrClosed within 30s", got, mutators))
	}
	if n, err := audit(); n > 0 {
		out = append(out, fmt.Sprintf("closerace: %d self-check violations, first: %v", n, err))
	}
	snap := rt.Snapshot()
	fmt.Printf("%-9s cycles=%-4d fulls=%-3d stalls=%-3d aborted=%d\n",
		"closerace", snap.Cycles, snap.Fulls, snap.Stalls, snap.AbortedCycles)
	return out
}

// runServerStorm is the overload leg: the admission-controlled request
// engine of internal/server runs an open-loop arrival storm well past
// the faulted runtime's capacity — injected safe-point stalls wedge
// collections while transient allocation failures and per-allocation
// delays slow every request. Graceful degradation is the assertion: the
// controller must shed the excess (never panic, never OOM), requests
// must still complete, and the flight recorder must have frozen at
// least one dump for the breach window.
func runServerStorm(seed int64, mode gengc.Mode) []string {
	in := gengc.NewFaultInjector(seed)
	in.Install(gengc.FaultRule{Point: gengc.FaultCooperate, Kind: gengc.FaultDelay,
		P: 0.02, Delay: 2 * time.Millisecond})
	in.Install(gengc.FaultRule{Point: gengc.FaultAlloc, Kind: gengc.FaultFail, P: 0.005})
	in.Install(gengc.FaultRule{Point: gengc.FaultAlloc, Kind: gengc.FaultDelay,
		P: 1, Delay: 20 * time.Microsecond})
	rt, err := gengc.New(
		gengc.WithMode(mode),
		gengc.WithHeapBytes(12<<20),
		gengc.WithYoungBytes(256<<10),
		gengc.WithStallTimeout(8*time.Millisecond),
		gengc.WithFlightRecorder(256),
		gengc.WithRequestSLO(25*time.Millisecond),
		gengc.WithAdmission(gengc.AdmissionConfig{MaxQueue: 16}),
		gengc.WithFaultInjector(in),
	)
	if err != nil {
		log.Fatalf("serverstorm: %v", err)
	}
	audit := workload.Audit(rt)
	srv := server.New(rt, server.Config{Workers: 4})
	load := server.RunLoad(context.Background(), srv, server.LoadConfig{
		Rate:        5000,
		Duration:    400 * time.Millisecond,
		BurstEvery:  100 * time.Millisecond,
		BurstLen:    25 * time.Millisecond,
		BurstFactor: 3,
		LowFraction: 0.3,
		// The deadline is generous so requests taken off the top of the
		// 16-deep stack survive race-detector slowdown: the storm's
		// assertion is "shed the excess, complete the rest", and a
		// too-tight deadline would starve the second half on slow hosts.
		Template: server.Request{Objects: 64, Slots: 2, Size: 128,
			Deadline: 100 * time.Millisecond},
		Seed: seed,
	})
	var violations []string
	drainCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Drain(drainCtx); err != nil {
		violations = append(violations, fmt.Sprintf("serverstorm: drain: %v", err))
		return violations
	}
	st := srv.Stats()
	if st.Shed == 0 {
		violations = append(violations, fmt.Sprintf(
			"serverstorm: %d offered arrivals but nothing shed — the storm never saturated admission",
			load.Offered))
	}
	if st.Completed == 0 {
		violations = append(violations, "serverstorm: no request completed under the storm")
	}
	if st.FailedOOM > 0 {
		violations = append(violations, fmt.Sprintf(
			"serverstorm: %d OOM failures — admission must shed before the heap gives out", st.FailedOOM))
	}
	if fr := rt.FlightRecorder(); fr == nil || fr.DumpCount() == 0 {
		violations = append(violations,
			"serverstorm: sheds fired but the flight recorder froze no dump for the breach window")
	}
	if n, err := audit(); n > 0 {
		violations = append(violations, fmt.Sprintf("serverstorm: %d self-check violations, first: %v", n, err))
	}
	snap := rt.Snapshot()
	fmt.Printf("%-9s cycles=%-4d fulls=%-3d stalls=%-3d offered=%-6d done=%-6d shed=%-6d degraded=%d\n",
		"serverstorm", snap.Cycles, snap.Fulls, snap.Stalls,
		load.Offered, st.Completed, st.Shed, snap.Admission.DegradedEnters)
	return violations
}

func main() {
	var (
		modeStr  = flag.String("mode", "gen", "collector: non|gen|aging")
		seed     = flag.Int64("seed", 1, "campaign seed (the whole fault schedule derives from it)")
		mutators = flag.Int("mutators", 4, "mutator goroutines per schedule")
		rounds   = flag.Int("rounds", 2, "churn+audit rounds per schedule")
		ops      = flag.Int("ops", 3000, "operations per mutator per round")
		verbose  = flag.Bool("v", false, "print per-point injection statistics")
	)
	flag.Parse()
	mode, err := workload.ParseMode(*modeStr)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("gcchaos: seed=%d mode=%s mutators=%d rounds=%d ops=%d\n",
		*seed, mode, *mutators, *rounds, *ops)
	var violations []string
	for i, s := range schedules() {
		// Each schedule gets its own deterministic sub-seed so adding a
		// schedule does not perturb the others.
		violations = append(violations,
			runSchedule(s, *seed*1000003+int64(i), mode, *mutators, *rounds, *ops, *verbose)...)
	}
	violations = append(violations, runCloseRace(*seed*1000003+997, mode, *mutators)...)
	violations = append(violations, runServerStorm(*seed*1000003+1009, mode)...)

	if len(violations) > 0 {
		fmt.Fprintf(os.Stderr, "gcchaos: %d violation(s):\n", len(violations))
		for _, v := range violations {
			fmt.Fprintf(os.Stderr, "  %s\n", v)
		}
		os.Exit(1)
	}
	fmt.Println("gcchaos: OK")
}
