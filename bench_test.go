package gengc_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"gengc"
	"gengc/internal/workload"
)

// The benchmarks below regenerate the measurement behind every table and
// figure of the paper's evaluation (§8) at a reduced scale — cmd/gcbench
// runs the full-size versions and prints the paper-format tables. Each
// figure benchmark reports the headline quantity as a custom metric
// (improvement percentage, pages touched, ...), so `go test -bench=.`
// doubles as a compact reproduction run.

// benchScale keeps a single benchmark iteration around 50–300 ms.
const benchScale = 0.06

// benchPageCost is the simulated memory cost used by the harness.
const benchPageCost = 4000

func benchConfig(mode gengc.Mode, young, card int) gengc.Config {
	return gengc.Config{Mode: mode, YoungBytes: young, CardBytes: card, PageCostSpins: benchPageCost}
}

// runPair measures a gen/non-gen pair once and returns elapsed times.
func runPair(b *testing.B, p workload.Profile, genCfg gengc.Config, seed int64) (gen, non time.Duration) {
	b.Helper()
	nonCfg := genCfg
	nonCfg.Mode = gengc.NonGenerational
	rg, err := workload.Run(p, genCfg, seed)
	if err != nil {
		b.Fatal(err)
	}
	rn, err := workload.Run(p, nonCfg, seed)
	if err != nil {
		b.Fatal(err)
	}
	return rg.Elapsed, rn.Elapsed
}

// reportImprovement accumulates pair timings across b.N and reports the
// aggregate improvement percentage.
func benchImprovement(b *testing.B, p workload.Profile, genCfg gengc.Config) {
	p = p.Scale(benchScale)
	var gen, non time.Duration
	for i := 0; i < b.N; i++ {
		g, n := runPair(b, p, genCfg, int64(42+i*1000))
		gen += g
		non += n
	}
	if non > 0 {
		b.ReportMetric(100*float64(non-gen)/float64(non), "improvement_%")
	}
}

// BenchmarkFig07 regenerates Figure 7: the multithreaded Ray Tracer
// improvement by thread count.
func BenchmarkFig07(b *testing.B) {
	for _, threads := range []int{2, 4, 6, 8, 10} {
		b.Run(fmt.Sprintf("threads=%d", threads), func(b *testing.B) {
			benchImprovement(b, workload.MTRayTracer(threads),
				benchConfig(gengc.Generational, 4<<20, 16))
		})
	}
}

// BenchmarkFig08 regenerates Figure 8: the Anagram improvement.
func BenchmarkFig08(b *testing.B) {
	benchImprovement(b, workload.Anagram(), benchConfig(gengc.Generational, 4<<20, 16))
}

// BenchmarkFig09 regenerates Figure 9: SPECjvm improvements.
func BenchmarkFig09(b *testing.B) {
	for _, p := range workload.SPEC() {
		b.Run(p.Name, func(b *testing.B) {
			benchImprovement(b, p, benchConfig(gengc.Generational, 4<<20, 16))
		})
	}
}

// BenchmarkFig10to15 regenerates the characterization runs behind
// Figures 10–15, reporting the per-partial pages touched (Figure 15's
// quantity) and the GC-active share (Figure 10's).
func BenchmarkFig10to15(b *testing.B) {
	for _, p := range append(workload.SPEC(), workload.Anagram()) {
		b.Run(p.Name, func(b *testing.B) {
			cfg := benchConfig(gengc.Generational, 4<<20, 16)
			cfg.TrackPages = true
			var pages, gcPct float64
			pp := p.Scale(benchScale)
			for i := 0; i < b.N; i++ {
				res, err := workload.Run(pp, cfg, int64(42+i))
				if err != nil {
					b.Fatal(err)
				}
				pages += res.Summary.AvgPagesPartial
				gcPct += res.Summary.GCActivePct
			}
			b.ReportMetric(pages/float64(b.N), "pages/partial")
			b.ReportMetric(gcPct/float64(b.N), "gc_%")
		})
	}
}

// BenchmarkFig16 regenerates Figure 16: young-size tuning for the Ray
// Tracer (corner points of the sweep; gcbench runs the full grid).
func BenchmarkFig16(b *testing.B) {
	for _, card := range []int{4096, 16} {
		for _, young := range []int{1 << 20, 8 << 20} {
			b.Run(fmt.Sprintf("card=%d/young=%dm", card, young>>20), func(b *testing.B) {
				benchImprovement(b, workload.MTRayTracer(4),
					benchConfig(gengc.Generational, young, card))
			})
		}
	}
}

// BenchmarkFig17 regenerates Figure 17: young-size tuning for SPECjvm
// (javac shown; gcbench runs all benchmarks).
func BenchmarkFig17(b *testing.B) {
	for _, young := range []int{1 << 20, 2 << 20, 4 << 20, 8 << 20} {
		b.Run(fmt.Sprintf("javac/young=%dm", young>>20), func(b *testing.B) {
			benchImprovement(b, workload.Javac(), benchConfig(gengc.Generational, young, 16))
		})
	}
}

// BenchmarkFig18and19 regenerates Figures 18–19: the aging mechanism at
// the paper's tenure thresholds.
func BenchmarkFig18and19(b *testing.B) {
	for _, age := range []int{4, 6, 8, 10} {
		b.Run(fmt.Sprintf("jess/age=%d", age), func(b *testing.B) {
			cfg := benchConfig(gengc.GenerationalAging, 4<<20, 16)
			cfg.OldAge = age - 1 // paper counts ages from 1
			benchImprovement(b, workload.Jess(), cfg)
		})
	}
}

// BenchmarkFig20 regenerates Figure 20: the overhead of aging with two
// ages over simple promotion (positive = aging faster).
func BenchmarkFig20(b *testing.B) {
	for _, p := range []workload.Profile{workload.Jess(), workload.Javac()} {
		b.Run(p.Name, func(b *testing.B) {
			pp := p.Scale(benchScale)
			agingCfg := benchConfig(gengc.GenerationalAging, 4<<20, 16)
			agingCfg.OldAge = 1
			simpleCfg := benchConfig(gengc.Generational, 4<<20, 16)
			var aging, simple time.Duration
			for i := 0; i < b.N; i++ {
				ra, err := workload.Run(pp, agingCfg, int64(42+i))
				if err != nil {
					b.Fatal(err)
				}
				rs, err := workload.Run(pp, simpleCfg, int64(42+i))
				if err != nil {
					b.Fatal(err)
				}
				aging += ra.Elapsed
				simple += rs.Elapsed
			}
			b.ReportMetric(100*float64(simple-aging)/float64(simple), "aging_vs_simple_%")
		})
	}
}

// BenchmarkFig21to23 regenerates the card-size sweep behind Figures
// 21–23, reporting dirty-card percentage (Fig 22) and scanned area
// (Fig 23) alongside the timing.
func BenchmarkFig21to23(b *testing.B) {
	for _, card := range []int{16, 64, 256, 1024, 4096} {
		b.Run(fmt.Sprintf("jess/card=%d", card), func(b *testing.B) {
			cfg := benchConfig(gengc.Generational, 4<<20, card)
			pp := workload.Jess().Scale(benchScale)
			var dirty, area float64
			for i := 0; i < b.N; i++ {
				res, err := workload.Run(pp, cfg, int64(42+i))
				if err != nil {
					b.Fatal(err)
				}
				dirty += res.Summary.AvgDirtyCardPct
				area += res.Summary.AvgAreaScanned
			}
			b.ReportMetric(dirty/float64(b.N), "dirty_%")
			b.ReportMetric(area/float64(b.N)/1024, "areaKB")
		})
	}
}

// --- Micro-benchmarks of the collector's hot paths ---

// BenchmarkWriteBarrier measures the mutator-visible Update cost per
// mode during the idle (async, not tracing) phase — the common case.
func BenchmarkWriteBarrier(b *testing.B) {
	for _, mode := range []gengc.Mode{gengc.NonGenerational, gengc.Generational, gengc.GenerationalAging} {
		b.Run(mode.String(), func(b *testing.B) {
			rt, err := gengc.NewManual(gengc.WithConfig(gengc.Config{Mode: mode, HeapBytes: 8 << 20}))
			if err != nil {
				b.Fatal(err)
			}
			m := rt.NewMutator()
			x := m.MustAlloc(2, 0)
			y := m.MustAlloc(0, 32)
			m.PushRoot(x)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Write(x, i&1, y)
			}
		})
	}
}

// BenchmarkAlloc measures the allocation fast path.
func BenchmarkAlloc(b *testing.B) {
	rt, err := gengc.NewManual(gengc.WithConfig(gengc.Config{Mode: gengc.Generational, HeapBytes: 64 << 20, YoungBytes: 32 << 20}))
	if err != nil {
		b.Fatal(err)
	}
	m := rt.NewMutator()
	r := m.PushRoot(gengc.Nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, err := m.Alloc(1, 48)
		if err != nil {
			// Heap full of garbage: reclaim synchronously and go on.
			b.StopTimer()
			m.Collect(true)
			b.StartTimer()
			continue
		}
		m.SetRoot(r, a)
	}
}

// BenchmarkSafepoint measures the no-op Cooperate fast path.
func BenchmarkSafepoint(b *testing.B) {
	rt, err := gengc.NewManual(gengc.WithConfig(gengc.Config{Mode: gengc.Generational}))
	if err != nil {
		b.Fatal(err)
	}
	m := rt.NewMutator()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Safepoint()
	}
}

// BenchmarkPartialCollection measures a partial cycle over a live list
// plus fresh garbage.
func BenchmarkPartialCollection(b *testing.B) {
	benchCollection(b, false)
}

// BenchmarkFullCollection measures a full cycle on the same setup.
func BenchmarkFullCollection(b *testing.B) {
	benchCollection(b, true)
}

func benchCollection(b *testing.B, full bool) {
	rt, err := gengc.NewManual(gengc.WithConfig(gengc.Config{Mode: gengc.Generational, HeapBytes: 32 << 20}))
	if err != nil {
		b.Fatal(err)
	}
	m := rt.NewMutator()
	head := m.MustAlloc(1, 0)
	m.PushRoot(head)
	for i := 0; i < 5000; i++ {
		n := m.MustAlloc(1, 48)
		m.Write(n, 0, m.Read(head, 0))
		m.Write(head, 0, n)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for j := 0; j < 2000; j++ {
			m.MustAlloc(0, 48) // garbage for this cycle
		}
		b.StartTimer()
		m.Collect(full)
	}
}

// BenchmarkParallelCollection measures the elapsed time of on-the-fly
// collection cycles while four mutator threads churn out garbage in
// parallel over a large live graph. Non-generational mode makes every
// cycle trace the full live set, so the one collector thread's share of
// the machine, competing with the churning mutators, is what bounds the
// cycle length. Each b.N counts one completed background cycle;
// avg_cycle_ms and max_cycle_ms report the collector's clear-to-sweep-end
// elapsed time.
func BenchmarkParallelCollection(b *testing.B) {
	const (
		liveChains = 256 // one per global root slot
		chainNodes = 3000
	)
	rt, err := gengc.New(
		gengc.WithMode(gengc.NonGenerational),
		gengc.WithHeapBytes(128<<20),
	)
	if err != nil {
		b.Fatal(err)
	}
	defer rt.Close()

	// A wide long-lived graph (~35 MB) published to global
	// roots: every cycle has a substantial trace, as in a
	// program with a real live set. The builder detaches before
	// measuring so only the churning mutators handshake.
	builder := rt.NewMutator()
	heads := make([]int, liveChains)
	for i := range heads {
		heads[i] = builder.PushRoot(builder.MustAlloc(1, 16))
	}
	for i := 0; i < liveChains*chainNodes; i++ {
		c := i % liveChains
		n := builder.MustAlloc(1, 32)
		builder.Write(n, 0, builder.Root(heads[c]))
		builder.SetRoot(heads[c], n)
		builder.Safepoint()
	}
	for i, h := range heads {
		rt.SetGlobal(builder, i, builder.Root(h))
	}
	builder.Detach()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for t := 0; t < 4; t++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			m := rt.NewMutator()
			defer m.Detach()
			rng := rand.New(rand.NewSource(seed))
			const window = 64
			slots := make([]int, window)
			for i := range slots {
				slots[i] = m.PushRoot(gengc.Nil)
			}
			// A private long-lived chain gives the mutator compute
			// work between heap updates: programs read far more than
			// they allocate, and an alloc-only mutator parks on the
			// allocation wall mid-cycle, handing the whole processor
			// to the collector. Chasing pointers keeps the mutators
			// runnable, competing with the collector for scheduler
			// time throughout the cycle.
			const chainLen = 4096
			priv := m.PushRoot(m.MustAlloc(1, 16))
			for i := 1; i < chainLen; i++ {
				n := m.MustAlloc(1, 16)
				m.Write(n, 0, m.Root(priv))
				m.SetRoot(priv, n)
			}
			for {
				select {
				case <-stop:
					return
				default:
				}
				m.Safepoint()
				i := slots[rng.Intn(window)]
				switch rng.Intn(8) {
				case 0, 1, 2, 3, 4: // churn: replace a rooted chain head
					n := m.MustAlloc(1, 16+rng.Intn(64))
					m.Write(n, 0, m.Root(i))
					m.SetRoot(i, n)
				case 5: // drop a chain
					m.SetRoot(i, gengc.Nil)
				default: // pure garbage
					m.MustAlloc(0, 32)
				}
				for x, s := m.Root(priv), 0; s < 512 && x != gengc.Nil; s++ {
					x = m.Read(x, 0)
				}
			}
		}(int64(t))
	}

	base := int(rt.Stats().NumCycles)
	b.ResetTimer()
	for int(rt.Stats().NumCycles)-base < b.N {
		time.Sleep(500 * time.Microsecond)
	}
	b.StopTimer()
	close(stop)
	wg.Wait()

	cycles := rt.Cycles()
	if len(cycles) > base {
		cycles = cycles[base:]
	}
	if len(cycles) > b.N {
		cycles = cycles[:b.N]
	}
	var total, max, sync, trace, sweep time.Duration
	scanned := 0
	for _, c := range cycles {
		total += c.Duration
		if c.Duration > max {
			max = c.Duration
		}
		sync += c.HandshakeTime
		trace += c.TraceTime
		sweep += c.SweepTime
		scanned += c.ObjectsScanned
	}
	if n := len(cycles); n > 0 {
		b.ReportMetric(float64(scanned)/float64(n), "objs/cycle")
	}
	if n := len(cycles); n > 0 {
		b.ReportMetric(total.Seconds()*1000/float64(n), "avg_cycle_ms")
		b.ReportMetric(max.Seconds()*1000, "max_cycle_ms")
		b.ReportMetric(sync.Seconds()*1000/float64(n), "avg_sync_ms")
		b.ReportMetric(trace.Seconds()*1000/float64(n), "avg_trace_ms")
		b.ReportMetric(sweep.Seconds()*1000/float64(n), "avg_sweep_ms")
	}
}
