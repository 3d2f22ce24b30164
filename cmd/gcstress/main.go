// Command gcstress soak-tests the collector: several mutator goroutines
// randomly build, mutate, share and drop object graphs while the
// on-the-fly collector runs, with periodic full-heap verification
// (reachability audit, allocator integrity, card invariant).
//
//	gcstress -mode aging -threads 8 -ops 2000000 -verify-every 20
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"sync"
	"time"

	"gengc"
)

func parseMode(s string) (gengc.Mode, error) {
	switch s {
	case "non", "nongen", "non-generational":
		return gengc.NonGenerational, nil
	case "gen", "generational", "simple":
		return gengc.Generational, nil
	case "aging":
		return gengc.GenerationalAging, nil
	}
	return 0, fmt.Errorf("unknown mode %q (non|gen|aging)", s)
}

func main() {
	var (
		modeStr     = flag.String("mode", "gen", "collector: non|gen|aging")
		threads     = flag.Int("threads", 4, "mutator goroutines")
		ops         = flag.Int("ops", 500000, "operations per mutator")
		heapMB      = flag.Int("heap", 16, "heap size in MB")
		youngKB     = flag.Int("young", 512, "young generation size in KB")
		cardBytes   = flag.Int("card", 16, "card size in bytes")
		oldAge      = flag.Int("age", 3, "aging tenure threshold")
		seed        = flag.Int64("seed", time.Now().UnixNano(), "random seed")
		rounds      = flag.Int("rounds", 4, "verification rounds (workload is split across them)")
		globalSlots = flag.Int("globals", 64, "global root slots exercised")
		traceOut    = flag.String("trace", "", "write a JSONL event trace to this file (render with gcreport)")
	)
	flag.Parse()

	mode, err := parseMode(*modeStr)
	if err != nil {
		log.Fatal(err)
	}
	opts := []gengc.Option{
		gengc.WithMode(mode),
		gengc.WithHeapBytes(*heapMB << 20),
		gengc.WithYoungBytes(*youngKB << 10),
		gengc.WithCardBytes(*cardBytes),
		gengc.WithOldAge(*oldAge),
	}
	var sink *gengc.JSONLTraceSink
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close() // after rt.Close's final flush (defers run LIFO)
		sink = gengc.NewJSONLTraceSink(f)
		opts = append(opts, gengc.WithTraceSink(sink))
	}
	rt, err := gengc.New(opts...)
	if err != nil {
		log.Fatal(err)
	}
	defer rt.Close()

	fmt.Printf("gcstress: %v heap=%dMB young=%dKB card=%dB threads=%d ops=%d seed=%d\n",
		mode, *heapMB, *youngKB, *cardBytes, *threads, *ops, *seed)

	opsPerRound := *ops / *rounds
	start := time.Now()
	for round := 0; round < *rounds; round++ {
		var wg sync.WaitGroup
		fail := false
		var mu sync.Mutex
		for w := 0; w < *threads; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				if err := stress(rt, *seed+int64(round*1000+w), opsPerRound, *globalSlots); err != nil {
					mu.Lock()
					fail = true
					fmt.Fprintf(os.Stderr, "worker %d: %v\n", w, err)
					mu.Unlock()
				}
			}(w)
		}
		wg.Wait()
		if fail {
			os.Exit(1)
		}
		if err := rt.Verify(); err != nil {
			fmt.Fprintf(os.Stderr, "VERIFICATION FAILED (round %d): %v\n", round, err)
			os.Exit(1)
		}
		if err := rt.VerifyCardInvariant(); err != nil {
			fmt.Fprintf(os.Stderr, "CARD INVARIANT FAILED (round %d): %v\n", round, err)
			os.Exit(1)
		}
		st := rt.Stats()
		fmt.Printf("round %d ok: %d cycles (%d full), %d objects freed, heap %d KB\n",
			round+1, st.NumCycles, st.NumFull, st.ObjectsFreed, rt.HeapBytes()/1024)
	}
	rt.Close() // idempotent; flushes the final trace events before the sink check
	if snap := rt.Snapshot(); snap.Fleet.Count > 0 {
		fmt.Printf("mutator pauses: %d recorded, p50=%v p99=%v p99.9=%v max=%v\n",
			snap.Fleet.Count, snap.Fleet.P50, snap.Fleet.P99,
			snap.Fleet.P999, snap.Fleet.Max)
	}
	if sink != nil {
		if err := sink.Err(); err != nil {
			log.Fatalf("writing trace: %v", err)
		}
		fmt.Fprintf(os.Stderr, "trace written to %s (render with: gcreport %s)\n",
			*traceOut, *traceOut)
	}
	fmt.Printf("PASS in %v\n", time.Since(start).Round(time.Millisecond))
}

// stress is one worker's random workload for a round.
func stress(rt *gengc.Runtime, seed int64, ops, globalSlots int) error {
	m := rt.NewMutator()
	defer m.Detach()
	rng := rand.New(rand.NewSource(seed))

	const window = 128
	slots := make([]int, window)
	for i := range slots {
		slots[i] = m.PushRoot(gengc.Nil)
	}
	for op := 0; op < ops; op++ {
		m.Safepoint()
		i := slots[rng.Intn(window)]
		switch rng.Intn(12) {
		case 0, 1, 2, 3, 4: // allocate
			size := 16 + rng.Intn(240)
			if rng.Intn(400) == 0 {
				size = 4096 * (1 + rng.Intn(3)) // occasional large object
			}
			n, err := m.Alloc(rng.Intn(5), size)
			if err != nil {
				return fmt.Errorf("alloc: %w", err)
			}
			m.SetRoot(i, n)
		case 5, 6: // link
			x, y := m.Root(i), m.Root(slots[rng.Intn(window)])
			if x != gengc.Nil && m.Slots(x) > 0 {
				m.Write(x, rng.Intn(m.Slots(x)), y)
			}
		case 7: // unlink
			if x := m.Root(i); x != gengc.Nil && m.Slots(x) > 0 {
				m.Write(x, rng.Intn(m.Slots(x)), gengc.Nil)
			}
		case 8: // drop
			m.SetRoot(i, gengc.Nil)
		case 9: // chase and re-root
			x := m.Root(i)
			for d := 0; d < 6 && x != gengc.Nil && m.Slots(x) > 0; d++ {
				x = m.Read(x, rng.Intn(m.Slots(x)))
			}
			if x != gengc.Nil {
				m.SetRoot(slots[rng.Intn(window)], x)
			}
		case 10: // globals
			g := rng.Intn(globalSlots)
			if rng.Intn(2) == 0 {
				rt.SetGlobal(m, g, m.Root(i))
			} else {
				m.SetRoot(i, rt.Global(g))
			}
		case 11: // consistency probe on a reachable object
			if x := m.Root(i); x != gengc.Nil {
				if s := m.Slots(x); s < 0 || s > 64 {
					return fmt.Errorf("object %#x has implausible slot count %d", x, s)
				}
			}
		}
	}
	return nil
}
