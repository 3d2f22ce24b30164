// Command gctrace runs one benchmark profile with a per-cycle GC event
// log and prints the final characterization — the single-run view behind
// the paper's Figures 10–15.
//
//	gctrace -profile _213_javac -mode gen -scale 0.5
//	gctrace -list
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"gengc"
	"gengc/internal/bench"
	"gengc/internal/metrics"
	"gengc/internal/workload"
)

func main() {
	var (
		profile  = flag.String("profile", "Anagram", "workload profile")
		modeStr  = flag.String("mode", "gen", "collector: non|gen|aging")
		scale    = flag.Float64("scale", 0.5, "run-length multiplier")
		cardSize = flag.Int("card", 16, "card size in bytes")
		youngMB  = flag.Int("young", 4, "young generation size in MB")
		oldAge   = flag.Int("age", 0, "aging tenure threshold (0 = default)")
		seed     = flag.Int64("seed", 42, "workload seed")
		traceOut = flag.String("trace", "", "write a JSONL event trace to this file (render with gcreport)")
		list     = flag.Bool("list", false, "list profiles and exit")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile taken at the end of the run to this file")
	)
	flag.Parse()

	if *list {
		for _, p := range workload.All() {
			fmt.Printf("%-14s threads=%d ops=%d alloc=%.0f%% survivors=%.1f%% oldupd=%.2f%%\n",
				p.Name, p.Threads, p.OpsPerThread, 100*p.AllocFrac,
				100*p.SurvivorFrac, 100*p.OldUpdateFrac)
		}
		return
	}

	mode, err := workload.ParseMode(*modeStr)
	if err != nil {
		log.Fatal(err)
	}

	p, ok := workload.ByName(*profile)
	if !ok {
		log.Fatalf("unknown profile %q (use -list)", *profile)
	}
	p = p.Scale(*scale)

	// Stream each cycle's record to stderr as it completes: the live
	// event log behind the final characterization below. The callback
	// runs on the collector goroutine via Runtime.OnCycle.
	start := time.Now()
	streamCycle := func(c metrics.Cycle) {
		fmt.Fprintf(os.Stderr, "[%9.2fms] cycle %d (%v): scanned %d objects / %d slots, freed %d objects (%d KB), %d dirty cards\n",
			time.Since(start).Seconds()*1000, c.Seq, c.Kind,
			c.ObjectsScanned, c.SlotsScanned, c.ObjectsFreed, c.BytesFreed/1024, c.DirtyCards)
	}

	ropts := []workload.RunOption{workload.OnCycle(streamCycle)}
	var sink *gengc.JSONLTraceSink
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		sink = gengc.NewJSONLTraceSink(f)
		ropts = append(ropts, workload.TraceTo(sink))
	}

	stopProfiles, err := bench.StartProfiles(*cpuProf, *memProf)
	if err != nil {
		log.Fatal(err)
	}
	res, err := workload.Run(p, gengc.Config{
		Mode:       mode,
		CardBytes:  *cardSize,
		YoungBytes: *youngMB << 20,
		OldAge:     *oldAge,
		TrackPages: true,
	}, *seed, ropts...)
	if perr := stopProfiles(); perr != nil {
		log.Printf("writing profile: %v", perr)
	}
	if err != nil {
		log.Fatal(err)
	}
	if sink != nil {
		if err := sink.Err(); err != nil {
			log.Fatalf("writing trace: %v", err)
		}
		fmt.Fprintf(os.Stderr, "trace written to %s (render with: gcreport %s)\n",
			*traceOut, *traceOut)
	}

	s := res.Summary
	fmt.Printf("\n%s under %v: elapsed %v, %d ops, %d allocations (%d KB)\n",
		res.Profile, res.Mode, res.Elapsed.Round(time.Millisecond), res.Ops, res.Allocs, res.AllocedB/1024)
	fmt.Printf("collections: %d partial + %d full, GC active %.1f%% of elapsed time\n",
		s.NumPartial, s.NumFull, s.GCActivePct)
	if s.NumPartial > 0 {
		n, part := float64(s.NumPartial), s.Totals[metrics.Partial].Sum
		sync := part.Sync1Time + part.Sync2Time + part.Sync3Time
		fmt.Printf("per partial: %.0f objects scanned (%.0f inter-generational), %.0f freed, "+
			"%.1f%% dirty cards, %.0f KB card area, %.0f pages (card scan %.0f, trace %.0f, sweep %.0f), "+
			"%.1f ms (handshakes %.2f ms, ack %.2f ms)\n",
			s.AvgScannedPartial, s.AvgInterGenScanned, s.AvgFreedObjsPartial,
			s.AvgDirtyCardPct, s.AvgAreaScanned/1024, s.AvgPagesPartial,
			float64(part.CardScanPages)/n, float64(part.TracePages)/n, float64(part.SweepPages)/n,
			s.AvgTimePartial.Seconds()*1000, sync.Seconds()*1000/n, part.AckTime.Seconds()*1000/n)
		fmt.Printf("young mortality: %.1f%% of objects, %.1f%% of bytes freed by partials\n",
			s.PctObjsFreedPartial, s.PctBytesFreedPartial)
	}
	if s.NumFull > 0 {
		fmt.Printf("per full: %.0f objects scanned, %.0f freed, %.0f pages, %.1f ms\n",
			s.AvgScannedFull, s.AvgFreedObjsFull, s.AvgPagesFull,
			s.AvgTimeFull.Seconds()*1000)
	}
	if pp := res.Pauses; pp.Count > 0 {
		fmt.Printf("mutator pauses: %d recorded, p50=%v p99=%v p99.9=%v max=%v\n",
			pp.Count, pp.P50, pp.P99, pp.P999, pp.Max)
	}
	// Final heap census (quiescent: the workload has completed; the
	// final in-flight collection usually empties the heap of all but
	// the runtime's global-roots object).
	cs := res.Census
	fmt.Printf("final heap: %d objects (%d KB), %d class blocks, %d large blocks, %.1f%% utilization\n",
		cs.Objects, cs.ObjectBytes/1024, cs.ClassBlocks, cs.LargeBlocks, 100*cs.Utilization())
}
