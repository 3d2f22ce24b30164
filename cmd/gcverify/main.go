// Command gcverify runs the deterministic protocol-verification
// harness (internal/modelcheck): each named scenario is a micro-heap
// workload whose collector/mutator interleavings are enumerated
// bounded-exhaustively — every schedule with at most -preempt
// preemptions, up to -depth steps — under a virtual scheduler, with
// the collector's shared invariants asserted after every step of every
// schedule and the scenario's needle object audited at the end.
//
//	gcverify -scenario all                 # verify every scenario
//	gcverify -scenario shade-vs-ack -v     # one scenario, per-run detail
//	gcverify -list                         # what exists, and why
//
// A violation writes a minimized, replayable schedule to -out and
// exits 1. Replaying it (here or on another machine — the run is a
// pure function of the choice sequence) re-executes the exact failing
// interleaving:
//
//	gcverify -replay gcverify-replay.json
//
// -break no-sync-accept drops §7.1's allocation-color acceptance from
// the sync-window write barrier (the yellow window between the card
// scan and the color toggle) so the harness can demonstrate a catch;
// the verify-protocol make target runs that negative leg on
// sync-store-race and requires the failure.
//
// Exit status: 0 all explored schedules clean, 1 violation found (or
// replay reproduced), 2 usage or internal error.
package main

import (
	"flag"
	"fmt"
	"os"

	"gengc/internal/modelcheck"
)

func main() {
	var (
		scenario = flag.String("scenario", "all", "scenario name or \"all\"")
		list     = flag.Bool("list", false, "list scenarios and exit")
		depth    = flag.Int("depth", 400, "per-run step bound")
		preempt  = flag.Int("preempt", 1, "preemption bound (CHESS-style; forced switches are free)")
		maxRuns  = flag.Int("maxruns", 50000, "exploration run cap (reported as truncated when hit)")
		breakStr = flag.String("break", "", "re-introduce a bug the paper argues about: no-sync-accept")
		replay   = flag.String("replay", "", "replay a failing schedule from this file instead of exploring")
		out      = flag.String("out", "gcverify-replay.json", "where a violation's minimized schedule is written")
		verbose  = flag.Bool("v", false, "print the minimized schedule on failure")
	)
	flag.Parse()

	if *list {
		for _, sc := range modelcheck.Scenarios() {
			fmt.Printf("%-20s %s\n", sc.Name, sc.Description)
		}
		return
	}

	if *replay != "" {
		os.Exit(runReplay(*replay, *verbose))
	}

	opts := modelcheck.Options{Depth: *depth, Preempt: *preempt, MaxRuns: *maxRuns}
	switch *breakStr {
	case "":
	case "no-sync-accept":
		opts.BreakSyncAccept = true
	default:
		fmt.Fprintf(os.Stderr, "gcverify: unknown -break mode %q (want no-sync-accept)\n", *breakStr)
		os.Exit(2)
	}

	var scenarios []*modelcheck.Scenario
	if *scenario == "all" {
		scenarios = modelcheck.Scenarios()
	} else {
		sc, err := modelcheck.ByName(*scenario)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gcverify: %v (use -list)\n", err)
			os.Exit(2)
		}
		scenarios = []*modelcheck.Scenario{sc}
	}

	failed := false
	for _, sc := range scenarios {
		rep, err := modelcheck.Explore(sc, opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gcverify: %s: %v\n", sc.Name, err)
			os.Exit(2)
		}
		status := "ok"
		if rep.Truncated {
			status = "TRUNCATED"
		}
		if rep.Violation != nil {
			status = "VIOLATION"
		}
		fmt.Printf("%-20s %-9s runs=%-6d pruned=%d(sleep)+%d(preempt) maxSteps=%d maxVTime=%v depth=%d preempt=%d\n",
			sc.Name, status, rep.Runs, rep.SleepPruned, rep.PreemptSkipped,
			rep.MaxSteps, rep.MaxVTime, opts.Depth, opts.Preempt)
		if rep.DepthCapped > 0 {
			fmt.Printf("%-20s           %d runs hit the depth bound\n", "", rep.DepthCapped)
		}
		if rep.PrefixMismatches > 0 {
			fmt.Printf("%-20s           %d prefix mismatches — determinism is broken\n", "", rep.PrefixMismatches)
			failed = true
		}
		if rep.Violation != nil {
			failed = true
			v := rep.Violation
			fmt.Printf("  violation: %s\n", v.Message)
			fmt.Printf("  minimized: prefix %d of %d choices (%d minimization runs)\n",
				v.PrefixLen, len(v.Schedule), v.MinRuns)
			if *verbose {
				for i, ch := range v.Schedule {
					marker := " "
					if i == v.PrefixLen-1 {
						marker = "<" // last controlled choice; the rest is the default policy
					}
					fmt.Printf("    %3d %s %v\n", i, marker, ch)
				}
			}
			r := modelcheck.NewReplay(rep, opts)
			if err := r.WriteFile(*out); err != nil {
				fmt.Fprintf(os.Stderr, "gcverify: writing %s: %v\n", *out, err)
				os.Exit(2)
			}
			fmt.Printf("  replay written to %s\n", *out)
		}
	}
	if failed {
		os.Exit(1)
	}
}

// runReplay re-executes a recorded failing schedule and reports
// whether it still reproduces. Exit codes mirror exploration: 1 means
// the violation reproduced (the expected outcome for a fresh replay
// file), 0 means it did not.
func runReplay(path string, verbose bool) int {
	r, err := modelcheck.LoadReplay(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gcverify: %v\n", err)
		return 2
	}
	res, err := r.Run()
	if err != nil {
		fmt.Fprintf(os.Stderr, "gcverify: replay: %v\n", err)
		return 2
	}
	if verbose {
		for i, ch := range res.Schedule() {
			fmt.Printf("  %3d %v\n", i, ch)
		}
	}
	if res.PrefixMismatch {
		fmt.Printf("%s: STALE replay — recorded choices no longer match the enabled sets\n", r.Scenario)
		return 2
	}
	if res.Violation != "" {
		fmt.Printf("%s: reproduced in %d steps: %s\n", r.Scenario, res.Steps, res.Violation)
		return 1
	}
	fmt.Printf("%s: violation did NOT reproduce (%d steps, clean)\n", r.Scenario, res.Steps)
	return 0
}
