// Command gcsweep runs the contention-matrix experiment: one command
// sweeps mutator counts × collector Workers × workload contention level
// over the churn, Zipf and auction profiles and writes the versioned
// BENCH_matrix.json report (schema: BENCHMARKS.md; methodology:
// EXPERIMENTS.md).
//
// Usage:
//
//	gcsweep                          # the full default matrix -> BENCH_matrix.json
//	gcsweep -smoke                   # tiny CI matrix, seconds not minutes
//	gcsweep -muts 1,4,8 -ops 100000  # custom axes
//	gcsweep -printbaseline           # emit Go source for baseline.go
//
// Each cell runs the same total operation budget split across its
// mutators, measured over interleaved passes (medians), and records
// ns/op, fleet pause p50/p99/p99.9, collection-cycle elapsed times,
// and the contended allocator lock acquisitions from Runtime.Snapshot.
//
// Exit codes: 0 = clean, 1 = error, 2 = the report flagged regressions
// (shape-normalized baseline exceedances on the baseline host, or
// failed sanity checks anywhere). The embedded baseline is only
// consulted when this host's fingerprint matches the baseline's —
// cross-host ns/op comparison is refused by design — and even on the
// matching host the gate compares the *shape* of the matrix (each
// cell's ns/op normalized by the run median, aggregated to
// profile/contention group medians), not absolute speed, because
// absolute ns/op on a shared host swings far more between runs than any
// real regression signal. See bench.CompareBaseline and BENCHMARKS.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"gengc/internal/bench"
)

func parseInts(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, fmt.Errorf("bad list element %q: %w", f, err)
		}
		out = append(out, n)
	}
	return out, nil
}

func main() {
	var (
		out       = flag.String("o", "BENCH_matrix.json", "output path of the JSON report")
		smoke     = flag.Bool("smoke", false, "tiny CI matrix (seconds): 1,2 mutators, high-contention variants, one pass")
		muts      = flag.String("muts", "1,2,4", "mutator thread counts")
		workers   = flag.String("workers", "1,2", "collector worker counts")
		profiles  = flag.String("profiles", "churn,zipf,auction", "workload profiles")
		ops       = flag.Int("ops", 0, "operations per run, split across mutators (0 = default)")
		passes    = flag.Int("passes", 0, "interleaved measurement passes per cell (0 = default)")
		seed      = flag.Int64("seed", 0, "workload random seed (0 = default)")
		tolerance = flag.Float64("tolerance", 50, "shape-regression tolerance vs baseline, percent (per profile/contention group, median-normalized)")
		quiet     = flag.Bool("q", false, "suppress per-run progress")
		printBase = flag.Bool("printbaseline", false, "after the sweep, print Go source for the embedded baseline (cmd/gcsweep/baseline.go)")
	)
	flag.Parse()

	if err := run(*out, *smoke, *muts, *workers, *profiles,
		*ops, *passes, *seed, *tolerance, *quiet, *printBase); err != nil {
		fmt.Fprintln(os.Stderr, "gcsweep:", err)
		if err == errRegression {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// errRegression marks a sweep that completed (and wrote its report) but
// flagged regressions; main exits 2 so CI can gate on it while still
// collecting the artifact.
var errRegression = fmt.Errorf("regressions flagged (see the JSON report)")

func run(out string, smoke bool, muts, workers, profiles string,
	ops, passes int, seed int64, tolerance float64, quiet, printBase bool) error {
	if smoke {
		// The CI preset: every axis still has ≥2 values where the full
		// matrix has them, but only the high-contention variant of each
		// profile, one pass, and a small op budget. Completes in
		// seconds; the sanity checks (and, on the reference host, the
		// baseline) still gate.
		muts, workers = "1,2", "1,2"
		if ops == 0 {
			ops = 12_000
		}
		if passes == 0 {
			passes = 1
		}
	}
	mutsL, err := parseInts(muts)
	if err != nil {
		return err
	}
	workersL, err := parseInts(workers)
	if err != nil {
		return err
	}
	variants, err := bench.MatrixVariants(strings.Split(profiles, ","))
	if err != nil {
		return err
	}
	if smoke {
		var high []bench.MatrixVariant
		for _, v := range variants {
			if v.Contention == "high" || v.Contention == "s=1.2" {
				high = append(high, v)
			}
		}
		if len(high) > 0 {
			variants = high
		}
	}

	spec := bench.MatrixSpec{
		Mutators: mutsL,
		Workers:  workersL,
		Variants: variants,
		TotalOps: ops,
		Passes:   passes,
		Seed:     seed,
	}
	if smoke {
		spec.YoungBytes = 256 << 10
	}
	if !quiet {
		spec.Progress = func(line string) { fmt.Fprintln(os.Stderr, line) }
	}

	// The host Go runtime's own collector would inject pauses into the
	// measurement, as in every other experiment here.
	prevGC := debug.SetGCPercent(-1)
	defer func() {
		debug.SetGCPercent(prevGC)
		runtime.GC()
	}()

	fmt.Printf("gcsweep: %d cells × %d passes, %d ops/run, host %s (%s)\n",
		len(mutsL)*len(workersL)*len(variants),
		orDefault(passes, 2), orDefault(ops, 60_000),
		bench.CurrentHost().Fingerprint(), bench.CurrentHost().GoVersion)
	start := time.Now()
	rep, err := bench.RunMatrix(spec)
	if err != nil {
		return err
	}
	rep.Generated = time.Now().UTC().Format(time.RFC3339)
	rep.CompareBaseline(embeddedBaseline, tolerance)
	rep.Sanity()

	printTable(rep)
	fmt.Printf("baseline comparison: %s\n", rep.BaselineComparison)
	for _, reg := range rep.Regressions {
		fmt.Printf("regression: %s\n", reg)
	}

	f, err := os.Create(out)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("matrix written to %s (%d cells, %v elapsed)\n", out, len(rep.Cells), time.Since(start).Round(time.Second))

	if printBase {
		printBaselineSource(rep)
	}
	if len(rep.Regressions) > 0 {
		return errRegression
	}
	return nil
}

func orDefault(v, def int) int {
	if v == 0 {
		return def
	}
	return v
}

// printTable renders the cell medians as an aligned text table grouped
// by profile/contention.
func printTable(rep *bench.MatrixReport) {
	fmt.Printf("\n%-8s %-6s %4s %3s %9s %9s %10s %9s %8s %8s\n",
		"profile", "cont", "muts", "w", "ns/op",
		"p99(us)", "p99.9(us)", "cycMax(ms)", "cycles", "contend")
	for _, c := range rep.Cells {
		fmt.Printf("%-8s %-6s %4d %3d %9.1f %9.1f %10.1f %9.1f %8d %8d\n",
			c.Profile, c.Contention, c.Mutators, c.Workers,
			c.NsPerOp,
			float64(c.PauseP99Ns)/1e3, float64(c.PauseP999Ns)/1e3,
			float64(c.CycleMaxNs)/1e6,
			c.Cycles, c.AllocContended)
	}
	fmt.Println()
}

// printBaselineSource emits the Go source of a baseline.go capturing
// this run, so refreshing the embedded baseline after an intentional
// perf change is one pipeline (the awk strips everything up to and
// including the "-- baseline.go --" marker):
//
//	go run ./cmd/gcsweep -printbaseline 2>/dev/null |
//	    awk 'f{print} /^-- baseline.go --$/{f=1}' | gofmt > cmd/gcsweep/baseline.go
func printBaselineSource(rep *bench.MatrixReport) {
	fmt.Println("-- baseline.go --")
	fmt.Println("// Code generated by gcsweep -printbaseline; see BENCHMARKS.md. DO NOT EDIT BY HAND.")
	fmt.Println()
	fmt.Println("package main")
	fmt.Println()
	fmt.Println("import \"gengc/internal/bench\"")
	fmt.Println()
	fmt.Println("// embeddedBaseline is the reference sweep the regression gate compares")
	fmt.Printf("// against, captured %s on the host below. The comparison\n", rep.Generated)
	fmt.Println("// only applies when the running host's fingerprint matches.")
	fmt.Println("var embeddedBaseline = bench.MatrixBaseline{")
	fmt.Printf("\tFingerprint: %q,\n", rep.Host.Fingerprint())
	fmt.Println("\tNsPerOp: map[string]float64{")
	keys := make([]string, 0, len(rep.Cells))
	ns := map[string]float64{}
	for _, c := range rep.Cells {
		keys = append(keys, c.Key())
		ns[c.Key()] = c.NsPerOp
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("\t\t%q: %.1f,\n", k, ns[k])
	}
	fmt.Println("\t},")
	fmt.Println("}")
}
