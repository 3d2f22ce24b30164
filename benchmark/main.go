// Command benchmark is the repository's benchmark (BENCHMARK.json): four
// workloads, six end-to-end metrics that are the same on every
// workload, and per-layer metrics taken from outside the program — spans
// around public calls and the values the public API returns. README.md
// has the protocol and the tables.
//
//	benchmark/run.sh                        every workload, 7 repetitions each (5 for the server), interleaved
//	benchmark/run.sh -trace 1               the same plus one traced repetition each: the per-layer tables
//	benchmark/run.sh -selfcheck             two full sets, compared against the bounds
//	benchmark/run.sh -smoke                 seconds-long variant of everything, for tests
//	benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
//	                                        one workload for about S measured seconds; the last
//	                                        line of output is the result as one JSON object
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
)

const (
	defaultSeed = 20000620

	minReps    = 3 // repetitions a -seconds run makes however slow the host
	smokeScale = 1.0 / 50
)

// runEnv is what a repetition is told.
type runEnv struct {
	seed   int64
	rep    int     // the id the repetition's spans share
	scale  float64 // 1, or smokeScale
	traced bool    // record spans; server_overload also runs its steady leg
	outDir string
}

// scaled is n ops scaled, rounded up to whole batches.
func (e runEnv) scaled(n int) int {
	n = int(math.Ceil(float64(n) * e.scale))
	return (n + batchOps - 1) / batchOps * batchOps
}

// scaledCount is n things scaled, at least one.
func (e runEnv) scaledCount(n int) int {
	return max(int(math.Round(float64(n)*e.scale)), 1)
}

// scaledSeconds scales the length of a schedule; the smoke variant gets
// one second however small the scale.
func (e runEnv) scaledSeconds(s float64) float64 {
	if e.scale < 1 {
		return 1
	}
	return s
}

type workload struct {
	name     string
	why      string
	fullReps int // repetitions in a full set
	run      func(runEnv) (*rep, error)
}

var workloads = []workload{
	{
		name:     "young_churn",
		why:      "85% short-lived pointer-free allocations: allocator, refill, sweep and handshake response do the work; barrier, cards and trace do almost none",
		fullReps: 7,
		run:      func(e runEnv) (*rep, error) { return runChurn(youngChurn, e) },
	},
	{
		name:     "old_mutation",
		why:      "16 MB live base taking one old-to-young store in ten ops: barrier, card marking and scan, trace of a large live set and promotion dominate; the allocator is the minority",
		fullReps: 7,
		run:      func(e runEnv) (*rep, error) { return runChurn(oldMutation, e) },
	},
	{
		name:     "collect_quiescent",
		why:      "explicit collections with no mutator attached: trace, sweep and card scan alone, one busy thread, work counts that repeat exactly",
		fullReps: 7,
		run:      runQuiescent,
	},
	{
		name:     "server_overload",
		why:      "open-loop Poisson requests at twice capacity through admission control: the same layers under deadlines, two mutators and queueing, where a churn gain can cost goodput or latency",
		fullReps: 5,
		run:      runOverload,
	},
}

// stat summarizes one metric over the repetitions of one workload.
type stat struct {
	median, q1, q3 float64
	n              int // samples behind the median
}

func statOf(xs []float64) stat {
	q1, q3 := quartiles(xs)
	return stat{median: median(xs), q1: q1, q3: q3, n: len(xs)}
}

// result is one workload's repetitions in one set.
type result struct {
	w        *workload
	untraced []*rep
	traced   []*rep
	problems []string // correctness failures; empty means correct

	spentNs int64 // time in this workload's repetitions, set-up and checks included
	lastNs  int64 // of which the last one
}

func (res *result) all() []*rep { return append(append([]*rep(nil), res.untraced...), res.traced...) }

// check runs the part of the correctness gate that spans repetitions.
func (res *result) check() {
	var first *rep
	for i, r := range res.all() {
		if r.checkErr != nil {
			res.problems = append(res.problems, fmt.Sprintf("repetition %d: %v", i+1, r.checkErr))
		}
		if r.failed != 0 {
			res.problems = append(res.problems, fmt.Sprintf("repetition %d: %d of %d ops failed", i+1, r.failed, r.attempted))
		}
		if first == nil {
			first = r
		}
		// collect_quiescent: the collector's work is a function of the
		// seed, so a differing count is a fault, not noise.
		if r.exact != first.exact {
			res.problems = append(res.problems, fmt.Sprintf("repetition %d: work counts %v differ from %v", i+1, r.exact, first.exact))
		}
	}
}

// endToEnd is the reported end-to-end metrics: the median over the
// untraced repetitions.
func (res *result) endToEnd() map[string]stat {
	perRep := map[string][]float64{}
	for _, r := range res.untraced {
		for k, v := range r.endToEnd() {
			perRep[k] = append(perRep[k], v)
		}
	}
	out := map[string]stat{}
	for k, vs := range perRep {
		out[k] = statOf(vs)
	}
	return out
}

// perLayer is the reported layer metrics. A metric taken from values
// the API returns is the median over the untraced repetitions (over the
// traced ones where only those measure it: the server's steady leg); a
// metric taken from spans is the median over the traced repetitions. A
// layer the workload bypasses reads 0.
func (res *result) perLayer() map[string]stat {
	var walls []float64
	for _, r := range res.untraced {
		walls = append(walls, float64(r.wallNs)/r.hostSlowdown)
	}
	collect := func(reps []*rep, layers func(*rep) map[string]float64) map[string][]float64 {
		perRep := map[string][]float64{}
		for _, r := range reps {
			for k, v := range layers(r) {
				perRep[k] = append(perRep[k], v)
			}
		}
		return perRep
	}
	untraced := collect(res.untraced, (*rep).apiLayers)
	traced := collect(res.traced, (*rep).apiLayers)
	spans := collect(res.traced, func(r *rep) map[string]float64 { return r.spanLayers(median(walls)) })
	out := map[string]stat{}
	for _, d := range perLayerDefs {
		for _, from := range []map[string][]float64{spans, untraced, traced} {
			if vs, ok := from[d.name]; ok {
				out[d.name] = statOf(vs)
				break
			}
		}
	}
	return out
}

// nextRep says whether a workload runs another repetition after the
// ones in res, and whether it is traced.
type nextRep func(res *result) (more, traced bool)

// runSet runs the workloads' repetitions interleaved — repetition 1 of
// each, then repetition 2 — so drift of the host spreads over all of
// them.
func runSet(ws []*workload, next nextRep, env runEnv, progress io.Writer) ([]*result, error) {
	probe := newHostProbe()
	loads := env.scaledCount(probeLoads)
	results := make([]*result, len(ws))
	for i, w := range ws {
		results[i] = &result{w: w}
	}
	for round, ran := 1, true; ran; round++ {
		ran = false
		for _, res := range results {
			more, traced := next(res)
			if !more {
				continue
			}
			ran = true
			env.rep, env.traced = round, traced
			runtime.GC()
			start := now()
			before := probe.slowdown(loads)
			r, err := res.w.run(env)
			if err != nil {
				return nil, fmt.Errorf("%s repetition %d: %w", res.w.name, round, err)
			}
			r.hostSlowdown = (before + probe.slowdown(loads)) / 2
			fmt.Fprintf(progress, "%s repetition %d%s: %.2fs set-up, %.2fs timed, host slowdown %.2f\n", res.w.name, round,
				map[bool]string{true: " (traced)"}[traced], float64(r.setupNs)/1e9, float64(r.wallNs)/1e9, r.hostSlowdown)
			if traced {
				res.traced = append(res.traced, r)
				if err := r.tr.write(env.outDir, res.w.name, env.seed, r.repStartNs, r.repEndNs, r.wallNs); err != nil {
					return nil, err
				}
			} else {
				res.untraced = append(res.untraced, r)
			}
			res.lastNs = now() - start
			res.spentNs += res.lastNs
		}
	}
	for _, res := range results {
		res.check()
	}
	return results, nil
}

func printTable(w io.Writer, defs []metricDef, stats map[string]stat) {
	fmt.Fprintf(w, "  %-40s %-6s %14s %14s %14s %7s\n", "metric", "unit", "median", "q1", "q3", "n")
	for _, d := range defs {
		s := stats[d.name]
		fmt.Fprintf(w, "  %-40s %-6s %14.6g %14.6g %14.6g %7d\n", d.name, d.unit, s.median, s.q1, s.q3, s.n)
	}
}

// report prints one workload's tables and returns its result line.
func report(w io.Writer, res *result, seed int64, layersOnly bool) string {
	var attempted, failed, refused int64
	for _, r := range res.all() {
		attempted += r.attempted
		failed += r.failed
		refused += r.refused
	}
	fmt.Fprintf(w, "\n%s  seed %d, %d repetitions + %d traced\n", res.w.name, seed, len(res.untraced), len(res.traced))
	fmt.Fprintf(w, "  ops_attempted %d  ops_failed %d  ops_refused %d\n", attempted, failed, refused)
	if x := res.all()[0].exact; x != [4]int64{} {
		fmt.Fprintf(w, "  exact work counts per repetition: objects_scanned %d  slots_scanned %d  cards_scanned %d  objects_freed %d\n", x[0], x[1], x[2], x[3])
	}
	e2e := res.endToEnd()
	layers := res.perLayer()
	defs, stats := endToEndDefs, e2e
	if len(res.traced) > 0 {
		printTable(w, endToEndDefs, e2e)
		fmt.Fprintln(w)
		printTable(w, perLayerDefs, layers)
		if layersOnly {
			defs, stats = perLayerDefs, layers
		}
	} else {
		// No layer table follows: the ungated tail latency and the
		// correction the times carry go with the end-to-end metrics.
		e2e[latencyP99Def.name] = layers[latencyP99Def.name]
		e2e[hostSlowdownDef.name] = layers[hostSlowdownDef.name]
		printTable(w, append(endToEndDefs[:len(endToEndDefs):len(endToEndDefs)], latencyP99Def, hostSlowdownDef), e2e)
	}
	for _, p := range res.problems {
		fmt.Fprintf(w, "  INCORRECT: %s\n", p)
	}

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: len(res.problems) == 0, Attempted: attempted, Failed: failed, Metrics: map[string]value{}}
	for _, d := range defs {
		line.Metrics[d.name] = value{stats[d.name].median, d.unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		panic(err) // finite floats and strings always marshal
	}
	return string(data)
}

// selfcheck compares two sets of the same code, metric by metric.
func selfcheck(w io.Writer, a, b []*result) bool {
	ok := true
	fmt.Fprintf(w, "\nselfcheck: two sets of the same binary; diff = (B-A)/A, iqr = (q3-q1)/median\n")
	fmt.Fprintf(w, "%-18s %-18s %13s %13s %8s %7s %7s %6s  %s\n", "workload", "metric", "median A", "median B", "diff", "iqr A", "iqr B", "bound", "verdict")
	for i := range a {
		ea, eb := a[i].endToEnd(), b[i].endToEnd()
		for _, d := range endToEndDefs {
			sa, sb := ea[d.name], eb[d.name]
			diff := ratio(sb.median-sa.median, sa.median)
			verdict := "ok"
			switch {
			case math.Abs(diff) > d.bound:
				verdict, ok = "FAIL: beyond the bound", false
			case math.Abs(diff) > 0.10:
				verdict = "ok, but the medians differ by more than a tenth"
			}
			fmt.Fprintf(w, "%-18s %-18s %13.6g %13.6g %+7.2f%% %6.2f%% %6.2f%% %5.0f%%  %s\n", a[i].w.name, d.name, sa.median, sb.median,
				100*diff, 100*ratio(sa.q3-sa.q1, sa.median), 100*ratio(sb.q3-sb.q1, sb.median), 100*d.bound, verdict)
		}
		if xa, xb := a[i].untraced[0].exact, b[i].untraced[0].exact; xa != xb {
			fmt.Fprintf(w, "%-18s exact work counts differ between the sets: %v vs %v\n", a[i].w.name, xa, xb)
			ok = false
		}
	}
	return ok
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workloadName = fs.String("workload", "", "run only this workload and end with its result as one JSON line")
		seed         = fs.Int64("seed", defaultSeed, "seed of every generated input; the only source of randomness")
		seconds      = fs.Float64("seconds", 0, "measured seconds per workload (0: the full protocol, 7 repetitions, 5 for the server)")
		trace        = fs.Int("trace", 0, "1: add traced repetitions and report the per-layer metrics")
		doSelfcheck  = fs.Bool("selfcheck", false, "run two full sets and compare them against the bounds")
		smoke        = fs.Bool("smoke", false, "seconds-long variant: 1 repetition + 1 traced, 1/50 of the work")
		doCalibrate  = fs.Bool("calibrate", false, "measure the closed-loop capacity the server rates were derived from, and exit")
		outDir       = fs.String("out", "benchmark/out", "directory for trace-<workload>.json")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "benchmark: unexpected arguments; -trace takes 0 or 1")
		return 2
	}

	// The host collector would add pauses of its own; repetitions
	// collect explicitly between themselves instead.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	if *doCalibrate {
		capacity, err := calibrate(5)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		fmt.Fprintf(stdout, "closed-loop capacity %.0f requests/s (rateLow = 0.5x, rateHigh = 2x, two significant figures)\n", capacity)
		return 0
	}

	var ws []*workload
	for i := range workloads {
		if *workloadName == "" || *workloadName == workloads[i].name {
			ws = append(ws, &workloads[i])
		}
	}
	if len(ws) == 0 {
		fmt.Fprintf(stderr, "benchmark: no workload %q\n", *workloadName)
		return 2
	}

	env := runEnv{seed: *seed, scale: 1, outDir: *outDir}
	if *smoke {
		env.scale = smokeScale
	}
	// With -seconds a workload repeats, at least minReps times, while
	// another repetition (set-up and checks included) ends within the
	// budget and a quarter: a repetition is fixed work, so a slow host
	// gets fewer of them, not a longer run.
	// Traced repetitions alternate with untraced ones. Without -seconds
	// the count is fixed and one traced repetition follows.
	next := func(res *result) (more, traced bool) {
		n := len(res.untraced) + len(res.traced)
		switch {
		case *smoke:
			return n < 2, n == 1
		case *seconds > 0:
			left := int64(*seconds*1.25e9) - res.spentNs
			return n < minReps || left >= res.lastNs, *trace == 1 && n%2 == 1
		}
		return n < res.w.fullReps || (n == res.w.fullReps && *trace == 1), n == res.w.fullReps
	}

	sets := 1
	if *doSelfcheck {
		sets = 2
	}
	var all [][]*result
	for s := 0; s < sets; s++ {
		results, err := runSet(ws, next, env, stderr)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		all = append(all, results)
	}

	code := 0
	var lines []string
	for _, results := range all {
		for _, res := range results {
			line := report(stdout, res, *seed, *trace == 1 && *workloadName != "")
			if *workloadName == "" {
				line = "result " + res.w.name + " " + line // several workloads: one labelled line each
			}
			lines = append(lines, line)
			if len(res.problems) > 0 {
				code = 1
			}
		}
	}
	if *doSelfcheck && !selfcheck(stdout, all[0], all[1]) {
		code = 1
	}
	fmt.Fprintln(stdout)
	for _, line := range lines {
		fmt.Fprintln(stdout, line)
	}
	return code
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }
