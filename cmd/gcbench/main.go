// Command gcbench regenerates the tables and figures of the paper's
// evaluation (§8, Figures 7–23). Each experiment runs the synthetic
// benchmark profiles under the collector configurations the paper
// compares and prints the same rows, with the paper's published numbers
// alongside where available.
//
// Usage:
//
//	gcbench -experiment all            # every figure below (slow)
//	gcbench -experiment fig9           # one of fig7, fig8, fig9, fig16, fig17, fig20
//	gcbench -experiment char           # Figures 10-15 (characterization)
//	gcbench -experiment aging          # Figures 18-19
//	gcbench -experiment cards          # Figures 21-23 (card-size sweep)
//	gcbench -scale 0.25 -repeats 1 ... # quicker, noisier
//
// -trace writes a JSONL event trace for gcreport, -cpuprofile and
// -memprofile write pprof files.
// The figures reproduce the paper's comparisons; speed claims about
// this implementation are measured by the repository benchmark
// (benchmark/, scripts/benchpair.sh).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"gengc"
	"gengc/internal/bench"
)

func main() {
	var (
		experiment = flag.String("experiment", "all", "fig7|fig8|fig9|char|fig16|fig17|aging|fig20|cards|all")
		scale      = flag.Float64("scale", 1.0, "workload length multiplier")
		repeats    = flag.Int("repeats", 3, "runs to average per measurement")
		seed       = flag.Int64("seed", 0, "workload random seed (0 = default)")
		out        = flag.String("o", "", "also write results to this file")
		traceOut   = flag.String("trace", "", "write a JSONL event trace of every run to this file (render with gcreport)")
		csv        = flag.Bool("csv", false, "emit tables as CSV instead of aligned text")
		quiet      = flag.Bool("q", false, "suppress per-run progress")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile taken at the end of the run to this file")
	)
	flag.Parse()

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		w = io.MultiWriter(os.Stdout, f)
	}

	opts := bench.Options{Scale: *scale, Repeats: *repeats, Seed: *seed}
	if !*quiet {
		opts.Progress = os.Stderr
	}
	var sink *gengc.JSONLTraceSink
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		sink = gengc.NewJSONLTraceSink(f)
		opts.TraceSink = sink
	}

	fmt.Fprintf(w, "gcbench: scale=%v repeats=%d GOMAXPROCS=%d NumCPU=%d\n\n",
		*scale, *repeats, runtime.GOMAXPROCS(0), runtime.NumCPU())
	stopProfiles, err := bench.StartProfiles(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gcbench:", err)
		os.Exit(1)
	}
	start := time.Now()
	err = run(w, opts, *experiment, *csv)
	if perr := stopProfiles(); perr != nil {
		fmt.Fprintln(os.Stderr, "gcbench: writing profile:", perr)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "gcbench:", err)
		os.Exit(1)
	}
	if sink != nil {
		if err := sink.Err(); err != nil {
			fmt.Fprintln(os.Stderr, "gcbench: writing trace:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "trace written to %s (render with: gcreport %s)\n",
			*traceOut, *traceOut)
	}
	fmt.Fprintf(w, "total experiment time: %v\n", time.Since(start).Round(time.Second))
}

func run(w io.Writer, opts bench.Options, experiment string, csv bool) error {
	render := func(t bench.Table) {
		if csv {
			t.FormatCSV(w)
			fmt.Fprintln(w)
		} else {
			t.Format(w)
		}
	}
	emit := func(t bench.Table, err error) error {
		if err != nil {
			return err
		}
		render(t)
		return nil
	}
	char := func() error {
		chs, err := opts.Characterize()
		if err != nil {
			return err
		}
		for _, t := range []bench.Table{
			bench.Fig10(chs), bench.Fig11(chs), bench.Fig12(chs),
			bench.Fig13(chs), bench.Fig14(chs), bench.Fig15(chs),
		} {
			render(t)
		}
		return nil
	}
	cards := func() error {
		sweeps, err := opts.SweepCards()
		if err != nil {
			return err
		}
		for _, t := range []bench.Table{bench.Fig21(sweeps), bench.Fig22(sweeps), bench.Fig23(sweeps)} {
			render(t)
		}
		return nil
	}

	switch experiment {
	case "fig7":
		return emit(opts.Fig7())
	case "fig8":
		return emit(opts.Fig8())
	case "fig9":
		return emit(opts.Fig9())
	case "char", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15":
		return char()
	case "fig16":
		return emit(opts.Fig16())
	case "fig17":
		return emit(opts.Fig17())
	case "aging", "fig18", "fig19":
		return emit(opts.FigAging())
	case "fig20":
		return emit(opts.Fig20())
	case "cards", "fig21", "fig22", "fig23":
		return cards()
	case "all":
		for _, step := range []func() error{
			func() error { return emit(opts.Fig7()) },
			func() error { return emit(opts.Fig8()) },
			func() error { return emit(opts.Fig9()) },
			char,
			func() error { return emit(opts.Fig16()) },
			func() error { return emit(opts.Fig17()) },
			func() error { return emit(opts.FigAging()) },
			func() error { return emit(opts.Fig20()) },
			cards,
		} {
			if err := step(); err != nil {
				return err
			}
		}
		return nil
	default:
		return fmt.Errorf("unknown experiment %q", experiment)
	}
}
