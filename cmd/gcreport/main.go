// Command gcreport renders a JSONL collector trace (produced with the
// -trace flag of gcbench or gctrace, or any
// gengc.NewJSONLTraceSink) into paper-style text figures: the
// mutator pause-time CDF, the per-phase collection-cycle breakdown,
// the dirty-card statistics, the promotion/survival demographics, and
// per-mutator pause tables. See OBSERVABILITY.md for how each output
// maps onto the paper's figures.
//
// Usage:
//
//	gcreport trace.jsonl            # summary + every figure
//	gcreport -cdf trace.jsonl       # pause CDF only
//	gcreport -phases -csv < trace.jsonl
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"gengc/internal/report"
)

func main() {
	var (
		cdf      = flag.Bool("cdf", false, "render the pause-time CDF")
		phases   = flag.Bool("phases", false, "render the cycle phase breakdown")
		cards    = flag.Bool("cards", false, "render dirty-card statistics")
		demo     = flag.Bool("demographics", false, "render promotion/survival demographics")
		mutators = flag.Bool("mutators", false, "render per-mutator pause tables")
		all      = flag.Bool("all", false, "render everything (default when no figure flag is given)")
		csv      = flag.Bool("csv", false, "emit CSV instead of aligned text")
	)
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"usage: gcreport [flags] [trace.jsonl]\n\nreads stdin when no file is given\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	var in io.Reader = os.Stdin
	switch flag.NArg() {
	case 0:
	case 1:
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fail(err)
		}
		defer f.Close()
		in = f
	default:
		flag.Usage()
		os.Exit(2)
	}

	t, err := report.Parse(in)
	if err != nil {
		fail(fmt.Errorf("parsing trace: %w", err))
	}
	if len(t.Events) == 0 {
		fail(fmt.Errorf("empty trace"))
	}

	none := !*cdf && !*phases && !*cards && !*demo && !*mutators
	everything := *all || none
	w := os.Stdout
	if !*csv {
		report.RenderSummary(w, t)
	}
	if everything || *cdf {
		report.RenderPauseCDF(w, t, *csv)
	}
	if everything || *phases {
		report.RenderBreakdown(w, t, *csv)
	}
	if everything || *cards {
		report.RenderCards(w, t, *csv)
	}
	if everything || *demo {
		report.RenderDemographics(w, t, *csv)
	}
	if everything || *mutators {
		report.RenderMutators(w, t, *csv)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "gcreport:", err)
	os.Exit(1)
}
