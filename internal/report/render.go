package report

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"gengc/internal/metrics"
)

// Renderers: plain-text (and CSV) figures in the style of the bench
// package's tables. Every renderer takes the parsed Trace so cmd/gcreport
// can compose any subset with one parse.

// cdfPoints are the cumulative-fraction points printed for the pause
// CDF — the companion to the paper's "maximum pause time" measurements
// (§8.3): the interesting tail is the top percentiles.
var cdfPoints = []float64{0.50, 0.75, 0.90, 0.95, 0.99, 0.999, 1.0}

func fmtQ(q float64) string {
	if q == 1.0 {
		return "max"
	}
	return fmt.Sprintf("p%g", 100*q)
}

// RenderPauseCDF prints the fleet-wide pause-time distribution and the
// per-cause event counts.
func RenderPauseCDF(w io.Writer, t *Trace, csv bool) {
	c := t.Pauses()
	fmt.Fprintf(w, "Pause-time CDF (%d pauses, %d mutators, %d runs)\n",
		c.Fleet.Count(), len(c.PerMutator), t.Runs)
	if c.Fleet.Count() == 0 {
		fmt.Fprintln(w, "  no pause events in trace")
		fmt.Fprintln(w)
		return
	}
	if csv {
		fmt.Fprintln(w, "quantile,pause_ns")
		for _, q := range cdfPoints {
			fmt.Fprintf(w, "%s,%d\n", fmtQ(q), c.Fleet.Quantile(q).Nanoseconds())
		}
	} else {
		for _, q := range cdfPoints {
			fmt.Fprintf(w, "  %-6s %12v\n", fmtQ(q), c.Fleet.Quantile(q))
		}
	}
	causes := make([]string, 0, len(c.ByCause))
	for k := range c.ByCause {
		causes = append(causes, k)
	}
	sort.Strings(causes)
	fmt.Fprint(w, "  by cause:")
	for _, k := range causes {
		fmt.Fprintf(w, " %s=%d", k, c.ByCause[k])
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w)
}

// RenderBreakdown prints the per-phase cycle decomposition per kind,
// full before partial.
func RenderBreakdown(w io.Writer, t *Trace, csv bool) {
	tot := t.Totals()
	fmt.Fprintln(w, "Cycle phase breakdown (mean per cycle)")
	if tot[metrics.Partial].Cycles+tot[metrics.Full].Cycles == 0 {
		fmt.Fprintln(w, "  no completed cycles in trace")
		fmt.Fprintln(w)
		return
	}
	if csv {
		fmt.Fprintln(w, "kind,cycles,total_ns,sync1_ns,sync2_ns,sync3_ns,ack_ns,ack_rounds,trace_ns,drain_ns,sweep_ns,scanned,freed")
	} else {
		fmt.Fprintf(w, "  %-8s %7s %12s %10s %10s %10s %10s %6s %12s %12s %12s %10s %10s\n",
			"kind", "cycles", "total", "sync1", "sync2", "sync3",
			"ack", "rnds", "trace", "drain", "sweep", "scanned", "freed")
	}
	for _, k := range []metrics.CycleKind{metrics.Full, metrics.Partial} {
		kt := tot[k]
		if kt.Cycles == 0 {
			continue
		}
		s, n, f := kt.Sum, time.Duration(kt.Cycles), float64(kt.Cycles)
		if csv {
			fmt.Fprintf(w, "%s,%d,%d,%d,%d,%d,%d,%.2f,%d,%d,%d,%.1f,%.1f\n",
				k, kt.Cycles, int64(s.Duration/n),
				int64(s.Sync1Time/n), int64(s.Sync2Time/n), int64(s.Sync3Time/n),
				int64(s.AckTime/n), float64(s.AckRounds)/f, int64(s.TraceTime/n),
				int64(s.DrainTime/n), int64(s.SweepTime/n),
				float64(s.ObjectsScanned)/f, float64(s.ObjectsFreed)/f)
		} else {
			fmt.Fprintf(w, "  %-8s %7d %12v %10v %10v %10v %10v %6.2f %12v %12v %12v %10.1f %10.1f\n",
				k, kt.Cycles, rnd(s.Duration/n), rnd(s.Sync1Time/n),
				rnd(s.Sync2Time/n), rnd(s.Sync3Time/n), rnd(s.AckTime/n),
				float64(s.AckRounds)/f, rnd(s.TraceTime/n), rnd(s.DrainTime/n), rnd(s.SweepTime/n),
				float64(s.ObjectsScanned)/f, float64(s.ObjectsFreed)/f)
		}
	}
	fmt.Fprintln(w)
}

func rnd(d time.Duration) time.Duration { return d.Round(time.Microsecond) }

// RenderCards prints the dirty-card statistics of the traced partials,
// the only cycles that scan cards (Figures 21–23). Its dirty % is
// Figure 22's: the mean over the partials of each one's dirty share of
// its allocated cards, as in Summary.AvgDirtyCardPct.
func RenderCards(w io.Writer, t *Trace, csv bool) {
	p := t.Totals()[metrics.Partial]
	fmt.Fprintln(w, "Dirty cards (card scans of partial collections)")
	if p.Cycles == 0 {
		fmt.Fprintln(w, "  no card scans in trace (non-generational run?)")
		fmt.Fprintln(w)
		return
	}
	f := float64(p.Cycles)
	dirty, alloc, pct := float64(p.Sum.DirtyCards)/f, float64(p.Sum.AllocatedCards)/f, p.DirtyCardPct/f
	scan := p.Sum.CardScanTime / time.Duration(p.Cycles)
	if csv {
		fmt.Fprintln(w, "scans,avg_dirty,avg_allocated,dirty_pct,avg_scan_ns")
		fmt.Fprintf(w, "%d,%.1f,%.1f,%.2f,%d\n", p.Cycles, dirty, alloc, pct, scan.Nanoseconds())
	} else {
		fmt.Fprintf(w, "  scans=%d avg dirty=%.1f avg allocated=%.1f dirty%%=%.2f avg scan=%v\n",
			p.Cycles, dirty, alloc, pct, rnd(scan))
	}
	fmt.Fprintln(w)
}

// RenderMutators prints one line of pause quantiles per (run, mutator).
func RenderMutators(w io.Writer, t *Trace, csv bool) {
	ms := t.Pauses().PerMutator
	fmt.Fprintln(w, "Per-mutator pauses")
	if len(ms) == 0 {
		fmt.Fprintln(w, "  no pause events in trace")
		fmt.Fprintln(w)
		return
	}
	if csv {
		fmt.Fprintln(w, "run,mutator,count,p50_ns,p99_ns,max_ns")
	} else {
		fmt.Fprintf(w, "  %4s %8s %8s %12s %12s %12s\n",
			"run", "mutator", "count", "p50", "p99", "max")
	}
	for _, m := range ms {
		h := m.Pauses
		if csv {
			fmt.Fprintf(w, "%d,%d,%d,%d,%d,%d\n", m.Run, m.Mutator, h.Count(),
				h.Quantile(0.50).Nanoseconds(), h.Quantile(0.99).Nanoseconds(), h.Max().Nanoseconds())
		} else {
			fmt.Fprintf(w, "  %4d %8d %8d %12v %12v %12v\n", m.Run, m.Mutator, h.Count(),
				h.Quantile(0.50), h.Quantile(0.99), h.Max())
		}
	}
	fmt.Fprintln(w)
}

// RenderDemographics prints the promotion/survival figure of the
// generational runs: how much each partial tenured, and — in aging mode
// — the survival histogram showing where the young cohort dies off.
func RenderDemographics(w io.Writer, t *Trace, csv bool) {
	tot := t.Totals()
	partials, s := tot[metrics.Partial].Cycles, tot.Demographics()
	fmt.Fprintln(w, "Heap demographics (promotion per partial collection)")
	if partials == 0 {
		fmt.Fprintln(w, "  no partial collections in trace (non-generational run?)")
		fmt.Fprintln(w)
		return
	}
	f := float64(partials)
	if csv {
		fmt.Fprintln(w, "partials,promoted_objects,promoted_bytes,avg_promoted_objects,avg_promoted_bytes")
		fmt.Fprintf(w, "%d,%d,%d,%.1f,%.1f\n", partials,
			s.PromotedObjects, s.PromotedBytes,
			float64(s.PromotedObjects)/f, float64(s.PromotedBytes)/f)
		if len(s.SurvivalByAge) > 0 {
			fmt.Fprintln(w, "age,survivals")
			for age, n := range s.SurvivalByAge {
				if n != 0 {
					fmt.Fprintf(w, "%d,%d\n", age, n)
				}
			}
		}
	} else {
		fmt.Fprintf(w, "  partials=%d promoted=%d objects / %d bytes (avg %.1f obj, %.1f B per partial)\n",
			partials, s.PromotedObjects, s.PromotedBytes,
			float64(s.PromotedObjects)/f, float64(s.PromotedBytes)/f)
		if len(s.SurvivalByAge) > 0 {
			var total int64
			for _, n := range s.SurvivalByAge {
				total += n
			}
			fmt.Fprintln(w, "  survival by age (aging mode; last bucket = promotions):")
			for age, n := range s.SurvivalByAge {
				if n == 0 {
					continue
				}
				bar := strings.Repeat("#", int(40*float64(n)/float64(total)+0.5))
				fmt.Fprintf(w, "    age %3d %10d %s\n", age, n, bar)
			}
		}
	}
	fmt.Fprintln(w)
}

// RenderSummary prints the one-paragraph header: what the trace holds.
func RenderSummary(w io.Writer, t *Trace) {
	var cycles, fulls int
	byEv := map[string]int{}
	for _, e := range t.Events {
		byEv[e.Ev]++
		if e.Ev == "cycle" {
			cycles++
			if e.K == "full" {
				fulls++
			}
		}
	}
	evs := make([]string, 0, len(byEv))
	for k := range byEv {
		evs = append(evs, k)
	}
	sort.Strings(evs)
	parts := make([]string, 0, len(evs))
	for _, k := range evs {
		parts = append(parts, fmt.Sprintf("%s=%d", k, byEv[k]))
	}
	fmt.Fprintf(w, "trace: %d events, %d runs, %d cycles (%d full)\n",
		len(t.Events), t.Runs, cycles, fulls)
	fmt.Fprintf(w, "  %s\n", strings.Join(parts, " "))
	for run, meta := range t.Meta() {
		if meta != "" {
			fmt.Fprintf(w, "  run %d: %s\n", run, meta)
		}
	}
	if t.Dropped > 0 {
		fmt.Fprintf(w, "  WARNING: %d events lost to ring overflow\n", t.Dropped)
	}
	fmt.Fprintln(w)
}
