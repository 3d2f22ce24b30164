package bench

import (
	"fmt"
	"io"
	"sort"
	"time"

	"gengc"
	"gengc/internal/workload"
)

// Options configure an experiment batch.
type Options struct {
	// Scale multiplies every profile's run length; 1.0 is the
	// default experiment size.
	Scale float64

	// Repeats is the number of alternating pairs per measurement (the
	// paper repeats each measurement 8 times; sweeps here default
	// lower to keep the full suite tractable).
	Repeats int

	// Seed anchors the workloads' deterministic random streams.
	Seed int64

	// HeapBytes overrides the heap size (default: the paper's 32 MB).
	HeapBytes int

	// TraceSink, when non-nil, receives every run's structured
	// collector events (concatenated; each run opens with a "start"
	// boundary event). Feed a gengc.NewJSONLTraceSink and render the
	// output with cmd/gcreport.
	TraceSink gengc.TraceSink

	// Progress, when non-nil, receives one line per measured
	// configuration (its median run).
	Progress io.Writer
}

func (o Options) withDefaults() Options {
	if o.Scale == 0 {
		o.Scale = 1.0
	}
	if o.Repeats == 0 {
		o.Repeats = 3
	}
	if o.Seed == 0 {
		o.Seed = 20000620 // PLDI 2000
	}
	if o.HeapBytes == 0 {
		o.HeapBytes = 32 << 20
	}
	return o
}

func (o Options) logf(format string, args ...any) {
	if o.Progress != nil {
		fmt.Fprintf(o.Progress, format+"\n", args...)
	}
}

// config builds the collector configuration for one run.
func (o Options) config(mode gengc.Mode, youngBytes, cardBytes, oldAge int) gengc.Config {
	return gengc.Config{
		Mode:       mode,
		HeapBytes:  o.HeapBytes,
		YoungBytes: youngBytes,
		CardBytes:  cardBytes,
		OldAge:     oldAge,
	}
}

// pageCost is the modeled cost of one page a collection touches for
// the first time (Figure 15's unit): the paper's cycle times scale with
// its pages, because its 1999 memory hierarchy dominated the cost that
// today's caches hide. Derived, not tuned: a no-intercept least-squares
// fit of Figure 13's times against Figure 11's objects scanned
// (partials count their inter-generational ones too) and Figure 15's
// pages, over the 20 cells that report all three, gives 0.43 µs per
// object and 52 µs per page, so a page costs ≈ 123 object scans; this
// collector scans an object in ≈ 32 ns (gc.trace.ns_per_object on a
// traced old_mutation run), so a page costs ≈ 3.9 µs.
// TestPageCostDerivation re-derives it from paper.go.
const pageCost = 3900 * time.Nanosecond

// modeled applies the page charge: wall-clock time plus pages ×
// pageCost. Every time a figure prints goes through it.
func modeled(wall time.Duration, pages float64) time.Duration {
	return wall + time.Duration(pages*float64(pageCost))
}

// Modeled returns a run's modeled time: its wall time plus the charge
// for every page its collections touched.
func Modeled(r workload.Result) time.Duration {
	return modeled(r.Elapsed, float64(r.Summary.PagesTouched))
}

// run runs the scaled profile once with page tracking on: the model
// needs the pages.
func (o Options) run(p workload.Profile, cfg gengc.Config, rep int) (workload.Result, error) {
	cfg.TrackPages = true
	var ropts []workload.RunOption
	if o.TraceSink != nil {
		ropts = append(ropts, workload.TraceTo(o.TraceSink))
	}
	return workload.Run(p, cfg, o.Seed+int64(rep)*104729, ropts...)
}

// median returns the run with the median modeled time: single-CPU
// scheduling noise is heavy-tailed, so the median is far more stable
// than the mean across repeats.
func median(runs []workload.Result) workload.Result {
	sort.Slice(runs, func(i, j int) bool { return Modeled(runs[i]) < Modeled(runs[j]) })
	return runs[len(runs)/2]
}

// Improvement is the paper's headline metric: the percentage reduction
// in modeled time of one configuration (Gen) relative to a baseline
// (NonGen) on the same workload, over the median runs.
//
//	improvement = 100 · (T_nongen − T_gen) / T_nongen
type Improvement struct {
	Profile  string
	Percent  float64
	PairsWon int // pairs in which Gen's modeled time beat NonGen's
	Gen      workload.Result
	NonGen   workload.Result
}

// WallPercent is the same improvement in wall-clock time of the two
// median runs: a secondary figure that claims nothing.
func (imp Improvement) WallPercent() float64 {
	return improvement(imp.NonGen.Elapsed, imp.Gen.Elapsed)
}

func improvement(base, t time.Duration) float64 {
	return 100 * (base - t).Seconds() / base.Seconds()
}

// compare scores the pairs (gen[i], non[i]) and the two medians.
func compare(gen, non []workload.Result) Improvement {
	var imp Improvement
	for i := range gen {
		if Modeled(gen[i]) < Modeled(non[i]) {
			imp.PairsWon++
		}
	}
	imp.Gen, imp.NonGen = median(gen), median(non)
	imp.Profile = imp.Gen.Profile
	imp.Percent = improvement(Modeled(imp.NonGen), Modeled(imp.Gen))
	return imp
}

// MeasureImprovement compares the profile under genCfg with the
// non-generational baseline (see MeasureRelative).
func (o Options) MeasureImprovement(p workload.Profile, genCfg gengc.Config) (Improvement, error) {
	nonCfg := genCfg
	nonCfg.Mode = gengc.NonGenerational
	return o.MeasureRelative(p, genCfg, nonCfg)
}

// MeasureRelative runs cfgA and cfgB in Repeats pairs, both at one
// seed within a pair, alternating which runs first: the host's speed
// drifts for minutes, and a block of one configuration's runs would
// meet a different host than the other's. Positive Percent means cfgA
// is faster; Gen holds cfgA's median run and NonGen cfgB's.
func (o Options) MeasureRelative(p workload.Profile, cfgA, cfgB gengc.Config) (Improvement, error) {
	p = p.Scale(o.Scale)
	cfgs := [2]gengc.Config{cfgA, cfgB}
	var runs [2][]workload.Result
	for r := 0; r < o.Repeats; r++ {
		for _, side := range [2]int{r % 2, 1 - r%2} {
			res, err := o.run(p, cfgs[side], r)
			if err != nil {
				return Improvement{}, err
			}
			runs[side] = append(runs[side], res)
		}
	}
	imp := compare(runs[0], runs[1])
	for i, m := range [2]workload.Result{imp.Gen, imp.NonGen} {
		o.logf("  %-14s %-20v young=%dK card=%d modeled=%v wall=%v cycles=%d/%d",
			m.Profile, cfgs[i].Mode, cfgs[i].YoungBytes>>10, cfgs[i].CardBytes,
			Modeled(m).Round(time.Millisecond), m.Elapsed.Round(time.Millisecond),
			m.Summary.NumPartial, m.Summary.NumFull)
	}
	return imp, nil
}
