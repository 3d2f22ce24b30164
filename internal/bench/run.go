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

	// Repeats averages elapsed times over this many runs (the paper
	// repeats each measurement 8 times; sweeps here default lower to
	// keep the full suite tractable).
	Repeats int

	// Seed anchors the workloads' deterministic random streams.
	Seed int64

	// HeapBytes overrides the heap size (default: the paper's 32 MB).
	HeapBytes int

	// TrackPages enables the Figure 15 instrumentation.
	TrackPages bool

	// PageCost is the simulated memory cost (busy-spin iterations)
	// charged to the collector per first-touched page per cycle; see
	// gc.Config.PageCostSpins. Negative disables; 0 uses the default.
	PageCost int

	// TraceSink, when non-nil, receives every run's structured
	// collector events (concatenated; each run opens with a "start"
	// boundary event). Feed a gengc.NewJSONLTraceSink and render the
	// output with cmd/gcreport.
	TraceSink gengc.TraceSink

	// Progress, when non-nil, receives one line per run.
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
	switch {
	case o.PageCost == 0:
		o.PageCost = 4000
	case o.PageCost < 0:
		o.PageCost = 0
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
		Mode:          mode,
		HeapBytes:     o.HeapBytes,
		YoungBytes:    youngBytes,
		CardBytes:     cardBytes,
		OldAge:        oldAge,
		TrackPages:    o.TrackPages,
		PageCostSpins: o.PageCost,
	}
}

// runAveraged runs the profile Repeats times and returns the run with
// the median elapsed time (robust against scheduler noise) plus that
// median elapsed duration.
func (o Options) runAveraged(p workload.Profile, cfg gengc.Config) (workload.Result, time.Duration, error) {
	p = p.Scale(o.Scale)
	var ropts []workload.RunOption
	if o.TraceSink != nil {
		ropts = append(ropts, workload.TraceTo(o.TraceSink))
	}
	results := make([]workload.Result, 0, o.Repeats)
	for r := 0; r < o.Repeats; r++ {
		res, err := workload.Run(p, cfg, o.Seed+int64(r)*104729, ropts...)
		if err != nil {
			return workload.Result{}, 0, err
		}
		results = append(results, res)
	}
	// Use the median run (by elapsed time): single-CPU scheduling
	// noise is heavy-tailed, so the median is far more stable than
	// the mean across repeats.
	sort.Slice(results, func(i, j int) bool { return results[i].Elapsed < results[j].Elapsed })
	best := results[len(results)/2]
	avg := best.Elapsed
	o.logf("  %-14s %-20v young=%dK card=%d elapsed=%v cycles=%d/%d",
		p.Name, cfg.Mode, cfg.YoungBytes>>10, cfg.CardBytes,
		avg.Round(time.Millisecond), best.Summary.NumPartial, best.Summary.NumFull)
	return best, avg, nil
}

// Improvement measures the paper's headline metric: the percentage
// reduction in elapsed time of the generational configuration relative
// to the non-generational baseline on the same workload.
//
//	improvement = 100 · (T_nongen − T_gen) / T_nongen
type Improvement struct {
	Profile string
	Percent float64
	Gen     workload.Result
	NonGen  workload.Result
}

// MeasureImprovement runs the profile under genCfg and under the
// non-generational baseline and compares elapsed times.
func (o Options) MeasureImprovement(p workload.Profile, genCfg gengc.Config) (Improvement, error) {
	nonCfg := genCfg
	nonCfg.Mode = gengc.NonGenerational
	gen, genAvg, err := o.runAveraged(p, genCfg)
	if err != nil {
		return Improvement{}, err
	}
	non, nonAvg, err := o.runAveraged(p, nonCfg)
	if err != nil {
		return Improvement{}, err
	}
	imp := 100 * (nonAvg - genAvg).Seconds() / nonAvg.Seconds()
	return Improvement{Profile: p.Name, Percent: imp, Gen: gen, NonGen: non}, nil
}

// MeasureRelative compares two arbitrary configurations (used by the
// aging-vs-simple Figure 20): positive means cfgA is faster than cfgB.
func (o Options) MeasureRelative(p workload.Profile, cfgA, cfgB gengc.Config) (float64, error) {
	_, aAvg, err := o.runAveraged(p, cfgA)
	if err != nil {
		return 0, err
	}
	_, bAvg, err := o.runAveraged(p, cfgB)
	if err != nil {
		return 0, err
	}
	return 100 * (bAvg - aAvg).Seconds() / bAvg.Seconds(), nil
}
