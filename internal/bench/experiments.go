package bench

import (
	"fmt"
	"time"

	"gengc"
	"gengc/internal/workload"
)

// Default experiment parameters, as chosen by the paper (§8.3): object
// marking (16-byte cards), simple promotion, 4 MB young generation.
const (
	defaultYoung = 4 << 20
	defaultCard  = 16
)

// cardSizes is the §8.5.3 sweep: all powers of two from 16 to 4096.
var cardSizes = []int{16, 32, 64, 128, 256, 512, 1024, 2048, 4096}

// youngSizes is the §8.5.1 sweep (bytes).
var youngSizes = []int{1 << 20, 2 << 20, 4 << 20, 8 << 20}

// rtThreads is the Figure 7 thread sweep.
var rtThreads = []int{2, 4, 6, 8, 10}

// agingThresholds lists the paper's tenure ages {4, 6, 8, 10}; our age
// counter starts one lower (allocation at 0, the paper's at 1).
var agingThresholds = []int{4, 6, 8, 10}

// Fig7 regenerates Figure 7: percentage improvement for the
// multithreaded Ray Tracer by thread count.
func (o Options) Fig7() (Table, error) {
	o = o.withDefaults()
	t := Table{ID: "fig7", Title: "MT Ray Tracer improvement vs thread count",
		Header: []string{"threads", "improvement", "paper(MP)"}}
	for _, n := range rtThreads {
		imp, err := o.MeasureImprovement(workload.MTRayTracer(n),
			o.config(gengc.Generational, defaultYoung, defaultCard, 0))
		if err != nil {
			return t, err
		}
		t.AddRow(fmt.Sprint(n), pct(imp.Percent), pct(paperFig7[n]))
	}
	t.Notes = append(t.Notes, "measured on "+CurrentHost().Fingerprint()+
		"; see EXPERIMENTS.md on the MP/UP condition")
	return t, nil
}

// Fig8 regenerates Figure 8: the Anagram improvement.
func (o Options) Fig8() (Table, error) {
	o = o.withDefaults()
	t := Table{ID: "fig8", Title: "Anagram improvement",
		Header: []string{"benchmark", "improvement", "paper(MP)", "paper(UP)"}}
	imp, err := o.MeasureImprovement(workload.Anagram(),
		o.config(gengc.Generational, defaultYoung, defaultCard, 0))
	if err != nil {
		return t, err
	}
	t.AddRow("Anagram", pct(imp.Percent), pct(paperFig8.MP), pct(paperFig8.UP))
	return t, nil
}

// Fig9 regenerates Figure 9: SPECjvm improvements.
func (o Options) Fig9() (Table, error) {
	o = o.withDefaults()
	t := Table{ID: "fig9", Title: "SPECjvm improvement",
		Header: []string{"benchmark", "improvement", "paper(MP)", "paper(UP)"}}
	for _, p := range workload.SPEC() {
		imp, err := o.MeasureImprovement(p,
			o.config(gengc.Generational, defaultYoung, defaultCard, 0))
		if err != nil {
			return t, err
		}
		ref := paperFig9[p.Name]
		t.AddRow(p.Name, pct(imp.Percent), pct(ref.MP), pct(ref.UP))
	}
	return t, nil
}

// Characterization holds the per-profile paired runs that Figures 10–15
// are derived from.
type Characterization struct {
	Profile string
	Gen     workload.Result
	NonGen  workload.Result
}

// Characterize runs every profile once under the default generational
// configuration and once under the baseline, with page tracking on.
func (o Options) Characterize() ([]Characterization, error) {
	o = o.withDefaults()
	o.TrackPages = true
	// Characterization tables are single-run measurements in the
	// paper as well ("running a single copy of the application").
	o.Repeats = 1
	var out []Characterization
	for _, p := range append(workload.SPEC(), workload.Anagram()) {
		imp, err := o.MeasureImprovement(p,
			o.config(gengc.Generational, defaultYoung, defaultCard, 0))
		if err != nil {
			return nil, err
		}
		out = append(out, Characterization{Profile: p.Name, Gen: imp.Gen, NonGen: imp.NonGen})
	}
	return out, nil
}

// Fig10 regenerates Figure 10: use of garbage collection.
func Fig10(chs []Characterization) Table {
	t := Table{ID: "fig10", Title: "Use of garbage collection in application",
		Header: []string{"benchmark", "%GC", "partial", "full", "%GC w/o gen", "cycles w/o gen",
			"paper:%GC", "p:part", "p:full", "p:%GC-ng", "p:cyc-ng"}}
	for _, ch := range chs {
		ref := paperFig10[ch.Profile]
		t.AddRow(ch.Profile,
			pct(ch.Gen.Summary.GCActivePct),
			fmt.Sprint(ch.Gen.Summary.NumPartial),
			fmt.Sprint(ch.Gen.Summary.NumFull),
			pct(ch.NonGen.Summary.GCActivePct),
			fmt.Sprint(ch.NonGen.Summary.NumCycles),
			pct(ref.GCPct), fmt.Sprint(ref.Partials), fmt.Sprint(ref.Fulls),
			pct(ref.GCPctNG), fmt.Sprint(ref.CyclesNG))
	}
	t.Notes = append(t.Notes,
		"on one CPU the collector's wall time overlaps mutator execution, inflating %GC against the paper's 4-way host")
	return t
}

// Fig11 regenerates Figure 11: objects scanned.
func Fig11(chs []Characterization) Table {
	t := Table{ID: "fig11", Title: "Generational characterization part 1: objects scanned",
		Header: []string{"benchmark", "inter-gen", "partial", "full", "w/o gen",
			"p:ig", "p:part", "p:full", "p:ng"}}
	for _, ch := range chs {
		ref := paperFig11[ch.Profile]
		full := "N/A"
		if ch.Gen.Summary.NumFull > 0 {
			full = f0(ch.Gen.Summary.AvgScannedFull)
		}
		pfull := "N/A"
		if ref.Full >= 0 {
			pfull = f0(ref.Full)
		}
		t.AddRow(ch.Profile,
			f0(ch.Gen.Summary.AvgInterGenScanned),
			f0(ch.Gen.Summary.AvgScannedPartial),
			full,
			f0(avgScannedAll(ch.NonGen)),
			f0(ref.InterGen), f0(ref.Partial), pfull, f0(ref.NonGen))
	}
	return t
}

func avgScannedAll(r workload.Result) float64 {
	if r.Summary.NumCycles == 0 {
		return 0
	}
	return float64(r.Summary.ObjectsScanned) / float64(r.Summary.NumCycles)
}

// Fig12 regenerates Figure 12: percentage freed.
func Fig12(chs []Characterization) Table {
	t := Table{ID: "fig12", Title: "Generational characterization part 2: percentage freed",
		Header: []string{"benchmark", "%bytes partial", "%objs partial", "%objs full", "%objs w/o gen",
			"p:%bytes", "p:%objs", "p:full", "p:ng"}}
	for _, ch := range chs {
		ref := paperFig12[ch.Profile]
		full := "N/A"
		if ch.Gen.Summary.NumFull > 0 {
			full = pct(ch.Gen.Summary.PctObjsFreedFull)
		}
		pfull := "N/A"
		if ref.ObjsFull >= 0 {
			pfull = pct(ref.ObjsFull)
		}
		t.AddRow(ch.Profile,
			pct(ch.Gen.Summary.PctBytesFreedPartial),
			pct(ch.Gen.Summary.PctObjsFreedPartial),
			full,
			pct(ch.NonGen.Summary.PctObjsFreedFull),
			pct(ref.BytesPartial), pct(ref.ObjsPartial), pfull, pct(ref.ObjsNonGen))
	}
	return t
}

// Fig13 regenerates Figure 13: elapsed time of collection cycles.
func Fig13(chs []Characterization) Table {
	t := Table{ID: "fig13", Title: "Elapsed time of collection cycles (ms)",
		Header: []string{"benchmark", "partial", "full", "w/o gen", "p:part", "p:full", "p:ng"}}
	for _, ch := range chs {
		ref := paperFig13[ch.Profile]
		full := "N/A"
		if ch.Gen.Summary.NumFull > 0 {
			full = f1(ch.Gen.Summary.AvgTimeFull.Seconds() * 1000)
		}
		pfull := "N/A"
		if ref.Full >= 0 {
			pfull = f0(ref.Full)
		}
		t.AddRow(ch.Profile,
			f1(ch.Gen.Summary.AvgTimePartial.Seconds()*1000),
			full,
			f1(ch.NonGen.Summary.AvgTimeFull.Seconds()*1000),
			f0(ref.Partial), pfull, f0(ref.NonGen))
	}
	return t
}

// Fig14 regenerates Figure 14: average gain from collections.
func Fig14(chs []Characterization) Table {
	t := Table{ID: "fig14", Title: "Average gain from collections",
		Header: []string{"benchmark", "objs/partial", "objs/full", "objs w/o gen",
			"bytes/partial", "bytes/full", "bytes w/o gen"}}
	for _, ch := range chs {
		full, fullB := "N/A", "N/A"
		if ch.Gen.Summary.NumFull > 0 {
			full = f0(ch.Gen.Summary.AvgFreedObjsFull)
			fullB = f0(ch.Gen.Summary.AvgFreedBytesFull)
		}
		t.AddRow(ch.Profile,
			f0(ch.Gen.Summary.AvgFreedObjsPartial),
			full,
			f0(ch.NonGen.Summary.AvgFreedObjsFull),
			f0(ch.Gen.Summary.AvgFreedBytesPartial),
			fullB,
			f0(ch.NonGen.Summary.AvgFreedBytesFull))
	}
	return t
}

// Fig15 regenerates Figure 15: pages touched per collection.
func Fig15(chs []Characterization) Table {
	t := Table{ID: "fig15", Title: "Average pages touched by a GC",
		Header: []string{"benchmark", "partial", "full", "w/o gen", "p:part", "p:full", "p:ng"}}
	for _, ch := range chs {
		ref := paperFig15[ch.Profile]
		full := "N/A"
		if ch.Gen.Summary.NumFull > 0 {
			full = f0(ch.Gen.Summary.AvgPagesFull)
		}
		pfull := "N/A"
		if ref.Full >= 0 {
			pfull = f0(ref.Full)
		}
		t.AddRow(ch.Profile,
			f0(ch.Gen.Summary.AvgPagesPartial),
			full,
			f0(ch.NonGen.Summary.AvgPagesFull),
			f0(ref.Partial), pfull, f0(ref.NonGen))
	}
	return t
}

// Fig16 regenerates Figure 16: tuning the young generation size for the
// multithreaded Ray Tracer (block and object marking × 1/2/4/8 MB).
func (o Options) Fig16() (Table, error) {
	o = o.withDefaults()
	t := Table{ID: "fig16", Title: "Young-size tuning, MT Ray Tracer (improvement %)",
		Header: []string{"config", "2", "4", "6", "8", "10 threads"}}
	for _, card := range []int{4096, 16} {
		name := "block"
		if card == 16 {
			name = "object"
		}
		for _, young := range youngSizes {
			row := []string{fmt.Sprintf("%s marking, %dm young", name, young>>20)}
			for _, n := range rtThreads {
				imp, err := o.MeasureImprovement(workload.MTRayTracer(n),
					o.config(gengc.Generational, young, card, 0))
				if err != nil {
					return t, err
				}
				row = append(row, f1(imp.Percent))
			}
			t.AddRow(row...)
		}
	}
	return t, nil
}

// Fig17 regenerates Figure 17: young-size tuning for SPECjvm and
// Anagram.
func (o Options) Fig17() (Table, error) {
	o = o.withDefaults()
	t := Table{ID: "fig17", Title: "Young-size tuning, SPECjvm + Anagram (improvement %)",
		Header: []string{"benchmark", "blk 1m", "blk 2m", "blk 4m", "blk 8m",
			"obj 1m", "obj 2m", "obj 4m", "obj 8m"}}
	for _, p := range append(workload.SPEC(), workload.Anagram()) {
		row := []string{p.Name}
		for _, card := range []int{4096, 16} {
			for _, young := range youngSizes {
				imp, err := o.MeasureImprovement(p,
					o.config(gengc.Generational, young, card, 0))
				if err != nil {
					return t, err
				}
				row = append(row, f1(imp.Percent))
			}
		}
		t.AddRow(row...)
	}
	return t, nil
}

// FigAging regenerates Figures 18 and 19: the aging mechanism versus
// the non-generational collector, for tenure thresholds 4/6/8/10
// (paper's age counting) across young generation sizes.
func (o Options) FigAging() (Table, error) {
	o = o.withDefaults()
	t := Table{ID: "fig18-19", Title: "Aging improvement over non-generational (object marking)",
		Header: []string{"benchmark", "age", "1m", "2m", "4m", "8m"}}
	for _, p := range append(workload.SPEC(), workload.Anagram()) {
		for _, age := range agingThresholds {
			row := []string{p.Name, fmt.Sprint(age)}
			for _, young := range youngSizes {
				imp, err := o.MeasureImprovement(p,
					o.config(gengc.GenerationalAging, young, defaultCard, age-1))
				if err != nil {
					return t, err
				}
				row = append(row, f1(imp.Percent))
			}
			t.AddRow(row...)
		}
	}
	t.Notes = append(t.Notes, "paper age N = object tenured after N-1 survived collections (allocation age differs by one)")
	return t, nil
}

// Fig20 regenerates Figure 20: the overhead of the aging mechanism with
// 2 ages (i.e. the same promotion decision as the simple scheme) over
// simple promotion.
func (o Options) Fig20() (Table, error) {
	o = o.withDefaults()
	t := Table{ID: "fig20", Title: "Aging with 2 ages vs simple promotion (improvement %)",
		Header: []string{"benchmark", "1m", "2m", "4m", "8m"}}
	for _, p := range append(workload.SPEC(), workload.Anagram()) {
		row := []string{p.Name}
		for _, young := range youngSizes {
			rel, err := o.MeasureRelative(p,
				o.config(gengc.GenerationalAging, young, defaultCard, 1),
				o.config(gengc.Generational, young, defaultCard, 0))
			if err != nil {
				return t, err
			}
			row = append(row, f1(rel))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// CardSweep holds one profile's generational runs across card sizes,
// plus the non-generational baseline; Figures 21–23 derive from it.
type CardSweep struct {
	Profile  string
	ByCard   map[int]workload.Result
	Baseline time.Duration // averaged non-generational elapsed
	GenAvg   map[int]time.Duration
}

// SweepCards runs the §8.5.3 card-size sweep.
func (o Options) SweepCards() ([]CardSweep, error) {
	o = o.withDefaults()
	var out []CardSweep
	for _, p := range append(workload.SPEC(), workload.Anagram()) {
		cs := CardSweep{Profile: p.Name,
			ByCard: map[int]workload.Result{},
			GenAvg: map[int]time.Duration{}}
		_, nonAvg, err := o.runAveraged(p, o.config(gengc.NonGenerational, defaultYoung, defaultCard, 0))
		if err != nil {
			return nil, err
		}
		cs.Baseline = nonAvg
		for _, card := range cardSizes {
			res, avg, err := o.runAveraged(p, o.config(gengc.Generational, defaultYoung, card, 0))
			if err != nil {
				return nil, err
			}
			cs.ByCard[card] = res
			cs.GenAvg[card] = avg
		}
		out = append(out, cs)
	}
	return out, nil
}

// Fig21 renders the card-size improvement table.
func Fig21(sweeps []CardSweep) Table {
	t := Table{ID: "fig21", Title: "Improvement by card size (4m young, %)",
		Header: cardHeader("benchmark", "p:16", "p:4096")}
	for _, cs := range sweeps {
		row := []string{cs.Profile}
		for _, card := range cardSizes {
			imp := 100 * (cs.Baseline - cs.GenAvg[card]).Seconds() / cs.Baseline.Seconds()
			row = append(row, f1(imp))
		}
		ref := paperFig21[cs.Profile]
		row = append(row, f1(ref.At16), f1(ref.At4096))
		t.AddRow(row...)
	}
	return t
}

// Fig22 renders the dirty-card percentage table.
func Fig22(sweeps []CardSweep) Table {
	t := Table{ID: "fig22", Title: "Percentage of dirty cards from allocated cards",
		Header: cardHeader("benchmark", "p:16", "p:4096")}
	for _, cs := range sweeps {
		row := []string{cs.Profile}
		for _, card := range cardSizes {
			row = append(row, f1(cs.ByCard[card].Summary.AvgDirtyCardPct))
		}
		ref := paperFig22[cs.Profile]
		row = append(row, f1(ref.At16), f1(ref.At4096))
		t.AddRow(row...)
	}
	return t
}

// Fig23 renders the area-scanned table (KB scanned on dirty cards per
// partial collection; the paper's unit is also an area).
func Fig23(sweeps []CardSweep) Table {
	t := Table{ID: "fig23", Title: "Area scanned for dirty cards (KB per partial)",
		Header: cardHeader("benchmark")}
	for _, cs := range sweeps {
		row := []string{cs.Profile}
		for _, card := range cardSizes {
			row = append(row, f1(cs.ByCard[card].Summary.AvgAreaScanned/1024))
		}
		t.AddRow(row...)
	}
	return t
}

func cardHeader(first string, extra ...string) []string {
	h := []string{first}
	for _, c := range cardSizes {
		h = append(h, fmt.Sprint(c))
	}
	return append(h, extra...)
}
