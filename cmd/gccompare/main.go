// Command gccompare measures one profile's modeled time (bench.Modeled)
// under the generational and non-generational collectors in N
// alternating pairs, as gcbench's figures do, and reports the median
// improvement, the pairs won and the unclaimed wall-clock improvement —
// one cell of the paper's Figures 8, 9 and 16–21, runnable in isolation.
//
//	gccompare -profile Anagram -repeats 5 -scale 0.5
//	gccompare -profile all
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"gengc"
	"gengc/internal/bench"
	"gengc/internal/workload"
)

func main() {
	var (
		profile  = flag.String("profile", "all", "profile name, or 'all'")
		scale    = flag.Float64("scale", 0.5, "run-length multiplier")
		repeats  = flag.Int("repeats", 5, "repeats per configuration (alternating pairs; median reported)")
		cardSize = flag.Int("card", 16, "card size in bytes")
		youngMB  = flag.Int("young", 4, "young generation size in MB")
		aging    = flag.Bool("aging", false, "compare the aging collector instead of simple promotion")
		oldAge   = flag.Int("age", 0, "aging tenure threshold (0 = default)")
		seed     = flag.Int64("seed", 42, "base workload seed")
	)
	flag.Parse()
	if *repeats < 1 {
		log.Fatalf("-repeats %d: need at least one run per configuration", *repeats)
	}

	names := []string{*profile}
	if *profile == "all" {
		names = nil
		for _, p := range workload.All() {
			names = append(names, p.Name)
		}
	}
	genMode := gengc.Generational
	if *aging {
		genMode = gengc.GenerationalAging
	}
	o := bench.Options{Scale: *scale, Repeats: *repeats, Seed: *seed}
	for _, name := range names {
		p, ok := workload.ByName(name)
		if !ok {
			log.Fatalf("unknown profile %q", name)
		}
		imp, err := o.MeasureImprovement(p, gengc.Config{
			Mode:       genMode,
			CardBytes:  *cardSize,
			YoungBytes: *youngMB << 20,
			OldAge:     *oldAge,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-14s improvement %6.1f%% won %d/%d wall %6.1f%%   %v=%-9v [%s]   baseline=%-9v [%s]\n",
			name, imp.Percent, imp.PairsWon, *repeats, imp.WallPercent(),
			genMode, bench.Modeled(imp.Gen).Round(time.Millisecond), summary(imp.Gen),
			bench.Modeled(imp.NonGen).Round(time.Millisecond), summary(imp.NonGen))
	}
}

// summary describes the median run of one side.
func summary(res workload.Result) string {
	s := res.Summary
	return fmt.Sprintf("wall=%v %dp/%df maxpause=%v",
		res.Elapsed.Round(time.Millisecond), s.NumPartial, s.NumFull, res.Pauses.Max.Round(time.Microsecond))
}
