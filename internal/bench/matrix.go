package bench

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"gengc"
	"gengc/internal/workload"
)

// This file is the contention-matrix harness behind cmd/gcsweep: one
// sweep over mutators × collector Workers × workload contention level,
// producing the versioned BENCH_matrix.json report (schema:
// BENCHMARKS.md). The sweep exists to answer the question the
// single-experiment harnesses cannot: how the tiered allocator, the
// write barrier and the card table behave as skewed pointer-mutation
// traffic and thread counts rise together.

// MatrixSchema identifies the BENCH_matrix.json format; bump
// MatrixSchemaVersion on any incompatible field change and record the
// change in BENCHMARKS.md.
const (
	MatrixSchema        = "gengc/bench-matrix"
	MatrixSchemaVersion = 3
)

// HostMeta is the host-metadata stanza stamped into every matrix
// report. Fingerprint determines baseline comparability: ns/op numbers
// from hosts with different parallelism or architecture are not
// comparable, so regression checks refuse to run across fingerprints.
type HostMeta struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GoMaxProcs int    `json:"gomaxprocs"`
	NumCPU     int    `json:"numcpu"`
}

// CurrentHost captures the running host's metadata.
func CurrentHost() HostMeta {
	return HostMeta{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
	}
}

// Fingerprint is the baseline-matching key: platform and parallelism,
// but not the Go toolchain patch level (minor toolchain drift moves
// ns/op far less than the regression tolerance; the full go version is
// still recorded in the report for the reader).
func (h HostMeta) Fingerprint() string {
	return fmt.Sprintf("%s/%s gomaxprocs=%d numcpu=%d", h.GOOS, h.GOARCH, h.GoMaxProcs, h.NumCPU)
}

// MatrixVariant is one workload leg of the sweep: a named profile at a
// named contention level. NewRun builds the per-thread run function;
// the harness offsets seed per thread and per pass so repeats measure
// the same work without literally replaying one PRNG stream across
// mutators.
type MatrixVariant struct {
	Profile    string
	Contention string
	NewRun     func(seed int64) func(m *gengc.Mutator, ops int) error
}

// MatrixVariants expands profile names ("churn", "zipf", "auction")
// into the matrix's contention-level variants:
//
//   - churn: the uniform store-dominated BarrierChurn loop, contention
//     low = 64 base objects, high = 8 (the fan of stores concentrates
//     on 8 hot cards).
//   - zipf: ZipfChurn at skew s ∈ {0.6, 0.9, 1.2} — the contention
//     axis is the popularity skew itself.
//   - auction: the Auction mix, low = 512 items at s=0.9, high = 64
//     items at s=1.2.
func MatrixVariants(profiles []string) ([]MatrixVariant, error) {
	var out []MatrixVariant
	for _, p := range profiles {
		switch p {
		case "churn":
			for _, v := range []struct {
				label string
				base  int
			}{{"low", 64}, {"high", 8}} {
				churn := workload.BarrierChurn{BaseObjects: v.base}
				out = append(out, MatrixVariant{
					Profile: "churn", Contention: v.label,
					NewRun: func(int64) func(*gengc.Mutator, int) error {
						return churn.RunThread
					},
				})
			}
		case "zipf":
			for _, s := range []float64{0.6, 0.9, 1.2} {
				s := s
				out = append(out, MatrixVariant{
					Profile: "zipf", Contention: fmt.Sprintf("s=%.1f", s),
					NewRun: func(seed int64) func(*gengc.Mutator, int) error {
						return workload.ZipfChurn{Skew: s, Seed: seed}.RunThread
					},
				})
			}
		case "auction":
			for _, v := range []struct {
				label string
				items int
				skew  float64
			}{{"low", 512, 0.9}, {"high", 64, 1.2}} {
				v := v
				out = append(out, MatrixVariant{
					Profile: "auction", Contention: v.label,
					NewRun: func(seed int64) func(*gengc.Mutator, int) error {
						return workload.Auction{Items: v.items, Skew: v.skew, Seed: seed}.RunThread
					},
				})
			}
		default:
			return nil, fmt.Errorf("unknown matrix profile %q (want churn, zipf or auction)", p)
		}
	}
	return out, nil
}

// MatrixSpec parameterizes one sweep.
type MatrixSpec struct {
	Mutators []int           // mutator thread counts
	Workers  []int           // collector worker counts (WithWorkers)
	Variants []MatrixVariant // workload × contention legs

	// TotalOps is the per-run operation budget, split evenly across the
	// cell's mutators so every cell performs the same total work.
	TotalOps int

	// Passes is how many times the whole matrix is measured. Passes are
	// interleaved — pass 2 starts only after pass 1 has visited every
	// cell — so slow host drift (thermal, page cache, background load)
	// spreads across all cells instead of landing on whichever cells
	// were measured last; each cell reports the per-metric median of
	// its passes.
	Passes int

	Seed                  int64
	HeapBytes, YoungBytes int

	// Progress receives one line per completed cell pass (nil = quiet).
	Progress func(string)
}

func (s MatrixSpec) withDefaults() MatrixSpec {
	if s.TotalOps == 0 {
		// Enough for the least allocation-intensive variant (the
		// auction mix) to cross the young-generation trigger several
		// times at the default YoungBytes.
		s.TotalOps = 60_000
	}
	if s.Passes == 0 {
		s.Passes = 2
	}
	if s.Seed == 0 {
		s.Seed = 20000620 // PLDI 2000
	}
	if s.HeapBytes == 0 {
		s.HeapBytes = 32 << 20
	}
	if s.YoungBytes == 0 {
		s.YoungBytes = 1 << 20
	}
	return s
}

func (s MatrixSpec) validate() error {
	if len(s.Mutators) == 0 || len(s.Workers) == 0 || len(s.Variants) == 0 {
		return fmt.Errorf("matrix: every axis needs at least one value")
	}
	for _, m := range s.Mutators {
		if m <= 0 {
			return fmt.Errorf("matrix: bad mutator count %d", m)
		}
	}
	return nil
}

// MatrixCell is one measured configuration: the cell coordinates, the
// throughput and pause/cycle distributions, and the contention counters
// read from Runtime.Snapshot. All metrics are per-pass medians.
type MatrixCell struct {
	Profile    string `json:"profile"`
	Contention string `json:"contention"`
	Mutators   int    `json:"mutators"`
	Workers    int    `json:"workers"`

	NsPerOp float64 `json:"ns_per_op"`

	// Fleet-wide mutator pause quantiles (the on-the-fly property under
	// load), in nanoseconds.
	PauseP50Ns  int64 `json:"pause_p50_ns"`
	PauseP99Ns  int64 `json:"pause_p99_ns"`
	PauseP999Ns int64 `json:"pause_p999_ns"`

	// Collection-cycle behavior: completed cycles per run and the
	// mean/max clear-to-sweep-end elapsed time.
	Cycles      int64 `json:"cycles"`
	CycleMeanNs int64 `json:"cycle_mean_ns"`
	CycleMaxNs  int64 `json:"cycle_max_ns"`

	// Contention counter (run total): contended allocator lock
	// acquisitions across tiers.
	AllocContended int64 `json:"alloc_contended"`

	Passes int `json:"passes"`
}

// Key is the cell's identity in baseline maps:
// "profile/contention/m<mutators>/w<workers>".
func (c MatrixCell) Key() string {
	return fmt.Sprintf("%s/%s/m%d/w%d",
		c.Profile, c.Contention, c.Mutators, c.Workers)
}

// MatrixBaseline is an embedded reference run: the fingerprint of the
// host that produced it and its per-cell ns/op map (keys from
// MatrixCell.Key). The regression gate does not compare the absolute
// values cell by cell — see CompareBaseline for the shape-normalized
// comparison it actually performs; the raw map is kept so the reference
// numbers stay readable and regenerable.
type MatrixBaseline struct {
	Fingerprint string             `json:"fingerprint"`
	NsPerOp     map[string]float64 `json:"ns_per_op"`
}

// MatrixReport is the BENCH_matrix.json document; see BENCHMARKS.md for
// the field-by-field schema and the baseline-matching rules.
type MatrixReport struct {
	Schema        string   `json:"schema"`
	SchemaVersion int      `json:"schema_version"`
	Generated     string   `json:"generated"`
	Host          HostMeta `json:"host"`

	TotalOps   int   `json:"total_ops_per_run"`
	Passes     int   `json:"passes"`
	Seed       int64 `json:"seed"`
	HeapBytes  int   `json:"heap_bytes"`
	YoungBytes int   `json:"young_bytes"`

	Cells []MatrixCell `json:"cells"`

	// Baseline bookkeeping: the embedded baseline this run was checked
	// against (if any) and the outcome — "applied", "refused: host
	// fingerprint mismatch (...)", or "none embedded". A refused
	// comparison is not a failure: it means the numbers must not be
	// read against the baseline, per the cross-host rule.
	Baseline           *MatrixBaseline `json:"baseline,omitempty"`
	BaselineComparison string          `json:"baseline_comparison"`

	// Regressions lists everything flagged: profile/contention groups
	// whose shape-normalized median ns/op exceeded the baseline
	// tolerance, and cells that failed the host-independent sanity
	// checks. Non-empty ⇒ cmd/gcsweep exits 2.
	Regressions []string `json:"regressions"`
}

// oneRun measures a single cell pass: a fresh runtime, TotalOps split
// across the mutator threads, snapshot and cycle records on shutdown.
type oneRun struct {
	nsPerOp             float64
	p50, p99, p999      int64
	cycles              int64
	cycleMean, cycleMax int64
	contended           int64
}

func (s MatrixSpec) runCell(v MatrixVariant, muts, workers, pass int) (oneRun, error) {
	rt, err := gengc.New(
		gengc.WithMode(gengc.Generational),
		gengc.WithHeapBytes(s.HeapBytes),
		gengc.WithYoungBytes(s.YoungBytes),
		gengc.WithWorkers(workers),
	)
	if err != nil {
		return oneRun{}, err
	}
	defer rt.Close()

	per := s.TotalOps / muts
	if per == 0 {
		per = 1
	}
	var wg sync.WaitGroup
	errs := make(chan error, muts)
	start := time.Now()
	for id := 0; id < muts; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			m := rt.NewMutator()
			defer m.Detach()
			seed := s.Seed + int64(id)*7919 + int64(pass)*104729
			if err := v.NewRun(seed)(m, per); err != nil {
				errs <- err
			}
		}(id)
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(errs)
	for err := range errs {
		return oneRun{}, err
	}
	rt.Close()

	snap := rt.Snapshot()
	r := oneRun{
		nsPerOp:   float64(elapsed.Nanoseconds()) / float64(per*muts),
		p50:       snap.Fleet.P50.Nanoseconds(),
		p99:       snap.Fleet.P99.Nanoseconds(),
		p999:      snap.Fleet.P999.Nanoseconds(),
		contended: snap.Alloc.Contended(),
	}
	var sum, max int64
	recs := rt.Cycles()
	for _, c := range recs {
		d := c.Duration.Nanoseconds()
		sum += d
		if d > max {
			max = d
		}
	}
	r.cycles = int64(len(recs))
	if len(recs) > 0 {
		r.cycleMean = sum / int64(len(recs))
	}
	r.cycleMax = max
	return r, nil
}

// medianF returns the median of xs (sorted in place); medianI likewise
// for int64.
func medianF(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

func medianI(xs []int64) int64 {
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// RunMatrix executes the sweep and returns the report (without baseline
// comparison — callers apply CompareBaseline and Sanity, then stamp
// Generated). The host's Go runtime GC is disabled for the duration, as
// in every other experiment in this repo.
func RunMatrix(spec MatrixSpec) (*MatrixReport, error) {
	spec = spec.withDefaults()
	if err := spec.validate(); err != nil {
		return nil, err
	}

	type coords struct {
		v             MatrixVariant
		muts, workers int
	}
	var cells []coords
	for _, v := range spec.Variants {
		for _, m := range spec.Mutators {
			for _, w := range spec.Workers {
				cells = append(cells, coords{v, m, w})
			}
		}
	}
	runs := make([][]oneRun, len(cells))
	for pass := 0; pass < spec.Passes; pass++ {
		for i, c := range cells {
			r, err := spec.runCell(c.v, c.muts, c.workers, pass)
			if err != nil {
				return nil, fmt.Errorf("matrix cell %s/%s m%d w%d pass %d: %w",
					c.v.Profile, c.v.Contention, c.muts, c.workers, pass, err)
			}
			runs[i] = append(runs[i], r)
			if spec.Progress != nil {
				spec.Progress(fmt.Sprintf("pass %d/%d %-8s %-6s m%d w%d %8.1f ns/op",
					pass+1, spec.Passes, c.v.Profile, c.v.Contention,
					c.muts, c.workers, r.nsPerOp))
			}
		}
	}

	rep := &MatrixReport{
		Schema:        MatrixSchema,
		SchemaVersion: MatrixSchemaVersion,
		Host:          CurrentHost(),
		TotalOps:      spec.TotalOps,
		Passes:        spec.Passes,
		Seed:          spec.Seed,
		HeapBytes:     spec.HeapBytes,
		YoungBytes:    spec.YoungBytes,
	}
	for i, c := range cells {
		var ns []float64
		var p50, p99, p999, cyc, cmean, cmax, cont []int64
		for _, r := range runs[i] {
			ns = append(ns, r.nsPerOp)
			p50 = append(p50, r.p50)
			p99 = append(p99, r.p99)
			p999 = append(p999, r.p999)
			cyc = append(cyc, r.cycles)
			cmean = append(cmean, r.cycleMean)
			cmax = append(cmax, r.cycleMax)
			cont = append(cont, r.contended)
		}
		rep.Cells = append(rep.Cells, MatrixCell{
			Profile:        c.v.Profile,
			Contention:     c.v.Contention,
			Mutators:       c.muts,
			Workers:        c.workers,
			NsPerOp:        medianF(ns),
			PauseP50Ns:     medianI(p50),
			PauseP99Ns:     medianI(p99),
			PauseP999Ns:    medianI(p999),
			Cycles:         medianI(cyc),
			CycleMeanNs:    medianI(cmean),
			CycleMaxNs:     medianI(cmax),
			AllocContended: medianI(cont),
			Passes:         spec.Passes,
		})
	}
	return rep, nil
}

// groupOfKey extracts the profile/contention group from a cell key
// ("churn/high/m2/w1" → "churn/high").
func groupOfKey(key string) string {
	parts := strings.SplitN(key, "/", 3)
	if len(parts) < 3 {
		return key
	}
	return parts[0] + "/" + parts[1]
}

// CompareBaseline checks this run's matrix *shape* against the embedded
// baseline. The comparison is refused outright — no regressions,
// comparison marked — when the baseline's host fingerprint differs from
// this run's: cross-host ns/op comparison is exactly the
// unreproducible-number failure mode this harness exists to kill.
//
// Even on the matching host, absolute ns/op swings run to run with
// whatever else the machine is doing (measured on the 1-CPU reference
// container: ~50% median whole-run drift between back-to-back full
// sweeps). What *is* stable is the shape of the matrix — each cell's
// ns/op divided by the run's median ns/op (measured drift of the
// per-group medians of that ratio: ≤ ~30%). So both sides are
// normalized by their own median over the overlapping cells, aggregated
// to profile/contention group medians, and a regression is flagged per
// group whose normalized median grew by more than tolerancePct. A
// uniform whole-matrix slowdown is invisible to this gate by
// construction — it is indistinguishable from host load; the absolute
// per-cell numbers stay in the report and baseline for human reading,
// and the single-configuration experiments (gcbench) gate absolute
// throughput.
func (r *MatrixReport) CompareBaseline(b MatrixBaseline, tolerancePct float64) {
	if len(b.NsPerOp) == 0 {
		r.BaselineComparison = "none embedded"
		return
	}
	r.Baseline = &b
	if fp := r.Host.Fingerprint(); fp != b.Fingerprint {
		r.BaselineComparison = fmt.Sprintf(
			"refused: host fingerprint mismatch (run %q vs baseline %q) — ns/op is not comparable across hosts",
			fp, b.Fingerprint)
		return
	}
	// Restrict both sides to the overlapping cells, so partial sweeps
	// (-smoke, custom axes) compare against the matching slice of the
	// baseline with both medians computed over the same cell set.
	var keys []string
	cur := map[string]float64{}
	for _, c := range r.Cells {
		if base, ok := b.NsPerOp[c.Key()]; ok && base > 0 && c.NsPerOp > 0 {
			keys = append(keys, c.Key())
			cur[c.Key()] = c.NsPerOp
		}
	}
	if len(keys) < 2 {
		r.BaselineComparison = fmt.Sprintf(
			"refused: only %d cells overlap the baseline — shape comparison needs at least 2", len(keys))
		return
	}
	curAll := make([]float64, 0, len(keys))
	baseAll := make([]float64, 0, len(keys))
	for _, k := range keys {
		curAll = append(curAll, cur[k])
		baseAll = append(baseAll, b.NsPerOp[k])
	}
	curMed, baseMed := medianF(curAll), medianF(baseAll)
	curG := map[string][]float64{}
	baseG := map[string][]float64{}
	for _, k := range keys {
		g := groupOfKey(k)
		curG[g] = append(curG[g], cur[k]/curMed)
		baseG[g] = append(baseG[g], b.NsPerOp[k]/baseMed)
	}
	groups := make([]string, 0, len(curG))
	for g := range curG {
		groups = append(groups, g)
	}
	sort.Strings(groups)
	r.BaselineComparison = fmt.Sprintf(
		"applied (shape-normalized, %d groups over %d cells)", len(groups), len(keys))
	for _, g := range groups {
		cm, bm := medianF(curG[g]), medianF(baseG[g])
		if bm <= 0 {
			continue
		}
		if cm > bm*(1+tolerancePct/100) {
			r.Regressions = append(r.Regressions, fmt.Sprintf(
				"group %s: normalized median ns/op %.3f vs baseline %.3f (+%.1f%%, tolerance %.0f%%)",
				g, cm, bm, (cm/bm-1)*100, tolerancePct))
		}
	}
}

// Sanity appends host-independent structural checks — the ones that
// still gate CI when the baseline comparison is refused: every cell
// must have completed at least one collection cycle (a cell that never
// collects measured nothing about the collector).
func (r *MatrixReport) Sanity() {
	for _, c := range r.Cells {
		if c.Cycles == 0 {
			r.Regressions = append(r.Regressions,
				fmt.Sprintf("%s: run completed without a single collection cycle (ops budget too small)", c.Key()))
		}
	}
}
