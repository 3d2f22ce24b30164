package bench

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"gengc"
	"gengc/internal/server"
)

// This file is the server-mode overload harness behind cmd/gcserve:
// the request engine of internal/server driven by the open-loop Poisson
// load generator across offered arrival rates, once with the admission
// controller armed and once naive, producing the versioned
// BENCH_server.json report (schema: BENCHMARKS.md §server). The
// experiment exists to demonstrate the robustness story end to end:
// under overload the admitted leg sheds load with a bounded completed-
// request latency tail and zero OOM, while the naive leg visibly
// breaches the request SLO (its queue grows without bound, so completed
// requests carry the queue wait) or exhausts the heap.
//
// Rates are derived from a capacity calibration on the running host —
// a closed-loop burst measuring sustainable completion throughput —
// so "2× sustainable" means the same thing on a laptop and a loaded CI
// container, and the regression gate can stay host-independent.

// ServerSchema identifies the BENCH_server.json format; bump
// ServerSchemaVersion on any incompatible field change and record the
// change in BENCHMARKS.md.
const (
	ServerSchema        = "gengc/bench-server"
	ServerSchemaVersion = 1
)

// HostMeta is the host-metadata stanza stamped into the report, so a
// reader knows what parallelism and platform the rates were calibrated
// on.
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

// Fingerprint is the one-line host summary: platform and parallelism,
// without the Go toolchain patch level.
func (h HostMeta) Fingerprint() string {
	return fmt.Sprintf("%s/%s gomaxprocs=%d numcpu=%d", h.GOOS, h.GOARCH, h.GoMaxProcs, h.NumCPU)
}

// ServerOptions parameterizes the sweep. Zero fields assume defaults.
type ServerOptions struct {
	// Multipliers are the offered-rate multiples of the calibrated
	// capacity, one pair of cells (admission on/off) per entry.
	// Default {0.5, 1, 2, 4} — the overload legs at 2× and 4× are the
	// acceptance criterion.
	Multipliers []float64

	// Duration is each cell's load-generation window.
	Duration time.Duration

	// Workers is the request-worker count.
	Workers int

	// HeapBytes/YoungBytes size the runtime; the defaults (12 MB /
	// 512 KB) keep the session state a live-set fraction large enough
	// that overload actually threatens the heap.
	HeapBytes  int
	YoungBytes int

	// SLO is the per-request latency objective. The admission leg also
	// uses it as each request's deadline; the naive leg measures
	// against it but never deadlines or sheds.
	SLO time.Duration

	// Objects/Slots/Size shape each request's allocated graph.
	Objects int
	Slots   int
	Size    int

	// LowFraction is the PriorityLow arrival share (degraded-mode shed
	// candidates).
	LowFraction float64

	Seed int64
}

func (o ServerOptions) withDefaults() ServerOptions {
	if len(o.Multipliers) == 0 {
		o.Multipliers = []float64{0.5, 1, 2, 4}
	}
	if o.Duration == 0 {
		o.Duration = 2 * time.Second
	}
	if o.Workers == 0 {
		o.Workers = 4
	}
	if o.HeapBytes == 0 {
		o.HeapBytes = 12 << 20
	}
	if o.YoungBytes == 0 {
		o.YoungBytes = 512 << 10
	}
	if o.SLO == 0 {
		o.SLO = 50 * time.Millisecond
	}
	if o.Objects == 0 {
		o.Objects = 96
	}
	if o.Slots == 0 {
		o.Slots = 2
	}
	if o.Size == 0 {
		o.Size = 128
	}
	if o.LowFraction == 0 {
		o.LowFraction = 0.25
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// ServerCell is one (rate, admission) leg's outcome.
type ServerCell struct {
	Multiplier float64 `json:"multiplier"`
	RatePerSec float64 `json:"rate_per_sec"`
	Admission  bool    `json:"admission"`

	Offered   int64 `json:"offered"`
	Completed int64 `json:"completed"`
	Shed      int64 `json:"shed"`
	Retries   int64 `json:"retries"`

	FailedOOM     int64 `json:"failed_oom"`
	FailedStalled int64 `json:"failed_stalled"`

	// GoodputPerSec is completed requests per second of load window.
	GoodputPerSec float64 `json:"goodput_per_sec"`

	// Completed-request latency quantiles in nanoseconds (end to end:
	// queue wait + allocation + retries).
	P50Ns  int64 `json:"p50_ns"`
	P99Ns  int64 `json:"p99_ns"`
	P999Ns int64 `json:"p999_ns"`
	MaxNs  int64 `json:"max_ns"`

	SLOBreaches    int64 `json:"slo_breaches"`
	DegradedEnters int64 `json:"degraded_enters"`
	FlightDumps    int64 `json:"flight_dumps"`
	Cycles         int64 `json:"cycles"`
	Fulls          int64 `json:"fulls"`
}

// ServerReport is the BENCH_server.json document.
type ServerReport struct {
	Schema        string   `json:"schema"`
	SchemaVersion int      `json:"schema_version"`
	Host          HostMeta `json:"host"`

	WorkersConf     int     `json:"workers"`
	HeapBytes       int     `json:"heap_bytes"`
	YoungBytes      int     `json:"young_bytes"`
	SLONs           int64   `json:"slo_ns"`
	DurationNs      int64   `json:"duration_ns"`
	Objects         int     `json:"objects"`
	ObjectSize      int     `json:"object_size"`
	LowFraction     float64 `json:"low_fraction"`
	CapacityPerSec  float64 `json:"capacity_per_sec"`
	CalibrationReqs int64   `json:"calibration_reqs"`

	Cells    []ServerCell `json:"cells"`
	Findings []string     `json:"findings"`

	// Regressions are the gate's failures (non-empty => exit 2).
	Regressions []string `json:"regressions"`
}

// RunServer calibrates capacity, sweeps rate × admission, and gates the
// result. logf (optional) receives one progress line per cell.
func RunServer(opts ServerOptions, logf func(format string, args ...any)) (*ServerReport, error) {
	opts = opts.withDefaults()
	if logf == nil {
		logf = func(string, ...any) {}
	}
	rep := &ServerReport{
		Schema:        ServerSchema,
		SchemaVersion: ServerSchemaVersion,
		Host:          CurrentHost(),
		WorkersConf:   opts.Workers,
		HeapBytes:     opts.HeapBytes,
		YoungBytes:    opts.YoungBytes,
		SLONs:         int64(opts.SLO),
		DurationNs:    int64(opts.Duration),
		Objects:       opts.Objects,
		ObjectSize:    opts.Size,
		LowFraction:   opts.LowFraction,
	}

	capacity, calReqs, err := calibrate(opts)
	if err != nil {
		return nil, fmt.Errorf("calibration: %w", err)
	}
	rep.CapacityPerSec = capacity
	rep.CalibrationReqs = calReqs
	logf("calibrated capacity: %.0f req/s (%d closed-loop requests)", capacity, calReqs)

	for _, mult := range opts.Multipliers {
		rate := capacity * mult
		for _, admit := range []bool{true, false} {
			cell, err := runServerCell(opts, mult, rate, admit)
			if err != nil {
				return nil, fmt.Errorf("cell x%.2g admission=%v: %w", mult, admit, err)
			}
			rep.Cells = append(rep.Cells, *cell)
			logf("x%-4.2g %7.0f req/s admission=%-5v goodput=%7.0f/s shed=%-6d oom=%-3d p99.9=%-12v breaches=%d",
				mult, rate, admit, cell.GoodputPerSec, cell.Shed, cell.FailedOOM,
				time.Duration(cell.P999Ns), cell.SLOBreaches)
		}
	}

	rep.Findings = serverFindings(rep)
	rep.Regressions = rep.Gate()
	return rep, nil
}

// calibrate measures sustainable completion throughput with a closed
// loop: enough requests to cover several collection cycles, submitted
// with admission off and consumed as fast as the workers go.
func calibrate(opts ServerOptions) (perSec float64, reqs int64, err error) {
	rt, err := newServerRuntime(opts, false)
	if err != nil {
		return 0, 0, err
	}
	s := server.New(rt, server.Config{Workers: opts.Workers, Seed: opts.Seed})
	const n = 600
	start := time.Now()
	for i := 0; i < n; i++ {
		if err := s.Submit(server.Request{
			Objects: opts.Objects, Slots: opts.Slots, Size: opts.Size,
		}); err != nil {
			_ = s.Drain(context.Background())
			return 0, 0, err
		}
	}
	if err := s.Drain(context.Background()); err != nil {
		return 0, 0, err
	}
	elapsed := time.Since(start)
	st := s.Stats()
	if st.Completed == 0 {
		return 0, 0, fmt.Errorf("calibration completed nothing")
	}
	return float64(st.Completed) / elapsed.Seconds(), st.Completed, nil
}

func newServerRuntime(opts ServerOptions, admit bool) (*gengc.Runtime, error) {
	ro := []gengc.Option{
		gengc.WithMode(gengc.Generational),
		gengc.WithHeapBytes(opts.HeapBytes),
		gengc.WithYoungBytes(opts.YoungBytes),
		gengc.WithRequestSLO(opts.SLO),
		gengc.WithFlightRecorder(256),
		gengc.WithStallTimeout(100 * time.Millisecond),
	}
	if admit {
		ro = append(ro, gengc.WithAdmission(gengc.AdmissionConfig{MaxQueue: 8 * opts.Workers}))
	}
	return gengc.New(ro...)
}

// runServerCell runs one (rate, admission) leg.
func runServerCell(opts ServerOptions, mult, rate float64, admit bool) (*ServerCell, error) {
	rt, err := newServerRuntime(opts, admit)
	if err != nil {
		return nil, err
	}
	s := server.New(rt, server.Config{Workers: opts.Workers, Seed: opts.Seed})

	tpl := server.Request{Objects: opts.Objects, Slots: opts.Slots, Size: opts.Size}
	if admit {
		// The admission leg gives every request the SLO as its
		// deadline: queue wait counts against it, so work that cannot
		// finish in time is abandoned instead of served late.
		tpl.Deadline = opts.SLO
	}
	load := server.RunLoad(context.Background(), s, server.LoadConfig{
		StartRate:   rate,
		Duration:    opts.Duration,
		BurstEvery:  opts.Duration / 4,
		BurstLen:    opts.Duration / 20,
		BurstFactor: 2,
		LowFraction: opts.LowFraction,
		Template:    tpl,
		Seed:        opts.Seed + int64(mult*1000) + boolSeed(admit),
	})

	drainCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(drainCtx); err != nil {
		return nil, err
	}
	st := s.Stats()
	snap := rt.Snapshot()
	req := snap.RequestLatency
	return &ServerCell{
		Multiplier:     mult,
		RatePerSec:     rate,
		Admission:      admit,
		Offered:        load.Offered,
		Completed:      st.Completed,
		Shed:           st.Shed,
		Retries:        st.Retries,
		FailedOOM:      st.FailedOOM,
		FailedStalled:  st.FailedStalled,
		GoodputPerSec:  float64(st.Completed) / opts.Duration.Seconds(),
		P50Ns:          int64(req.P50),
		P99Ns:          int64(req.P99),
		P999Ns:         int64(req.P999),
		MaxNs:          int64(req.Max),
		SLOBreaches:    snap.RequestSLOBreaches,
		DegradedEnters: snap.Admission.DegradedEnters,
		FlightDumps:    snap.FlightRecorderDumps,
		Cycles:         snap.Cycles,
		Fulls:          snap.Fulls,
	}, nil
}

func boolSeed(b bool) int64 {
	if b {
		return 7
	}
	return 13
}

// serverFindings distills the report into the sentences EXPERIMENTS.md
// quotes.
func serverFindings(rep *ServerReport) []string {
	var out []string
	top := topOverloadCells(rep)
	if top.adm != nil && top.naive != nil {
		out = append(out, fmt.Sprintf(
			"at %.1fx capacity the admitted leg completed %d requests (goodput %.0f/s, p99.9 %v, %d shed, %d OOM) while the naive leg completed %d (p99.9 %v, %d SLO breaches, %d OOM)",
			top.adm.Multiplier, top.adm.Completed, top.adm.GoodputPerSec,
			time.Duration(top.adm.P999Ns), top.adm.Shed, top.adm.FailedOOM,
			top.naive.Completed, time.Duration(top.naive.P999Ns),
			top.naive.SLOBreaches, top.naive.FailedOOM))
	}
	var admOOM, naiveOOM int64
	for i := range rep.Cells {
		c := &rep.Cells[i]
		if c.Admission {
			admOOM += c.FailedOOM
		} else {
			naiveOOM += c.FailedOOM
		}
	}
	out = append(out, fmt.Sprintf(
		"OOM failures across all rates: %d with admission, %d naive (shed-before-OOM: the controller must keep the left number at zero)",
		admOOM, naiveOOM))
	return out
}

type overloadPair struct{ adm, naive *ServerCell }

// topOverloadCells returns the admitted and naive cells at the highest
// overload multiplier (>= 2 if present, else the largest).
func topOverloadCells(rep *ServerReport) overloadPair {
	var p overloadPair
	best := 0.0
	for i := range rep.Cells {
		if m := rep.Cells[i].Multiplier; m > best {
			best = m
		}
	}
	for i := range rep.Cells {
		c := &rep.Cells[i]
		if c.Multiplier != best {
			continue
		}
		if c.Admission {
			p.adm = c
		} else {
			p.naive = c
		}
	}
	return p
}

// Gate applies the host-independent acceptance checks; any returned
// string is a regression (cmd/gcserve exits 2). The checks compare the
// two legs' *behavior classes*, not absolute latencies, so they hold on
// any host:
//
//  1. every admitted cell finishes with zero OOM failures and nonzero
//     completions (shed before OOM, never instead of serving);
//  2. the top overload admitted cell sheds (admission must actually
//     engage at >= 2x capacity);
//  3. every admitted cell's completed-request p99.9 stays within 4x
//     the SLO (the deadline-bounded tail — completed work is never
//     served arbitrarily late);
//  4. the top overload naive cell measurably misbehaves: it breaches
//     the SLO or OOMs (the contrast that justifies the controller).
func (rep *ServerReport) Gate() []string {
	var bad []string
	for i := range rep.Cells {
		c := &rep.Cells[i]
		if !c.Admission {
			continue
		}
		if c.FailedOOM > 0 {
			bad = append(bad, fmt.Sprintf(
				"admitted cell x%.2g: %d OOM failures (admission must shed before OOM)",
				c.Multiplier, c.FailedOOM))
		}
		if c.Completed == 0 {
			bad = append(bad, fmt.Sprintf(
				"admitted cell x%.2g completed nothing", c.Multiplier))
		}
		if c.P999Ns > 4*rep.SLONs {
			bad = append(bad, fmt.Sprintf(
				"admitted cell x%.2g: completed p99.9 %v exceeds 4x SLO %v",
				c.Multiplier, time.Duration(c.P999Ns), time.Duration(rep.SLONs)))
		}
	}
	top := topOverloadCells(rep)
	if top.adm == nil || top.naive == nil {
		bad = append(bad, "missing top-rate cell pair")
		return bad
	}
	if top.adm.Multiplier >= 2 && top.adm.Shed == 0 {
		bad = append(bad, fmt.Sprintf(
			"admitted cell x%.2g shed nothing at overload", top.adm.Multiplier))
	}
	if top.naive.SLOBreaches == 0 && top.naive.FailedOOM == 0 {
		bad = append(bad, fmt.Sprintf(
			"naive cell x%.2g neither breached the SLO nor OOMed — no overload contrast measured",
			top.naive.Multiplier))
	}
	return bad
}
