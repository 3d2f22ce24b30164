// Package report turns the JSONL event stream of the trace package into
// the paper-style text figures rendered by cmd/gcreport: the pause-time
// CDF behind the paper's maximum-pause discussion (§8.3, Figure 9's
// companion measurements), the per-phase cycle breakdown behind Figures
// 13–14, and the dirty-card table behind Figures 21–23.
//
// A trace file may concatenate several runs (gcbench streams every
// repeat into one sink); each run opens with a "start" event, and all
// per-cycle aggregation keys on (run, cycle) so restarting cycle
// numbers do not collide.
package report

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"gengc/internal/trace"
)

// Trace is a parsed event stream, split into runs.
type Trace struct {
	// Events is every parsed event in file order, annotated with its
	// run index.
	Events []RunEvent

	// Runs is how many "start" boundaries the stream contained (at
	// least 1 once any event was seen: a stream that does not open
	// with a boundary counts as one implicit run).
	Runs int

	// Dropped sums the "drops" events: trace events lost to ring
	// overflow, i.e. the figures under-count by this many events.
	Dropped int64
}

// RunEvent is one event tagged with the run it belongs to (0-based).
type RunEvent struct {
	trace.Event
	Run int
}

// Parse reads a JSONL event stream. Unparseable lines abort with an
// error naming the line number; an empty stream yields an empty Trace
// (Runs == 0), which the renderers reject.
func Parse(r io.Reader) (*Trace, error) {
	t := &Trace{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	run := -1
	for line := 1; sc.Scan(); line++ {
		b := sc.Bytes()
		if len(b) == 0 {
			continue
		}
		var e trace.Event
		if err := json.Unmarshal(b, &e); err != nil {
			return nil, fmt.Errorf("line %d: %w", line, err)
		}
		switch e.Ev {
		case "start":
			run++
		case "drops":
			t.Dropped += e.N
		default:
			if run < 0 {
				run = 0 // stream without a leading boundary
			}
		}
		if run < 0 {
			run = 0
		}
		t.Events = append(t.Events, RunEvent{Event: e, Run: run})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	t.Runs = run + 1
	return t, nil
}

// quantile returns the q-quantile (0 < q <= 1) of a sorted slice,
// using the nearest-rank (ceiling) convention.
func quantile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// PauseCDF summarizes the distribution of mutator pause events,
// fleet-wide and per cause.
type PauseCDF struct {
	Count    int
	ByCause  map[string]int
	Sorted   []int64 // all pause durations, ascending (ns)
	Mutators int     // distinct (run, mutator) pairs that paused
}

// Pauses extracts every "pause" event.
func (t *Trace) Pauses() PauseCDF {
	c := PauseCDF{ByCause: map[string]int{}}
	muts := map[[2]int]bool{}
	for _, e := range t.Events {
		if e.Ev != "pause" {
			continue
		}
		c.Count++
		c.ByCause[e.K]++
		c.Sorted = append(c.Sorted, e.D)
		muts[[2]int{e.Run, e.Worker}] = true
	}
	c.Mutators = len(muts)
	sort.Slice(c.Sorted, func(i, j int) bool { return c.Sorted[i] < c.Sorted[j] })
	return c
}

// Quantile returns the q-quantile pause duration.
func (c PauseCDF) Quantile(q float64) time.Duration {
	return time.Duration(quantile(c.Sorted, q))
}

// Max returns the largest observed pause.
func (c PauseCDF) Max() time.Duration {
	if len(c.Sorted) == 0 {
		return 0
	}
	return time.Duration(c.Sorted[len(c.Sorted)-1])
}

// CycleBreakdown is the per-phase time decomposition of the traced
// collection cycles, split by cycle kind.
type CycleBreakdown struct {
	Kind    string // "partial" or "full"
	Cycles  int
	Total   time.Duration // sum of whole-cycle spans
	Sync    [3]time.Duration
	Acks    time.Duration
	AckN    int
	Trace   time.Duration // whole trace-to-fixpoint phase
	Drain   time.Duration // sum of the trace's drain spans
	Sweep   time.Duration
	Scanned int64
	Freed   int64
}

// cycleKey identifies one collection cycle across concatenated runs.
type cycleKey struct {
	run int
	cyc int64
}

// Breakdown aggregates the phase spans per cycle kind. Cycles whose
// "cycle" event never arrived (a run cut off mid-cycle) are dropped.
func (t *Trace) Breakdown() []CycleBreakdown {
	kinds := map[cycleKey]string{}
	for _, e := range t.Events {
		if e.Ev == "cycle" {
			kinds[cycleKey{e.Run, e.Cycle}] = e.K
		}
	}
	agg := map[string]*CycleBreakdown{}
	get := func(kind string) *CycleBreakdown {
		b := agg[kind]
		if b == nil {
			b = &CycleBreakdown{Kind: kind}
			agg[kind] = b
		}
		return b
	}
	syncIdx := map[string]int{"sync1": 0, "sync2": 1, "sync3": 2}
	for _, e := range t.Events {
		kind, ok := kinds[cycleKey{e.Run, e.Cycle}]
		if !ok {
			continue
		}
		b := get(kind)
		d := time.Duration(e.D)
		switch e.Ev {
		case "cycle":
			b.Cycles++
			b.Total += d
			b.Scanned += e.N
			b.Freed += e.M
		case "sync":
			if i, ok := syncIdx[e.K]; ok {
				b.Sync[i] += d
			}
		case "ack":
			b.Acks += d
			b.AckN++
		case "trace":
			b.Trace += d
		case "drain":
			b.Drain += d
		case "sweep":
			b.Sweep += d
		}
	}
	out := make([]CycleBreakdown, 0, len(agg))
	for _, b := range agg {
		out = append(out, *b)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Kind < out[j].Kind })
	return out
}

// Meta returns each run's metadata string — the key=value pairs the
// collector stamps into its "start" event (GOMAXPROCS, mode, module
// version; traces recorded while there were a worker pool or two write
// barriers also carry workers= or barrier=) — verbatim, indexed by run.
// Runs traced before metadata stamping existed, or streams without a
// leading boundary, yield empty strings.
func (t *Trace) Meta() []string {
	meta := make([]string, t.Runs)
	for _, e := range t.Events {
		if e.Ev == "start" && e.Run < len(meta) {
			meta[e.Run] = e.K
		}
	}
	return meta
}

// DemographicStats aggregates the "demographics" events — the
// per-partial promotion accounting of the generational modes.
type DemographicStats struct {
	Partials        int   // partial cycles that reported demographics
	PromotedObjects int64 // objects promoted into the old generation
	PromotedBytes   int64
	SurvivalByAge   []int64 // aging survival histogram (index = age)
}

// Demographics sums every demographics event in the trace. The survival
// histogram stays nil for simple-promotion runs (their events carry no
// age pairs).
func (t *Trace) Demographics() DemographicStats {
	var s DemographicStats
	for _, e := range t.Events {
		if e.Ev != "demographics" {
			continue
		}
		s.Partials++
		s.PromotedObjects += e.N
		s.PromotedBytes += e.M
		for _, pair := range strings.Split(e.K, ",") {
			as, cs, ok := strings.Cut(pair, ":")
			if !ok {
				continue
			}
			age, err1 := strconv.Atoi(as)
			n, err2 := strconv.ParseInt(cs, 10, 64)
			if err1 != nil || err2 != nil || age < 0 {
				continue
			}
			for len(s.SurvivalByAge) <= age {
				s.SurvivalByAge = append(s.SurvivalByAge, 0)
			}
			s.SurvivalByAge[age] += n
		}
	}
	return s
}

// CardStats aggregates the "cardscan" events — the dirty-card work of
// the partial collections (Figures 21–23).
type CardStats struct {
	Scans     int
	Dirty     int64
	Allocated int64
	Time      time.Duration
}

// Cards sums every card scan in the trace.
func (t *Trace) Cards() CardStats {
	var s CardStats
	for _, e := range t.Events {
		if e.Ev != "cardscan" {
			continue
		}
		s.Scans++
		s.Dirty += e.N
		s.Allocated += e.M
		s.Time += time.Duration(e.D)
	}
	return s
}

// MutatorPauses summarizes one mutator's pauses within one run.
type MutatorPauses struct {
	Run     int
	Mutator int
	Count   int
	Sorted  []int64
}

// PerMutator groups pause events by (run, mutator id), ordered by run
// then id.
func (t *Trace) PerMutator() []MutatorPauses {
	byKey := map[[2]int]*MutatorPauses{}
	for _, e := range t.Events {
		if e.Ev != "pause" {
			continue
		}
		k := [2]int{e.Run, e.Worker}
		m := byKey[k]
		if m == nil {
			m = &MutatorPauses{Run: e.Run, Mutator: e.Worker}
			byKey[k] = m
		}
		m.Count++
		m.Sorted = append(m.Sorted, e.D)
	}
	out := make([]MutatorPauses, 0, len(byKey))
	for _, m := range byKey {
		sort.Slice(m.Sorted, func(i, j int) bool { return m.Sorted[i] < m.Sorted[j] })
		out = append(out, *m)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Run != out[j].Run {
			return out[i].Run < out[j].Run
		}
		return out[i].Mutator < out[j].Mutator
	})
	return out
}
