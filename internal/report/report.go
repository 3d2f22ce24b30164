// Package report turns the JSONL event stream of the trace package into
// the paper-style text figures rendered by cmd/gcreport: the pause-time
// CDF behind the paper's maximum-pause discussion (§8.3, Figure 9's
// companion measurements), the per-phase cycle breakdown behind Figures
// 13–14, the dirty-card table behind Figures 21–23 and the promotion
// figures behind Figures 11–12.
//
// A trace file may concatenate several runs (gcbench streams every
// repeat into one sink); each run opens with a "start" event. Every
// per-cycle figure is a sum over the records the "cycle" events carry
// (metrics.Cycle, the runtime's own account of each collection); the
// pause figures read the "pause" events. Traces recorded before cycle
// events carried records still parse, but hold no records to sum.
package report

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"time"

	"gengc/internal/metrics"
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

// records returns the cycle records the trace's "cycle" events carry,
// in file order.
func (t *Trace) records() []*metrics.Cycle {
	var out []*metrics.Cycle
	for _, e := range t.Events {
		if e.Ev == "cycle" && e.Rec != nil {
			out = append(out, e.Rec)
		}
	}
	return out
}

// CycleBreakdown is the per-phase time decomposition of the traced
// collection cycles, split by cycle kind.
type CycleBreakdown struct {
	Kind    string // "partial" or "full"
	Cycles  int
	Total   time.Duration // sum of whole-cycle durations
	Sync    [3]time.Duration
	Acks    time.Duration
	AckN    int
	Trace   time.Duration // whole trace-to-fixpoint phase
	Drain   time.Duration // the trace's gray-stack drains
	Sweep   time.Duration
	Scanned int64
	Freed   int64
}

// Breakdown sums the cycle records' phase durations per cycle kind,
// ordered by kind name.
func (t *Trace) Breakdown() []CycleBreakdown {
	var agg [2]CycleBreakdown // indexed by metrics.CycleKind
	for _, r := range t.records() {
		b := &agg[r.Kind]
		b.Cycles++
		b.Total += r.Duration
		b.Sync[0] += r.Sync1Time
		b.Sync[1] += r.Sync2Time
		b.Sync[2] += r.Sync3Time
		b.Acks += r.AckTime
		b.AckN += r.AckRounds
		b.Trace += r.TraceTime
		b.Drain += r.DrainTime
		b.Sweep += r.SweepTime
		b.Scanned += int64(r.ObjectsScanned)
		b.Freed += int64(r.ObjectsFreed)
	}
	var out []CycleBreakdown
	for _, k := range []metrics.CycleKind{metrics.Full, metrics.Partial} {
		if agg[k].Cycles > 0 {
			agg[k].Kind = k.String()
			out = append(out, agg[k])
		}
	}
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

// Demographics folds every cycle record into the run-cumulative
// demographics, the aggregate Snapshot.Demographics reports, and counts
// the partial collections among them.
func (t *Trace) Demographics() (partials int, d metrics.Demographics) {
	for _, r := range t.records() {
		if r.Kind == metrics.Partial {
			partials++
		}
		d.AddCycle(*r)
	}
	return partials, d
}

// CardStats sums the dirty-card work of the partial collections, the
// only cycles that scan cards (Figures 21–23).
type CardStats struct {
	Scans     int
	Dirty     int64
	Allocated int64
	Time      time.Duration
}

// Cards sums the card scans of every partial cycle record.
func (t *Trace) Cards() CardStats {
	var s CardStats
	for _, r := range t.records() {
		if r.Kind != metrics.Partial {
			continue
		}
		s.Scans++
		s.Dirty += int64(r.DirtyCards)
		s.Allocated += int64(r.AllocatedCards)
		s.Time += r.CardScanTime
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
