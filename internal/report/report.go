// Package report turns the JSONL event stream of the trace package into
// the paper-style text figures rendered by cmd/gcreport: the pause-time
// CDF behind the paper's maximum-pause discussion (§8.3, Figure 9's
// companion measurements), the per-phase cycle breakdown behind Figures
// 13–14, the dirty-card table behind Figures 21–23 and the promotion
// figures behind Figures 11–12.
//
// A trace file may concatenate several runs (gcbench streams every
// repeat into one sink); each run opens with a "start" event. The
// per-cycle figures come from one fold: the records the "cycle" events
// carry (metrics.Cycle, the runtime's own account of each collection)
// added into a metrics.Totals, the sums behind Stats and
// Snapshot.Demographics. The pause figures fold the "pause" events into
// metrics.Histograms, as the runtime fills Snapshot.Fleet, so their
// quantiles are bucket edges and their maximum exact. Traces recorded
// before cycle events carried records still parse, but hold no records
// to sum.
package report

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
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

// PauseCDF is the distribution of the trace's "pause" events, folded
// into the histograms behind Snapshot: one per (run, mutator) and their
// merge, so every quantile is a bucket's upper edge (≤ ~6 % relative
// error) and the maximum is exact.
type PauseCDF struct {
	Fleet      *metrics.Histogram
	ByCause    map[string]int
	PerMutator []MutatorPauses // ordered by run, then mutator id
}

// MutatorPauses is one mutator's pauses within one run.
type MutatorPauses struct {
	Run     int
	Mutator int
	Pauses  *metrics.Histogram
}

// Pauses folds every "pause" event into its mutator's histogram and
// merges those into the fleet's, as the runtime does.
func (t *Trace) Pauses() PauseCDF {
	c := PauseCDF{Fleet: &metrics.Histogram{}, ByCause: map[string]int{}}
	byKey := map[[2]int]*metrics.Histogram{}
	for _, e := range t.Events {
		if e.Ev != "pause" {
			continue
		}
		c.ByCause[e.K]++
		k := [2]int{e.Run, e.Worker}
		h := byKey[k]
		if h == nil {
			h = &metrics.Histogram{}
			byKey[k] = h
			c.PerMutator = append(c.PerMutator, MutatorPauses{Run: e.Run, Mutator: e.Worker, Pauses: h})
		}
		h.Record(time.Duration(e.D))
	}
	sort.Slice(c.PerMutator, func(i, j int) bool {
		a, b := c.PerMutator[i], c.PerMutator[j]
		if a.Run != b.Run {
			return a.Run < b.Run
		}
		return a.Mutator < b.Mutator
	})
	for _, m := range c.PerMutator {
		m.Pauses.MergeInto(c.Fleet)
	}
	return c
}

// Totals folds the records the trace's "cycle" events carry into
// per-kind sums, the fold behind Stats and Snapshot.Demographics.
func (t *Trace) Totals() metrics.Totals {
	var tot metrics.Totals
	for _, e := range t.Events {
		if e.Ev == "cycle" && e.Rec != nil {
			tot.Add(*e.Rec)
		}
	}
	return tot
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
