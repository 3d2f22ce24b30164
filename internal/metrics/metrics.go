// Package metrics collects the measurements the paper reports in
// Figures 10–15 and 22–23: per-collection-cycle work counters, freed
// object and byte counts, dirty-card statistics, pages touched, and the
// share of wall time the collector is active.
package metrics

import (
	"slices"
	"sync"
	"time"
)

// CycleKind distinguishes the collection types of §3.
type CycleKind int

const (
	// Partial is a collection of the young generation only.
	Partial CycleKind = iota
	// Full is a collection of the entire heap.
	Full
)

func (k CycleKind) String() string {
	if k == Partial {
		return "partial"
	}
	return "full"
}

// Cycle is the record of one collection cycle.
type Cycle struct {
	Kind     CycleKind
	Seq      int           // cycle number, from 1
	Duration time.Duration // clear-to-sweep-end elapsed time

	// HandshakeTime is the span from posting the first handshake to
	// completing the third — the sync1/sync2 window during which the
	// write barrier also shades allocation-colored objects (§7.1).
	HandshakeTime time.Duration

	// InitFullTime is InitFullCollection's span (full collections
	// only): the old-code flip and, in simple promotion, the card-table
	// clear. It runs before the first handshake is posted.
	InitFullTime time.Duration

	// Sync1Time, Sync2Time and Sync3Time split HandshakeTime into the
	// three rounds of the §7 protocol (each from posting the status to
	// every mutator responding). Sync2Time includes the card scan and
	// color toggle, which Figure 2/5 run inside the second round;
	// CardScanTime is the card scan's share of it (generational
	// partials only), the rest the toggle and the handshake wait.
	Sync1Time    time.Duration
	Sync2Time    time.Duration
	Sync3Time    time.Duration
	CardScanTime time.Duration

	// AckRounds counts the trace-termination acknowledgement rounds
	// the cycle needed before the gray fixpoint held (trace.go); each
	// round is one mutator-fleet safe-point pass. AckTime is their
	// summed latency.
	AckRounds int
	AckTime   time.Duration

	// TraceTime and SweepTime split the concurrent phases of the
	// cycle: the trace-to-fixpoint span (drains plus acknowledgement
	// rounds) and the sweep span (including empty-block reclamation).
	// DrainTime is the trace's time spent draining the gray stack; the
	// rest of TraceTime is AckTime plus the gray-buffer collection.
	TraceTime time.Duration
	SweepTime time.Duration
	DrainTime time.Duration

	// Trace work.
	ObjectsScanned int // objects blackened by the trace
	SlotsScanned   int // pointer slots examined by the trace

	// Inter-generational pointer maintenance (ClearCards).
	InterGenScanned int // objects examined on dirty cards
	DirtyCards      int // dirty cards found at cycle start
	AllocatedCards  int // cards overlapping allocated blocks (denominator)
	CardsScanned    int // cards examined (the whole table is walked)
	AreaScanned     int // bytes of objects examined on dirty cards

	// Sweep results.
	ObjectsFreed  int
	BytesFreed    int
	Survivors     int // objects subject to this collection that survived it
	SurvivorBytes int // byte volume of the aging sweep's demoted survivors

	// Heap demographics (generational partial collections; zero
	// elsewhere). Promotion is counted exactly once per object, from
	// the trace side: in the simple scheme every young survivor is
	// promoted (traced objects minus the re-grayed old ones and the
	// global roots object); in the aging scheme the demoted survivors
	// the sweep counted are additionally subtracted, leaving the cohort
	// that reached the tenure threshold and stayed black.
	PromotedObjects int
	PromotedBytes   int

	// TraceBytes is the total byte size of the objects the trace
	// blackened; InterGenBytes the byte size of the old objects the
	// card scan re-grayed. Their difference is the young-survivor byte
	// volume of a simple-mode partial.
	TraceBytes    int
	InterGenBytes int

	// SurvivalByAge is the aging sweep's survival histogram: index a
	// counts the young objects that survived this collection at age a
	// (then aged to a+1); the final populated index is the tenure
	// threshold — objects promoted this cycle. Nil outside
	// GenerationalAging partials.
	SurvivalByAge []int64

	// DeathsByClass counts the objects this cycle's sweep reclaimed,
	// by allocator size class; the last entry aggregates large objects
	// (whole-block allocations). Nil when nothing was freed.
	DeathsByClass []int64

	// Pages touched by the collector during the cycle (Figure 15);
	// zero when page tracking is off. The phase counts split it by the
	// phase that touched each page first: everything before the trace
	// (a partial's card scan, a full collection's card clear), the
	// trace, and the sweep. They sum to PagesTouched.
	PagesTouched  int
	CardScanPages int
	TracePages    int
	SweepPages    int

	// Tiered-allocator activity during the cycle (mutators keep
	// allocating while the collector runs): blocks acquired by
	// allocation caches, and lock acquisitions — shard plus page —
	// that found the lock held.
	AllocRefills   int64
	AllocContended int64
}

// Demographics is the run-cumulative heap-demographics aggregate: the
// per-cycle promotion/survival/death accounting summed over a runtime's
// whole history. Promotion, survival and the histograms come from
// generational partial collections only; the card traffic counters
// likewise accumulate from the partials that scan them.
type Demographics struct {
	// Objects and bytes promoted into the old generation.
	PromotedObjects int64 `json:"promoted_objects"`
	PromotedBytes   int64 `json:"promoted_bytes"`

	// SurvivedObjects counts young objects that survived a partial
	// collection (each survival of the same object counts once, so an
	// aging-mode object surviving three collections contributes 3).
	SurvivedObjects int64 `json:"survived_objects"`

	// TraceBytes is the byte volume blackened by all traces.
	TraceBytes int64 `json:"trace_bytes"`

	// Inter-generational pointer traffic: old objects re-scanned for
	// old→young pointers and their byte volume, dirty/scanned card
	// counts, and the bytes examined on dirty cards.
	InterGenScanned int64 `json:"intergen_scanned"`
	InterGenBytes   int64 `json:"intergen_bytes"`
	DirtyCards      int64 `json:"dirty_cards"`
	CardsScanned    int64 `json:"cards_scanned"`
	AreaScanned     int64 `json:"area_scanned"`

	// DeathsByClass counts swept objects by allocator size class (last
	// entry: large objects). SurvivalByAge is the aging survival
	// histogram (index = age at survival; final populated index = the
	// tenure threshold, i.e. promotions). Nil when never populated.
	DeathsByClass []int64 `json:"deaths_by_class,omitempty"`
	SurvivalByAge []int64 `json:"survival_by_age,omitempty"`
}

// addVec adds src into dst element-wise, growing dst as needed; a nil
// src returns dst unchanged.
func addVec(dst, src []int64) []int64 {
	if len(src) > len(dst) {
		grown := make([]int64, len(src))
		copy(grown, dst)
		dst = grown
	}
	for i, n := range src {
		dst[i] += n
	}
	return dst
}

// Totals is the running sum of cycle records per cycle kind, indexed by
// CycleKind: the one fold of the records, behind Summary, Demographics
// and gcreport's cycle figures. The zero value is empty.
type Totals [2]KindTotals

// KindTotals sums the records of one cycle kind.
type KindTotals struct {
	// Cycles counts the records added.
	Cycles int

	// Sum is the field-wise sum of the records: every count and
	// duration, the histograms added element-wise. Kind and Seq are
	// not summed; they stay zero.
	Sum Cycle

	// DirtyCardPct sums each record's dirty-card percentage,
	// 100·DirtyCards/AllocatedCards, over the records with allocated
	// cards: Figure 22 is its mean per partial.
	DirtyCardPct float64
}

// Add folds one cycle record into its kind's sums. It never aliases the
// record's slices.
func (t *Totals) Add(c Cycle) {
	k := &t[c.Kind]
	k.Cycles++
	if c.AllocatedCards > 0 {
		k.DirtyCardPct += 100 * float64(c.DirtyCards) / float64(c.AllocatedCards)
	}
	s := &k.Sum
	s.Duration += c.Duration
	s.HandshakeTime += c.HandshakeTime
	s.InitFullTime += c.InitFullTime
	s.Sync1Time += c.Sync1Time
	s.Sync2Time += c.Sync2Time
	s.Sync3Time += c.Sync3Time
	s.CardScanTime += c.CardScanTime
	s.AckRounds += c.AckRounds
	s.AckTime += c.AckTime
	s.TraceTime += c.TraceTime
	s.SweepTime += c.SweepTime
	s.DrainTime += c.DrainTime
	s.ObjectsScanned += c.ObjectsScanned
	s.SlotsScanned += c.SlotsScanned
	s.InterGenScanned += c.InterGenScanned
	s.DirtyCards += c.DirtyCards
	s.AllocatedCards += c.AllocatedCards
	s.CardsScanned += c.CardsScanned
	s.AreaScanned += c.AreaScanned
	s.ObjectsFreed += c.ObjectsFreed
	s.BytesFreed += c.BytesFreed
	s.Survivors += c.Survivors
	s.SurvivorBytes += c.SurvivorBytes
	s.PromotedObjects += c.PromotedObjects
	s.PromotedBytes += c.PromotedBytes
	s.TraceBytes += c.TraceBytes
	s.InterGenBytes += c.InterGenBytes
	s.SurvivalByAge = addVec(s.SurvivalByAge, c.SurvivalByAge)
	s.DeathsByClass = addVec(s.DeathsByClass, c.DeathsByClass)
	s.PagesTouched += c.PagesTouched
	s.CardScanPages += c.CardScanPages
	s.TracePages += c.TracePages
	s.SweepPages += c.SweepPages
	s.AllocRefills += c.AllocRefills
	s.AllocContended += c.AllocContended
}

// clone returns a deep copy (the sums' histograms are slices).
func (t *Totals) clone() Totals {
	out := *t
	for k := range out {
		out[k].Sum.SurvivalByAge = slices.Clone(out[k].Sum.SurvivalByAge)
		out[k].Sum.DeathsByClass = slices.Clone(out[k].Sum.DeathsByClass)
	}
	return out
}

// Demographics derives the run-cumulative heap demographics: promotion
// and survival from the partials, the card traffic, traced volume and
// histograms from every cycle.
func (t *Totals) Demographics() Demographics {
	p, f := &t[Partial].Sum, &t[Full].Sum
	return Demographics{
		PromotedObjects: int64(p.PromotedObjects),
		PromotedBytes:   int64(p.PromotedBytes),
		SurvivedObjects: int64(p.Survivors),
		TraceBytes:      int64(p.TraceBytes + f.TraceBytes),
		InterGenScanned: int64(p.InterGenScanned + f.InterGenScanned),
		InterGenBytes:   int64(p.InterGenBytes + f.InterGenBytes),
		DirtyCards:      int64(p.DirtyCards + f.DirtyCards),
		CardsScanned:    int64(p.CardsScanned + f.CardsScanned),
		AreaScanned:     int64(p.AreaScanned + f.AreaScanned),
		DeathsByClass:   addVec(addVec(nil, p.DeathsByClass), f.DeathsByClass),
		SurvivalByAge:   addVec(addVec(nil, p.SurvivalByAge), f.SurvivalByAge),
	}
}

// summarize computes the run aggregates from the sums; elapsed is the
// run's wall time. The Summary carries a copy of the sums.
func (t *Totals) summarize(elapsed time.Duration) Summary {
	p, f := t[Partial], t[Full]
	s := Summary{
		Elapsed:        elapsed,
		GCActive:       p.Sum.Duration + f.Sum.Duration,
		NumPartial:     p.Cycles,
		NumFull:        f.Cycles,
		NumCycles:      p.Cycles + f.Cycles,
		ObjectsFreed:   int64(p.Sum.ObjectsFreed + f.Sum.ObjectsFreed),
		BytesFreed:     int64(p.Sum.BytesFreed + f.Sum.BytesFreed),
		ObjectsScanned: int64(p.Sum.ObjectsScanned + f.Sum.ObjectsScanned),
		PagesTouched:   int64(p.Sum.PagesTouched + f.Sum.PagesTouched),
		Totals:         t.clone(),
	}
	if elapsed > 0 {
		s.GCActivePct = 100 * float64(s.GCActive) / float64(elapsed)
	}
	if p.Cycles > 0 {
		fp := float64(p.Cycles)
		s.AvgInterGenScanned = float64(p.Sum.InterGenScanned) / fp
		s.AvgScannedPartial = float64(p.Sum.ObjectsScanned) / fp
		s.AvgFreedObjsPartial = float64(p.Sum.ObjectsFreed) / fp
		s.AvgFreedBytesPartial = float64(p.Sum.BytesFreed) / fp
		s.AvgTimePartial = time.Duration(float64(p.Sum.Duration) / fp)
		s.AvgPagesPartial = float64(p.Sum.PagesTouched) / fp
		s.AvgDirtyCardPct = p.DirtyCardPct / fp
		s.AvgAreaScanned = float64(p.Sum.AreaScanned) / fp
		s.PctObjsFreedPartial = pct(p.Sum.ObjectsFreed, p.Sum.Survivors)
		// Every young survivor of a partial was either promoted or
		// demoted (aging), so their bytes are its surviving volume.
		s.PctBytesFreedPartial = pct(p.Sum.BytesFreed, p.Sum.PromotedBytes+p.Sum.SurvivorBytes)
	}
	if f.Cycles > 0 {
		ff := float64(f.Cycles)
		s.AvgScannedFull = float64(f.Sum.ObjectsScanned) / ff
		s.AvgFreedObjsFull = float64(f.Sum.ObjectsFreed) / ff
		s.AvgFreedBytesFull = float64(f.Sum.BytesFreed) / ff
		s.AvgTimeFull = time.Duration(float64(f.Sum.Duration) / ff)
		s.AvgPagesFull = float64(f.Sum.PagesTouched) / ff
		s.PctObjsFreedFull = pct(f.Sum.ObjectsFreed, f.Sum.Survivors)
	}
	return s
}

// pct is freed's share of freed plus survived, in percent; 0 when both
// are zero. For objects it is the paper's "percent of the objects of
// the young generation that are collected".
func pct(freed, survived int) float64 {
	if freed+survived == 0 {
		return 0
	}
	return 100 * float64(freed) / float64(freed+survived)
}

// RetainedCycles is how many of the most recent cycle records a
// Recorder keeps for Cycles. The run totals behind Summarize and
// Demographics are running sums over every cycle, so a long-lived
// runtime's recorder stays this size however many cycles it runs.
const RetainedCycles = 1024

// Recorder numbers cycle records, keeps the most recent ones and folds
// every one into the run totals. The collector goroutine is the only
// writer; readers take the mutex.
type Recorder struct {
	mu       sync.Mutex
	start    time.Time
	seq      int     // cycles recorded so far
	recent   []Cycle // ring of the last RetainedCycles records
	tot      Totals
	onRecord func(Cycle)
}

// NewRecorder starts a recorder; the start time anchors the
// "percent time GC active" computation.
func NewRecorder() *Recorder {
	return &Recorder{start: time.Now()}
}

// Record numbers one finished cycle, folds it into the run totals,
// retains it among the recent records, invokes the OnRecord observer,
// if any, outside the recorder lock, and returns the numbered record.
func (r *Recorder) Record(c Cycle) Cycle {
	r.mu.Lock()
	r.seq++
	c.Seq = r.seq
	if len(r.recent) < RetainedCycles {
		r.recent = append(r.recent, c)
	} else {
		r.recent[(c.Seq-1)%RetainedCycles] = c
	}
	r.tot.Add(c)
	fn := r.onRecord
	r.mu.Unlock()
	if fn != nil {
		fn(c)
	}
	return c
}

// OnRecord registers fn to be called with every finished cycle record,
// from the collector goroutine, as it is recorded. A nil fn removes the
// observer. The callback must not block: the collector does not start
// the next cycle until it returns.
func (r *Recorder) OnRecord(fn func(Cycle)) {
	r.mu.Lock()
	r.onRecord = fn
	r.mu.Unlock()
}

// Cycles returns a copy of the most recent cycle records, at most
// RetainedCycles of them, oldest first.
func (r *Recorder) Cycles() []Cycle {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Cycle, 0, len(r.recent))
	oldest := 0
	if len(r.recent) == RetainedCycles {
		oldest = r.seq % RetainedCycles
	}
	return append(append(out, r.recent[oldest:]...), r.recent[:oldest]...)
}

// Demographics returns the heap demographics summed over every
// recorded cycle.
func (r *Recorder) Demographics() Demographics {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.tot.Demographics()
}

// Summary condenses a run into the aggregates the paper tabulates.
type Summary struct {
	Elapsed        time.Duration
	GCActive       time.Duration
	GCActivePct    float64 // Figure 10, column 1
	NumPartial     int     // Figure 10
	NumFull        int     // Figure 10
	NumCycles      int
	ObjectsFreed   int64
	BytesFreed     int64
	ObjectsScanned int64
	PagesTouched   int64 // Figure 15's pages, summed over every cycle

	// Per-kind averages (Figures 11–15, 22–23). Zero when the kind
	// never ran.
	AvgInterGenScanned   float64 // old objects scanned for inter-gen ptrs
	AvgScannedPartial    float64
	AvgScannedFull       float64
	AvgFreedObjsPartial  float64
	AvgFreedObjsFull     float64
	AvgFreedBytesPartial float64
	AvgFreedBytesFull    float64
	AvgTimePartial       time.Duration
	AvgTimeFull          time.Duration
	AvgPagesPartial      float64
	AvgPagesFull         float64
	PctObjsFreedPartial  float64 // freed / (freed + survivors) in partials
	PctObjsFreedFull     float64
	PctBytesFreedPartial float64 // freed / (freed + promoted + demoted bytes) in partials
	AvgDirtyCardPct      float64 // Figure 22 (partials only)
	AvgAreaScanned       float64 // Figure 23 (partials only)

	// Totals holds the per-kind record sums the fields above are
	// computed from; a figure with no field of its own (gctrace's
	// per-phase pages) divides a sum by its kind's Cycles.
	Totals Totals
}

// Summarize computes the aggregates over every recorded cycle. elapsed
// is the run's wall time (from the recorder's start when zero).
func (r *Recorder) Summarize(elapsed time.Duration) Summary {
	r.mu.Lock()
	defer r.mu.Unlock()
	if elapsed == 0 {
		elapsed = time.Since(r.start)
	}
	return r.tot.summarize(elapsed)
}
