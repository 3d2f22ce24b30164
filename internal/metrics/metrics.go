// Package metrics collects the measurements the paper reports in
// Figures 10–15 and 22–23: per-collection-cycle work counters, freed
// object and byte counts, dirty-card statistics, pages touched, and the
// share of wall time the collector is active.
package metrics

import (
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

	// Sync1Time, Sync2Time and Sync3Time split HandshakeTime into the
	// three rounds of the §7 protocol (each from posting the status to
	// every mutator responding). Sync2Time includes the card scan and
	// color toggle, which Figure 2/5 run inside the second round.
	Sync1Time time.Duration
	Sync2Time time.Duration
	Sync3Time time.Duration

	// AckRounds counts the trace-termination acknowledgement rounds
	// the cycle needed before the gray fixpoint held (trace.go); each
	// round is one mutator-fleet safe-point pass.
	AckRounds int

	// TraceTime and SweepTime split the concurrent phases of the
	// cycle: the trace-to-fixpoint span (drains plus acknowledgement
	// rounds) and the sweep span (including empty-block reclamation).
	TraceTime time.Duration
	SweepTime time.Duration

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
	// zero when page tracking is off.
	PagesTouched int

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

// AddCycle folds one finished cycle into the aggregate.
func (d *Demographics) AddCycle(c Cycle) {
	if c.Kind == Partial {
		d.PromotedObjects += int64(c.PromotedObjects)
		d.PromotedBytes += int64(c.PromotedBytes)
		d.SurvivedObjects += int64(c.Survivors)
	}
	d.TraceBytes += int64(c.TraceBytes)
	d.InterGenScanned += int64(c.InterGenScanned)
	d.InterGenBytes += int64(c.InterGenBytes)
	d.DirtyCards += int64(c.DirtyCards)
	d.CardsScanned += int64(c.CardsScanned)
	d.AreaScanned += int64(c.AreaScanned)
	d.DeathsByClass = addVec(d.DeathsByClass, c.DeathsByClass)
	d.SurvivalByAge = addVec(d.SurvivalByAge, c.SurvivalByAge)
}

// Clone returns a deep copy (the histograms are slices).
func (d Demographics) Clone() Demographics {
	out := d
	out.DeathsByClass = append([]int64(nil), d.DeathsByClass...)
	out.SurvivalByAge = append([]int64(nil), d.SurvivalByAge...)
	return out
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

// Recorder accumulates cycle records and aggregate statistics. The
// collector goroutine is the only writer; readers take the mutex.
type Recorder struct {
	mu       sync.Mutex
	start    time.Time
	cycles   []Cycle
	gcTime   time.Duration
	onRecord func(Cycle)
}

// NewRecorder starts a recorder; the start time anchors the
// "percent time GC active" computation.
func NewRecorder() *Recorder {
	return &Recorder{start: time.Now()}
}

// Record appends one finished cycle and invokes the OnRecord observer,
// if any, outside the recorder lock.
func (r *Recorder) Record(c Cycle) {
	r.mu.Lock()
	c.Seq = len(r.cycles) + 1
	r.cycles = append(r.cycles, c)
	r.gcTime += c.Duration
	fn := r.onRecord
	r.mu.Unlock()
	if fn != nil {
		fn(c)
	}
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

// Cycles returns a copy of all recorded cycles.
func (r *Recorder) Cycles() []Cycle {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Cycle, len(r.cycles))
	copy(out, r.cycles)
	return out
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
}

// Summarize computes the aggregates at the end of a run. elapsed is the
// run's wall time (from the recorder's start when zero).
func (r *Recorder) Summarize(elapsed time.Duration) Summary {
	r.mu.Lock()
	defer r.mu.Unlock()
	if elapsed == 0 {
		elapsed = time.Since(r.start)
	}
	s := Summary{Elapsed: elapsed, GCActive: r.gcTime, NumCycles: len(r.cycles)}
	if elapsed > 0 {
		s.GCActivePct = 100 * float64(r.gcTime) / float64(elapsed)
	}
	var (
		igSum, scanP, scanF, freedP, freedF            float64
		freedBP, freedBF, timeP, timeF, pagesP, pagesF float64
		sweptP, sweptF, survBP, dirtyPct, area         float64
		nP, nF                                         int
	)
	for _, c := range r.cycles {
		s.ObjectsFreed += int64(c.ObjectsFreed)
		s.BytesFreed += int64(c.BytesFreed)
		s.ObjectsScanned += int64(c.ObjectsScanned)
		switch c.Kind {
		case Partial:
			nP++
			igSum += float64(c.InterGenScanned)
			scanP += float64(c.ObjectsScanned)
			freedP += float64(c.ObjectsFreed)
			freedBP += float64(c.BytesFreed)
			timeP += float64(c.Duration)
			pagesP += float64(c.PagesTouched)
			sweptP += float64(c.Survivors)
			// Every young survivor was either promoted or demoted
			// (aging), so this is the partial's surviving byte volume.
			survBP += float64(c.PromotedBytes + c.SurvivorBytes)
			area += float64(c.AreaScanned)
			if c.AllocatedCards > 0 {
				dirtyPct += 100 * float64(c.DirtyCards) / float64(c.AllocatedCards)
			}
		case Full:
			nF++
			scanF += float64(c.ObjectsScanned)
			freedF += float64(c.ObjectsFreed)
			freedBF += float64(c.BytesFreed)
			timeF += float64(c.Duration)
			pagesF += float64(c.PagesTouched)
			sweptF += float64(c.Survivors)
		}
	}
	s.NumPartial, s.NumFull = nP, nF
	if nP > 0 {
		fp := float64(nP)
		s.AvgInterGenScanned = igSum / fp
		s.AvgScannedPartial = scanP / fp
		s.AvgFreedObjsPartial = freedP / fp
		s.AvgFreedBytesPartial = freedBP / fp
		s.AvgTimePartial = time.Duration(timeP / fp)
		s.AvgPagesPartial = pagesP / fp
		s.AvgDirtyCardPct = dirtyPct / fp
		s.AvgAreaScanned = area / fp
		if freedP+sweptP > 0 {
			// "percent of the objects of the young generation that
			// are collected": freed / (freed + young survivors).
			s.PctObjsFreedPartial = 100 * freedP / (freedP + sweptP)
		}
		if denom := freedBP + survBP; denom > 0 {
			s.PctBytesFreedPartial = 100 * freedBP / denom
		}
	}
	if nF > 0 {
		ff := float64(nF)
		s.AvgScannedFull = scanF / ff
		s.AvgFreedObjsFull = freedF / ff
		s.AvgFreedBytesFull = freedBF / ff
		s.AvgTimeFull = time.Duration(timeF / ff)
		s.AvgPagesFull = pagesF / ff
		if freedF+sweptF > 0 {
			s.PctObjsFreedFull = 100 * freedF / (freedF + sweptF)
		}
	}
	return s
}
