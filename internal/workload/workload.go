// Package workload provides the synthetic mutator programs that stand in
// for the paper's benchmarks (SPECjvm98, the Anagram generator and the
// multithreaded Ray Tracer; §8.2). The original applications and the
// prototype JVM are not reproducible, so each profile is parameterized
// to match the published *generational characterization* of its
// benchmark — the fraction of objects dying young, the survivor
// lifetime around promotion, the inter-generational pointer rate and
// its locality, the live-set size, and the ratio of allocation to
// computation (Figures 10–12 and 22–23). Those characteristics are what
// drive every conclusion in the paper's evaluation, so matching them
// preserves the shape of the results.
//
// Alongside the paper-calibrated profiles, soak.go carries the seeded
// randomized mutators (Mix, AllocStorm) that drive the soaks, cmd/gcmon's
// demo load and the expvar scrape-agreement test, their per-cycle
// audit, and the -mode parser the commands share.
package workload

import (
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"gengc"
	"gengc/internal/heap"
	"gengc/internal/metrics"
)

// Profile describes one synthetic benchmark program.
type Profile struct {
	// Name identifies the profile ("_202_jess", "Anagram", ...).
	Name string

	// Threads is the number of mutator threads.
	Threads int

	// OpsPerThread is the length of the run.
	OpsPerThread int

	// AllocFrac is the fraction of operations that allocate.
	AllocFrac float64

	// MeanSize and SizeJitter control the object size distribution:
	// size = MeanSize ± uniform(SizeJitter).
	MeanSize   int
	SizeJitter int

	// SlotsMax bounds the pointer-slot count of allocated objects
	// (uniform in [0, SlotsMax]).
	SlotsMax int

	// NurserySlots is the per-thread window of freshly allocated
	// objects; an object stored there dies after NurserySlots further
	// nursery allocations. Most allocations land here — these are the
	// objects that "die young".
	NurserySlots int

	// AttachFrac is the probability that a young allocation is linked
	// into its cluster with a barriered pointer store (instead of
	// only being rooted). It calibrates the rate of heap pointer
	// stores — and hence the dirty-card percentages of Figure 22 —
	// independently of the allocation rate.
	AttachFrac float64

	// SurvivorFrac routes a fraction of allocations to the survivor
	// pool instead of the nursery: these live long enough to be
	// promoted.
	SurvivorFrac float64

	// SurvivorSlots is the per-thread survivor pool size.
	SurvivorSlots int

	// SurvivorTTL is how many collection cycles a survivor lives
	// after its birth cycle. A small TTL models _202_jess/_228_jack:
	// objects get tenured and die immediately afterwards.
	SurvivorTTL int

	// BaseBytes is the long-lived structure built at startup (the
	// application's permanent data), split across threads.
	BaseBytes int

	// BaseSlots is the pointer-slot count of each base object.
	BaseSlots int

	// BaseObjSize is the size of each base object.
	BaseObjSize int

	// OldUpdateFrac is the probability per operation of storing a
	// pointer to a recently allocated (young) object into a base
	// (old) object — the source of inter-generational pointers and
	// dirty cards.
	OldUpdateFrac float64

	// OldRetain bounds how many young objects the base structure
	// retains at once: old-object updates rotate through a ring of
	// (object, slot) locations, clearing the location that rotates
	// out. This is what feeds the old generation with tenured-then-
	// dead data in the jess/jack/javac profiles. Default 1024.
	OldRetain int

	// Locality is the fraction of old-object updates that hit the
	// "hot" first 1/16th of the base structure. High locality models
	// _209_db (card size has no effect on the scanned area); low
	// locality spreads dirty objects across the heap (_213_javac).
	Locality float64

	// WorkPerOp is the computational work (spin iterations) per
	// operation: high for _201_compress, near zero for Anagram.
	WorkPerOp int

	// LargeEvery, when positive, allocates a large object (about
	// LargeSize bytes) every LargeEvery operations.
	LargeEvery int
	LargeSize  int
}

// Validate reports obviously broken profile parameters.
func (p Profile) Validate() error {
	if p.Threads <= 0 || p.OpsPerThread <= 0 {
		return fmt.Errorf("workload %s: need positive threads and ops", p.Name)
	}
	if p.AllocFrac < 0 || p.AllocFrac > 1 || p.SurvivorFrac < 0 || p.SurvivorFrac > 1 {
		return fmt.Errorf("workload %s: fractions out of range", p.Name)
	}
	if p.NurserySlots <= 0 {
		return fmt.Errorf("workload %s: nursery must have slots", p.Name)
	}
	if p.MeanSize < 16 || p.MeanSize < p.SizeJitter {
		return fmt.Errorf("workload %s: bad size distribution (%d ± %d)", p.Name, p.MeanSize, p.SizeJitter)
	}
	return nil
}

// Scale returns a copy with the run length scaled by f (used by the
// harness's -scale flag and by quick tests).
func (p Profile) Scale(f float64) Profile {
	p.OpsPerThread = int(float64(p.OpsPerThread) * f)
	if p.OpsPerThread < 1000 {
		p.OpsPerThread = 1000
	}
	return p
}

// WithThreads returns a copy running with n threads (the multithreaded
// Ray Tracer sweep of Figure 7).
func (p Profile) WithThreads(n int) Profile {
	p.Threads = n
	return p
}

// Result is the outcome of one run of a profile on one runtime.
type Result struct {
	Profile  string
	Mode     gengc.Mode
	Elapsed  time.Duration
	Ops      int64
	Allocs   int64
	AllocedB int64
	Summary  metrics.Summary

	// Pauses is the fleet-wide pause statistics over every mutator
	// thread of the run.
	Pauses metrics.PauseStats

	// Census is the final heap population, taken after the collector
	// shut down (quiescent).
	Census heap.Stats
}

// RunOption adjusts how Run drives a profile, beyond the collector
// configuration.
type RunOption func(*runOptions)

type runOptions struct {
	onCycle func(metrics.Cycle)
	sink    gengc.TraceSink
}

// OnCycle streams every collection's record to fn as the cycle
// completes (see gengc.Runtime.OnCycle); fn runs on the collector
// goroutine and must not block.
func OnCycle(fn func(metrics.Cycle)) RunOption {
	return func(o *runOptions) { o.onCycle = fn }
}

// TraceTo streams the run's structured collector events to sink (see
// gengc.WithTraceSink). Multiple runs may share one sink: each run's
// events begin with a "start" boundary, which cmd/gcreport uses to
// separate concatenated runs.
func TraceTo(sink gengc.TraceSink) RunOption {
	return func(o *runOptions) { o.sink = sink }
}

// Run executes the profile against a fresh runtime built from cfg and
// returns the measurements. The runtime is closed before returning; the
// summary's elapsed time covers only the mutator work (start of threads
// to completion of the last), matching the paper's elapsed-time metric.
func Run(p Profile, cfg gengc.Config, seed int64, opts ...RunOption) (Result, error) {
	if err := p.Validate(); err != nil {
		return Result{}, err
	}
	var ro runOptions
	for _, opt := range opts {
		opt(&ro)
	}
	// The host Go runtime's own collector would inject pauses into
	// the measurement; disable it for the duration of the run and
	// clean up afterwards. (The simulated heap is a few fixed arrays,
	// so the process stays within a predictable footprint.)
	prevGC := debug.SetGCPercent(-1)
	defer func() {
		debug.SetGCPercent(prevGC)
		runtime.GC()
	}()

	if ro.sink != nil {
		cfg.TraceSink = ro.sink
	}
	rt, err := gengc.New(gengc.WithConfig(cfg))
	if err != nil {
		return Result{}, err
	}
	defer rt.Close()
	if ro.onCycle != nil {
		rt.OnCycle(ro.onCycle)
	}

	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		ops      int64
		allocs   int64
		alloced  int64
	)
	start := time.Now()
	for th := 0; th < p.Threads; th++ {
		wg.Add(1)
		go func(th int) {
			defer wg.Done()
			r := newRunner(rt, p, seed+int64(th)*7919)
			err := r.run()
			mu.Lock()
			if err != nil && firstErr == nil {
				firstErr = err
			}
			ops += r.ops
			allocs += r.allocs
			alloced += r.allocedBytes
			mu.Unlock()
		}(th)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if firstErr != nil {
		return Result{}, fmt.Errorf("workload %s: %w", p.Name, firstErr)
	}
	// Let any in-flight cycle finish before summarizing, so the
	// summary includes it.
	rt.Close()
	census := rt.Collector().H.Census()
	return Result{
		Profile:  p.Name,
		Mode:     cfg.Mode,
		Elapsed:  elapsed,
		Ops:      ops,
		Allocs:   allocs,
		AllocedB: alloced,
		Summary:  rt.Collector().Metrics().Summarize(elapsed),
		Pauses:   rt.Snapshot().Fleet,
		Census:   census,
	}, nil
}

// oldLoc is one base-structure location holding a young reference.
type oldLoc struct {
	obj  gengc.Ref
	slot int
}

// runner is the per-thread mutator state.
type runner struct {
	rt  *gengc.Runtime
	m   *gengc.Mutator
	p   Profile
	rng *rand.Rand

	// nursery is a ring of root slots holding the die-young window.
	nursery    []int
	nurseryPos int

	// survivors is a pool of root slots with birth cycles.
	survivors    []int
	survivorBorn []int64
	survivorPos  int

	// base is the index of the thread's long-lived objects (kept
	// reachable through a chain rooted at baseRoot).
	base []gengc.Ref

	// oldRing tracks the base locations currently holding young
	// references, so their number stays bounded by OldRetain.
	oldRing []oldLoc
	oldPos  int

	// last is the most recently allocated object; old-object updates
	// store it into the base structure.
	last gengc.Ref

	// clusterHead/clusterSlot batch young objects into small trees:
	// a head object sits in the nursery ring and subsequent
	// allocations hang off its slots, so the whole cluster dies when
	// the head's ring slot is overwritten. (Linking each object to
	// its predecessor instead would chain the entire allocation
	// history and nothing would ever die.)
	clusterHead gengc.Ref
	clusterSlot int

	ops          int64
	allocs       int64
	allocedBytes int64
	sink         uint64
}

func newRunner(rt *gengc.Runtime, p Profile, seed int64) *runner {
	return &runner{rt: rt, p: p, rng: rand.New(rand.NewSource(seed))}
}

// run executes the thread's operations.
func (r *runner) run() error {
	r.m = r.rt.NewMutator()
	defer r.m.Detach()
	if err := r.buildBase(); err != nil {
		return err
	}
	r.nursery = make([]int, r.p.NurserySlots)
	for i := range r.nursery {
		r.nursery[i] = r.m.PushRoot(gengc.Nil)
	}
	n := r.p.SurvivorSlots
	if n == 0 {
		n = 64
	}
	r.survivors = make([]int, n)
	r.survivorBorn = make([]int64, n)
	for i := range r.survivors {
		r.survivors[i] = r.m.PushRoot(gengc.Nil)
	}
	retain := r.p.OldRetain
	if retain == 0 {
		retain = 1024
	}
	r.oldRing = make([]oldLoc, retain)

	for op := 0; op < r.p.OpsPerThread; op++ {
		r.m.Safepoint()
		r.ops++
		r.compute()
		r.expireSurvivors(op)
		dice := r.rng.Float64()
		switch {
		case dice < r.p.AllocFrac:
			if err := r.allocate(op); err != nil {
				return err
			}
		case dice < r.p.AllocFrac+r.p.OldUpdateFrac:
			r.updateOld()
		default:
			r.chase()
		}
	}
	return nil
}

// buildBase constructs the thread's share of the long-lived structure:
// a chain of BaseSlots-slot objects, reachable from one root, and an
// index for O(1) access when mutating old objects.
func (r *runner) buildBase() error {
	share := r.p.BaseBytes / r.p.Threads
	if share <= 0 {
		return nil
	}
	count := share / r.p.BaseObjSize
	if count == 0 {
		count = 1
	}
	r.base = make([]gengc.Ref, 0, count)
	var prev gengc.Ref
	root := r.m.PushRoot(gengc.Nil)
	for i := 0; i < count; i++ {
		r.m.Safepoint()
		obj, err := r.m.Alloc(r.p.BaseSlots, r.p.BaseObjSize)
		if err != nil {
			return err
		}
		// Slot 0 is the spine of the chain. A one-element batch: the
		// spine is the only slot initialized here, and WriteBatch fills
		// a dense prefix. The profile's mutation phases (updateOld,
		// cluster attach) stay on Write — they hit random single slots
		// of random objects, which a batch cannot express.
		r.m.WriteBatch(obj, []gengc.Ref{prev})
		r.m.SetRoot(root, obj)
		prev = obj
		r.base = append(r.base, obj)
	}
	return nil
}

// compute spins to model application work between heap operations.
func (r *runner) compute() {
	s := r.sink
	for i := 0; i < r.p.WorkPerOp; i++ {
		s = s*6364136223846793005 + 1442695040888963407
	}
	r.sink = s
}

// allocate creates one object and decides its intended lifetime.
func (r *runner) allocate(op int) error {
	size := r.p.MeanSize
	if r.p.SizeJitter > 0 {
		size += r.rng.Intn(2*r.p.SizeJitter) - r.p.SizeJitter
	}
	slots := 0
	if r.p.SlotsMax > 0 {
		slots = r.rng.Intn(r.p.SlotsMax + 1)
	}
	if r.p.LargeEvery > 0 && op%r.p.LargeEvery == r.p.LargeEvery-1 {
		size = r.p.LargeSize
		slots = 0
	}
	obj, err := r.m.Alloc(slots, size)
	if err != nil {
		return err
	}
	r.allocs++
	r.allocedBytes += int64(size)
	r.last = obj

	if r.rng.Float64() < r.p.SurvivorFrac {
		// Survivor: park it in the survivor pool with its birth
		// cycle; expireSurvivors kills it TTL cycles later.
		i := r.survivorPos
		r.survivorPos = (r.survivorPos + 1) % len(r.survivors)
		r.m.SetRoot(r.survivors[i], obj)
		r.survivorBorn[i] = r.rt.Collector().CyclesDone()
		return nil
	}
	// Die young: attach to the current cluster if it has a free slot
	// (a barriered store, at the profile's calibrated rate), otherwise
	// become the head of a new cluster in the nursery ring.
	if r.clusterHead != gengc.Nil && r.clusterSlot < r.m.Slots(r.clusterHead) &&
		r.rng.Float64() < r.p.AttachFrac {
		r.m.Write(r.clusterHead, r.clusterSlot, obj)
		r.clusterSlot++
		return nil
	}
	r.m.SetRoot(r.nursery[r.nurseryPos], obj)
	r.nurseryPos = (r.nurseryPos + 1) % len(r.nursery)
	if slots > 0 {
		r.clusterHead, r.clusterSlot = obj, 0
	} else {
		r.clusterHead = gengc.Nil
	}
	return nil
}

// expireSurvivors incrementally clears survivor roots whose TTL has
// passed; this is what makes promoted objects die shortly after tenure
// in the jess/jack profiles.
func (r *runner) expireSurvivors(op int) {
	if r.p.SurvivorTTL <= 0 || len(r.survivors) == 0 {
		return
	}
	now := r.rt.Collector().CyclesDone()
	// Check two entries per op; the pool is scanned fully every
	// len/2 operations, far more often than a collection cycle.
	for k := 0; k < 2; k++ {
		i := (op*2 + k) % len(r.survivors)
		if r.m.Root(r.survivors[i]) != gengc.Nil &&
			now-r.survivorBorn[i] >= int64(r.p.SurvivorTTL) {
			r.m.SetRoot(r.survivors[i], gengc.Nil)
		}
	}
}

// updateOld stores the latest young object into a base (old) object,
// creating an inter-generational pointer and dirtying a card.
func (r *runner) updateOld() {
	if len(r.base) == 0 || r.last == gengc.Nil || r.p.BaseSlots < 2 {
		return
	}
	var idx int
	if r.rng.Float64() < r.p.Locality {
		hot := len(r.base) / 16
		if hot == 0 {
			hot = 1
		}
		idx = r.rng.Intn(hot)
	} else {
		idx = r.rng.Intn(len(r.base))
	}
	obj := r.base[idx]
	slot := 1 + r.rng.Intn(r.p.BaseSlots-1) // slot 0 is the spine
	if old := r.oldRing[r.oldPos]; old.obj != gengc.Nil {
		// Rotate out the oldest young-holding location so retention
		// stays bounded.
		r.m.Write(old.obj, old.slot, gengc.Nil)
	}
	r.oldRing[r.oldPos] = oldLoc{obj, slot}
	r.oldPos = (r.oldPos + 1) % len(r.oldRing)
	r.m.Write(obj, slot, r.last)
}

// chase walks a few pointers from a random base object, modeling reads.
func (r *runner) chase() {
	if len(r.base) == 0 {
		return
	}
	x := r.base[r.rng.Intn(len(r.base))]
	for d := 0; d < 3 && x != gengc.Nil; d++ {
		s := r.m.Slots(x)
		if s == 0 {
			break
		}
		x = r.m.Read(x, r.rng.Intn(s))
	}
	r.sink += uint64(x)
}
