package main

import (
	"math"
	"math/rand"
)

// The inputs of every workload are generated here, from the seed alone.
// The program under test never sees the seed: it receives the op stream,
// the store targets or the arrival schedule. Nothing in this file reads
// a clock or the runtime's state, so the same seed gives the same bytes
// (TestInputsAreDeterministic).

// streamLen is the length of a churn op stream. A repetition replays it
// cyclically; the rings the ops address keep their state across replays.
const streamLen = 1 << 20

type opKind uint8

const (
	opAllocNursery  opKind = iota // allocate; root it in the next nursery-ring slot
	opAllocSurvivor               // allocate; root it in the next survivor-ring slot
	opAllocAttach                 // allocate; Write it into slot `slot` of the current cluster head
	opOldWrite                    // Write the last allocation into base[base].slot (old→young store)
	opChase                       // three dependent Reads starting at base[base]
)

// op is one mutator operation. Lifetimes are positions in the rings, so
// they are counted in ops, never in collection cycles.
type op struct {
	kind  opKind
	slots uint8    // alloc: pointer slots of the new object
	slot  uint8    // attach / old write: destination slot
	size  uint16   // alloc: object bytes
	base  uint32   // old write / chase: base-object index
	pick  [3]uint8 // chase: per-hop slot choice, taken modulo the object's slot count
}

// churnProfile is the op mix of one churn workload. The values are the
// ones internal/workload gives its Anagram and Javac profiles; they are
// copied, not imported, so the load cannot change under the benchmark.
type churnProfile struct {
	allocFrac    float64 // share of ops that allocate
	survivorFrac float64 // share of allocations parked in the survivor ring
	attachFrac   float64 // chance an allocation is attached to the open cluster
	oldWriteFrac float64 // share of ops that store a young object into the base
	locality     float64 // share of old writes that hit the first 1/16 of the base
	meanSize     int
	sizeJitter   int
	slotsMax     int

	nurserySlots  int // die-young window, in allocations
	survivorSlots int // survivor ring: lifetime = survivorSlots / (allocFrac·survivorFrac) ops
	oldRetain     int // base locations holding a young reference at once

	baseObjects int
	baseSlots   int
	baseObjSize int

	opsPerRep int
}

// youngChurn is workload.Anagram(): pointer-free 40±16 B strings, 1 %
// survivors, a 256 KB base that is almost never written.
var youngChurn = churnProfile{
	allocFrac:     0.85,
	survivorFrac:  0.010,
	attachFrac:    0,
	oldWriteFrac:  0.00002,
	locality:      0.9,
	meanSize:      40,
	sizeJitter:    16,
	slotsMax:      0,
	nurserySlots:  1024,
	survivorSlots: 4096, // ≈ 480 k ops ≈ 4 partial cycles of 4 MB young
	oldRetain:     1024,
	baseObjects:   (256 << 10) / 64,
	baseSlots:     4,
	baseObjSize:   64,
	opsPerRep:     40 << 20,
}

// oldMutation is workload.Javac(): a 16 MB live base that receives one
// old→young store in ten ops, 72±32 B objects with up to 4 slots.
var oldMutation = churnProfile{
	allocFrac:     0.45,
	survivorFrac:  0.06,
	attachFrac:    0.35,
	oldWriteFrac:  0.10,
	locality:      0.7,
	meanSize:      72,
	sizeJitter:    32,
	slotsMax:      4,
	nurserySlots:  640,
	survivorSlots: 16384, // ≈ 600 k ops ≈ 5 partial cycles of 4 MB young
	oldRetain:     12000,
	baseObjects:   (16 << 20) / 96,
	baseSlots:     6,
	baseObjSize:   96,
	opsPerRep:     16 << 20,
}

// genOps generates the op stream of a churn workload.
func genOps(p churnProfile, seed int64) []op {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]op, streamLen)
	// headFree is how many slots of the open cluster head are still
	// unattached; the generator tracks it so the driver needs no state
	// beyond "current head". It starts at 0, so a replay never attaches
	// to a head the previous replay left behind.
	headFree, headSlots := 0, 0
	for i := range ops {
		o := &ops[i]
		dice := rng.Float64()
		switch {
		case dice < p.allocFrac:
			size := p.meanSize
			if p.sizeJitter > 0 {
				size += rng.Intn(2*p.sizeJitter) - p.sizeJitter
			}
			o.size = uint16(size)
			if p.slotsMax > 0 {
				o.slots = uint8(rng.Intn(p.slotsMax + 1))
			}
			switch {
			case rng.Float64() < p.survivorFrac:
				o.kind = opAllocSurvivor
			case headFree > 0 && rng.Float64() < p.attachFrac:
				o.kind = opAllocAttach
				o.slot = uint8(headSlots - headFree)
				headFree--
			default:
				o.kind = opAllocNursery
				headSlots, headFree = int(o.slots), int(o.slots)
			}
		case dice < p.allocFrac+p.oldWriteFrac:
			o.kind = opOldWrite
			n := p.baseObjects
			if rng.Float64() < p.locality {
				n = max(p.baseObjects/16, 1)
			}
			o.base = uint32(rng.Intn(n))
			o.slot = uint8(1 + rng.Intn(p.baseSlots-1)) // slot 0 is the chain
		default:
			o.kind = opChase
			o.base = uint32(rng.Intn(p.baseObjects))
			for k := range o.pick {
				o.pick[k] = uint8(rng.Intn(256))
			}
		}
	}
	return ops
}

// Quiescent-collection inputs.
const (
	quiescentBase      = 150_000 // 6-slot 96 B base objects
	quiescentYoung     = 40_000  // 2-slot 48 B objects allocated per mutation phase
	quiescentStoreStep = 8       // every 8th young object is stored into the base
	quiescentPhases    = 3       // mutation phase + partial collection, per round
	// quiescentTargets base locations hold the stored young objects;
	// the phases cycle through them, so a location is overwritten three
	// phases later and the live set stays put.
	quiescentTargets = quiescentPhases * quiescentYoung / quiescentStoreStep
)

// storeTarget is one base location a young object is stored into.
type storeTarget struct {
	base uint32
	slot uint8
}

func genStoreTargets(seed int64) []storeTarget {
	rng := rand.New(rand.NewSource(seed))
	ts := make([]storeTarget, quiescentTargets)
	for i := range ts {
		ts[i] = storeTarget{base: uint32(rng.Intn(quiescentBase)), slot: uint8(1 + rng.Intn(5))}
	}
	return ts
}

// arrival is one request of the open-loop schedule.
type arrival struct {
	dueNs int64 // offset from the start of the leg
	low   bool  // PriorityLow: shed first in degraded mode
}

// genSchedule draws Poisson arrivals at a constant rate for the length
// of a leg. The schedule is fixed before the leg starts: a slow server
// gets the same arrivals as a fast one.
func genSchedule(seed int64, ratePerSec float64, seconds float64, lowFrac float64) []arrival {
	rng := rand.New(rand.NewSource(seed))
	out := make([]arrival, 0, int(ratePerSec*seconds*1.1)+16)
	end := seconds * 1e9
	for t := 0.0; ; {
		t += rng.ExpFloat64() / ratePerSec * 1e9
		if t >= end {
			return out
		}
		out = append(out, arrival{dueNs: int64(math.Round(t)), low: rng.Float64() < lowFrac})
	}
}
