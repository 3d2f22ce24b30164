package main

import "sync"

// The host this benchmark runs on is a small guest of a shared machine
// whose speed moves by tens of percent for minutes at a time (README.md,
// "Noise"). A repetition is therefore bracketed by two probes of the
// host's speed, and every end-to-end time is reported in the reference
// host's time: divided by how much slower than nominal the probes ran.
//
// The probe is a dependent-load chase through 32 MiB on each of two
// threads at once: like the workloads it keeps both processors busy and
// is bound by the memory system the guest shares with its neighbours.
// It shares no code with the program under test, so no change to the
// program can move it.
const (
	probeEntries = 8 << 20 // uint32s in one thread's array: 32 MiB
	probeLoads   = 500_000 // loads one thread makes in one probe

	// probeNominalNs is what a load of the probe costs on the reference
	// host: the median over 80 minutes in which the host went through
	// its fast and slow states. A frozen constant, like the server's
	// rates: it only fixes the scale of the corrected numbers.
	probeNominalNs = 180.0
)

// hostProbe holds one single-cycle permutation per thread.
type hostProbe struct {
	arrays [2][]uint32
	at     [2]uint32
}

// newHostProbe builds the permutations with Sattolo's algorithm from
// fixed seeds: following a[i] from anywhere visits every entry before
// it returns, in an order the prefetcher cannot guess.
func newHostProbe() *hostProbe {
	p := &hostProbe{}
	for t, x := range [2]uint64{88172645463325252, 1234567891234567} {
		a := make([]uint32, probeEntries)
		for i := range a {
			a[i] = uint32(i)
		}
		for i := len(a) - 1; i > 0; i-- {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			j := x % uint64(i)
			a[i], a[j] = a[j], a[i]
		}
		p.arrays[t] = a
	}
	return p
}

// slowdown runs one probe of loads loads a thread and returns how many
// times longer than nominal a load took: 1 on the reference host in its
// usual state, more when the host is slow.
func (p *hostProbe) slowdown(loads int) float64 {
	var ns [2]int64
	var wg sync.WaitGroup
	for t := range p.arrays {
		wg.Add(1)
		go func() {
			defer wg.Done()
			a, k := p.arrays[t], p.at[t]
			t0 := now()
			for i := 0; i < loads; i++ {
				k = a[k]
			}
			ns[t] = now() - t0
			p.at[t] = k // the next probe goes on from here
		}()
	}
	wg.Wait()
	return float64(ns[0]+ns[1]) / 2 / float64(loads) / probeNominalNs
}
