package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"gengc/internal/heap"
)

// allocRun is one measured configuration of the mutator-count sweep.
type allocRun struct {
	Mutators int     `json:"mutators"`
	NsPerOp  float64 `json:"ns_per_op"`
	Iters    int     `json:"iterations"`
}

// allocReport is the BENCH_alloc.json schema.
type allocReport struct {
	Generated  string     `json:"generated"`
	GoMaxProcs int        `json:"gomaxprocs"`
	NumCPU     int        `json:"numcpu"`
	Workload   string     `json:"workload"`
	Runs       []allocRun `json:"runs"`
}

// allocExperiment sweeps the AllocChurn workload over mutator counts
// (1/2/4/8), prints the table, and writes the machine-readable sweep to
// jsonPath so successive changes leave a perf trajectory.
func allocExperiment(w io.Writer, jsonPath string) error {
	rep := allocReport{
		Generated:  time.Now().UTC().Format(time.RFC3339),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Workload:   "heap.AllocChurn: mixed size classes, window=256, SweepBlock recycling",
	}
	fmt.Fprintf(w, "Allocation-path sweep (ns/op, AllocChurn)\n")
	fmt.Fprintf(w, "%-9s %12s\n", "mutators", "ns/op")
	for _, muts := range []int{1, 2, 4, 8} {
		r := testing.Benchmark(func(b *testing.B) {
			h, err := heap.New(64 << 20)
			if err != nil {
				b.Fatal(err)
			}
			per := b.N/muts + 1
			b.ResetTimer()
			var wg sync.WaitGroup
			errs := make(chan error, muts)
			for id := 0; id < muts; id++ {
				wg.Add(1)
				go func(id int) {
					defer wg.Done()
					if err := h.AllocChurn(id, per); err != nil {
						errs <- err
					}
				}(id)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				b.Fatal(err)
			}
		})
		ns := float64(r.T.Nanoseconds()) / float64(r.N)
		rep.Runs = append(rep.Runs, allocRun{Mutators: muts, NsPerOp: ns, Iters: r.N})
		fmt.Fprintf(w, "%-9d %12.1f\n", muts, ns)
	}
	fmt.Fprintln(w)
	f, err := os.Create(jsonPath)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(w, "alloc sweep written to %s\n\n", jsonPath)
	return nil
}
