package workload_test

import (
	"fmt"
	"math/rand"

	"gengc"
	"gengc/internal/workload"
)

// ExampleZipf shows the generator's defining property: rank 0 receives
// the largest share of draws, and raising the skew exponent
// concentrates the distribution further.
func ExampleZipf() {
	for _, s := range []float64{0.6, 1.2} {
		z := workload.NewZipf(rand.New(rand.NewSource(1)), s, 100)
		counts := make([]int, 100)
		for i := 0; i < 100_000; i++ {
			counts[z.Next()]++
		}
		fmt.Printf("s=%.1f: rank 0 share ≈ %d%%, expected %d%%\n",
			s, counts[0]/1000, int(z.Prob(0)*100))
	}
	// Output:
	// s=0.6: rank 0 share ≈ 7%, expected 7%
	// s=1.2: rank 0 share ≈ 27%, expected 27%
}

// ExampleZipfChurn runs the Zipf-popularity profile of the contention
// matrix: every operation allocates a short-lived object and stores it
// into a Zipf-chosen slot of a long-lived table, so hot table objects
// absorb a skewed share of the inter-generational pointer traffic.
func ExampleZipfChurn() {
	rt, err := gengc.New(
		gengc.WithMode(gengc.Generational),
		gengc.WithHeapBytes(32<<20),
		gengc.WithYoungBytes(1<<20),
	)
	if err != nil {
		panic(err)
	}
	defer rt.Close()

	m := rt.NewMutator()
	defer m.Detach()
	churn := workload.ZipfChurn{Skew: 1.2, Objects: 256, Seed: 42}
	if err := churn.RunThread(m, 20_000); err != nil {
		panic(err)
	}
	fmt.Println("zipf churn completed")
	// Output:
	// zipf churn completed
}

// ExampleAuction runs the auction mix: bids allocate short-lived
// records chained onto Zipf-popular long-lived items, browses read the
// same chains, and new listings churn the old generation.
func ExampleAuction() {
	rt, err := gengc.New(
		gengc.WithMode(gengc.Generational),
		gengc.WithHeapBytes(32<<20),
		gengc.WithYoungBytes(1<<20),
	)
	if err != nil {
		panic(err)
	}
	defer rt.Close()

	m := rt.NewMutator()
	defer m.Detach()
	mix := workload.Auction{Items: 128, Skew: 0.9, Seed: 42}
	if err := mix.RunThread(m, 20_000); err != nil {
		panic(err)
	}
	fmt.Println("auction mix completed")
	// Output:
	// auction mix completed
}

// ExampleBarrierChurn runs the uniform store-dominated churn loop the
// telemetry experiment and the matrix's "churn" profile share: one
// allocation plus a fan of barriered pointer stores per operation.
func ExampleBarrierChurn() {
	rt, err := gengc.New(
		gengc.WithMode(gengc.Generational),
		gengc.WithHeapBytes(32<<20),
		gengc.WithYoungBytes(1<<20),
	)
	if err != nil {
		panic(err)
	}
	defer rt.Close()

	m := rt.NewMutator()
	defer m.Detach()
	churn := workload.BarrierChurn{BaseObjects: 16, Fanout: 8}
	if err := churn.RunThread(m, 20_000); err != nil {
		panic(err)
	}
	m.Collect(false)
	fmt.Println("collected under churn:", rt.Snapshot().Cycles > 0)
	// Output:
	// collected under churn: true
}
