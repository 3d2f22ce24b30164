package workload_test

import (
	"fmt"

	"gengc"
	"gengc/internal/workload"
)

// ExampleBarrierChurn runs the uniform store-dominated churn loop: one
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
