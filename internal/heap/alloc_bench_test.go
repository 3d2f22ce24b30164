package heap

import (
	"fmt"
	"sync"
	"testing"
)

// BenchmarkAllocParallel measures the tiered allocation path under 1, 2,
// 4 and 8 concurrent mutators cycling through mixed size classes, each
// with its own cache, batch-freeing in sweep-sized batches (AllocChurn).
// Run it with `go test -run XXX -bench AllocParallel ./internal/heap`.
func BenchmarkAllocParallel(b *testing.B) {
	for _, muts := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("muts=%d", muts), func(b *testing.B) {
			h, err := New(64<<20, false)
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
	}
}
