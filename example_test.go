package gengc_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"gengc"
)

// Example shows the minimal lifecycle: attach a mutator, allocate and
// link objects through the write barrier, drop them, and collect.
func Example() {
	rt, err := gengc.NewManual(gengc.WithMode(gengc.Generational))
	if err != nil {
		panic(err)
	}
	defer rt.Close()

	m := rt.NewMutator()
	defer m.Detach()

	parent := m.MustAlloc(1, 0) // one pointer slot
	child := m.MustAlloc(0, 64) // a 64-byte leaf
	root := m.PushRoot(parent)  // keep the parent reachable
	m.Write(parent, 0, child)   // barriered store
	fmt.Println("child reachable:", m.Read(parent, 0) == child)

	m.SetRoot(root, gengc.Nil) // drop everything
	m.Collect(false)           // partial collection
	fmt.Println("objects freed:", rt.Stats().ObjectsFreed >= 2)
	// Output:
	// child reachable: true
	// objects freed: true
}

// ExampleNewManual shows the paper's parameter space expressed as
// functional options: collector variant, young generation size, card
// size, and tenure threshold.
func ExampleNewManual() {
	rt, err := gengc.NewManual(
		gengc.WithMode(gengc.GenerationalAging),
		gengc.WithYoungBytes(2<<20), // 2 MB young generation
		gengc.WithCardBytes(4096),   // "block marking"
		gengc.WithOldAge(5),         // tenure after six survived collections
	)
	if err != nil {
		panic(err)
	}
	defer rt.Close()
	fmt.Println(rt.Collector().Config().Mode)
	// Output:
	// generational+aging
}

// ExampleWithConfig shows applying a prepared Config — the bridge from
// the previous struct-literal construction API.
func ExampleWithConfig() {
	cfg := gengc.Config{Mode: gengc.Generational, CardBytes: 16}
	rt, err := gengc.NewManual(gengc.WithConfig(cfg))
	if err != nil {
		panic(err)
	}
	defer rt.Close()
	fmt.Println(cfg.Mode)
	// Output:
	// generational
}

// ExampleRuntime_OnCycle streams every collection's record as it
// completes — the push-based alternative to polling Cycles, used by
// cmd/gctrace's live event log.
func ExampleRuntime_OnCycle() {
	rt, err := gengc.NewManual(gengc.WithMode(gengc.Generational))
	if err != nil {
		panic(err)
	}
	defer rt.Close()

	// The callback runs on the collector goroutine: it must not block
	// or trigger collections. Here it feeds a channel the test drains.
	kinds := make(chan string, 8)
	rt.OnCycle(func(c gengc.CycleRecord) { kinds <- c.Kind.String() })

	m := rt.NewMutator()
	defer m.Detach()
	m.PushRoot(m.MustAlloc(1, 0))
	m.Collect(false)
	m.Collect(true)
	fmt.Println(<-kinds, <-kinds)
	// Output:
	// partial full
}

// ExampleRuntime_Snapshot polls the runtime's observability surface:
// collection counts, heap occupancy, and the per-mutator pause
// statistics that quantify the paper's "mutators are never stopped"
// property.
func ExampleRuntime_Snapshot() {
	rt, err := gengc.NewManual(gengc.WithMode(gengc.Generational))
	if err != nil {
		panic(err)
	}
	defer rt.Close()
	m := rt.NewMutator()
	defer m.Detach()
	root := m.PushRoot(gengc.Nil)
	for i := 0; i < 1000; i++ {
		m.SetRoot(root, m.MustAlloc(1, 64))
	}
	m.Collect(true) // cooperating with the handshakes records pauses

	snap := rt.Snapshot()
	fmt.Println("cycles:", snap.Cycles)
	fmt.Println("pauses recorded:", snap.Fleet.Count > 0)
	fmt.Println("max pause under a second:", snap.Fleet.Max < time.Second)
	// Output:
	// cycles: 1
	// pauses recorded: true
	// max pause under a second: true
}

// ExampleWithTraceSink streams the collector's structured events to a
// JSONL file that cmd/gcreport renders into pause and phase figures.
func ExampleWithTraceSink() {
	var buf bytes.Buffer
	sink := gengc.NewJSONLTraceSink(&buf)
	rt, err := gengc.NewManual(
		gengc.WithMode(gengc.Generational),
		gengc.WithTraceSink(sink),
	)
	if err != nil {
		panic(err)
	}
	m := rt.NewMutator()
	m.PushRoot(m.MustAlloc(1, 0))
	m.Collect(false)
	m.Detach()
	rt.Close() // flushes the final events into the sink

	var first gengc.TraceEvent
	if err := json.Unmarshal([]byte(strings.SplitN(buf.String(), "\n", 2)[0]), &first); err != nil {
		panic(err)
	}
	fmt.Println("first event:", first.Ev)
	fmt.Println("wrote events:", strings.Count(buf.String(), "\n") > 5)
	// Output:
	// first event: start
	// wrote events: true
}

// ExampleRuntime_Verify shows the built-in heap audit used throughout
// the test suite.
func ExampleRuntime_Verify() {
	rt, err := gengc.NewManual(gengc.WithMode(gengc.Generational))
	if err != nil {
		panic(err)
	}
	defer rt.Close()
	m := rt.NewMutator()
	defer m.Detach()
	m.PushRoot(m.MustAlloc(2, 0))
	m.Collect(true)
	fmt.Println("verified:", rt.Verify() == nil)
	// Output:
	// verified: true
}
