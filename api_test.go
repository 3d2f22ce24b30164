package gengc

import (
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"reflect"
	"strings"
	"testing"
)

// TestPublicSurface pins what a user can set: Config's fields and the
// With… options of options.go. A new knob must edit these lists.
func TestPublicSurface(t *testing.T) {
	var fields, opts []string
	for _, f := range reflect.VisibleFields(reflect.TypeOf(Config{})) {
		fields = append(fields, f.Name)
	}
	f, err := parser.ParseFile(token.NewFileSet(), "options.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && strings.HasPrefix(fd.Name.Name, "With") {
			opts = append(opts, fd.Name.Name)
		}
	}
	for _, c := range [][2]string{
		{strings.Join(fields, " "), "Mode HeapBytes YoungBytes CardBytes OldAge TrackPages " +
			"StallTimeout Fault TraceSink FlightRecorderEvents PauseSLO RequestSLO Admission"},
		{strings.Join(opts, " "), "WithConfig WithMode WithHeapBytes WithYoungBytes WithCardBytes WithOldAge " +
			"WithTraceSink WithFlightRecorder WithPauseSLO WithStallTimeout WithFaultInjector WithAdmission WithRequestSLO"},
	} {
		if c[0] != c[1] {
			t.Errorf("public surface changed:\n got %s\nwant %s", c[0], c[1])
		}
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	if _, err := New(WithCardBytes(24)); err == nil {
		t.Fatal("New accepted an invalid card size")
	}
	if _, err := NewManual(WithYoungBytes(64 << 20)); err == nil {
		t.Fatal("NewManual accepted a young generation larger than the heap")
	}
}

func TestConfigErrorsAreSentinels(t *testing.T) {
	cases := []struct {
		name string
		opts []Option
	}{
		{"card size", []Option{WithCardBytes(24)}},
		{"via WithConfig", []Option{WithConfig(Config{OldAge: 1000})}},
	}
	for _, tc := range cases {
		_, err := NewManual(tc.opts...)
		if err == nil {
			t.Fatalf("%s: accepted", tc.name)
		}
		if !errors.Is(err, ErrInvalidConfig) {
			t.Errorf("%s: error %v does not wrap ErrInvalidConfig", tc.name, err)
		}
	}
}

func TestWithConfigMatchesOptions(t *testing.T) {
	a, err := NewManual(WithMode(GenerationalAging), WithHeapBytes(8<<20),
		WithYoungBytes(1<<20), WithCardBytes(64), WithOldAge(5))
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewManual(WithConfig(Config{
		Mode: GenerationalAging, HeapBytes: 8 << 20, YoungBytes: 1 << 20,
		CardBytes: 64, OldAge: 5,
	}))
	if err != nil {
		t.Fatal(err)
	}
	if a.Collector().Config() != b.Collector().Config() {
		t.Fatalf("option-built config %+v != WithConfig-built %+v",
			a.Collector().Config(), b.Collector().Config())
	}
}

// TestDefaultModeIsNonGenerational pins the documented default: without
// WithMode the runtime runs the non-generational collector, whose every
// collection is full.
func TestDefaultModeIsNonGenerational(t *testing.T) {
	rt, err := NewManual()
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	if got := rt.Collector().Config().Mode; got != NonGenerational {
		t.Fatalf("default mode = %v, want %v", got, NonGenerational)
	}
	m := rt.NewMutator()
	defer m.Detach()
	m.Collect(false)
	if cs := rt.Cycles(); len(cs) != 1 || cs[0].Kind.String() != "full" {
		t.Fatalf("m.Collect(false) recorded %+v, want one full cycle", cs)
	}
}

func TestHeapAccounting(t *testing.T) {
	rt, err := NewManual(WithMode(Generational), WithHeapBytes(4<<20))
	if err != nil {
		t.Fatal(err)
	}
	m := rt.NewMutator()
	objs0, bytes0 := rt.HeapObjects(), rt.HeapBytes()
	m.PushRoot(m.MustAlloc(0, 64))
	// Between publication points the totals trail the mutator by less
	// than one block.
	if got := rt.HeapBytes(); got < bytes0 || got > bytes0+64 {
		t.Errorf("bytes before publication = %d, want within [%d, %d]", got, bytes0, bytes0+64)
	}
	// Collect and Detach are publication points: exact from there on.
	for _, publish := range []struct {
		name string
		do   func()
	}{
		{"Collect", func() { m.Collect(false) }},
		{"Detach", func() { m.PushRoot(m.MustAlloc(0, 64)); m.Detach() }},
	} {
		publish.do()
		objs0, bytes0 = objs0+1, bytes0+64
		if got := rt.HeapObjects(); got != objs0 {
			t.Errorf("after %s: objects = %d, want %d", publish.name, got, objs0)
		}
		if got := rt.HeapBytes(); got != bytes0 {
			t.Errorf("after %s: bytes = %d, want %d", publish.name, got, bytes0)
		}
	}
}

func TestGlobals(t *testing.T) {
	rt, err := NewManual(WithMode(Generational), WithHeapBytes(4<<20))
	if err != nil {
		t.Fatal(err)
	}
	m := rt.NewMutator()
	defer m.Detach()
	a := m.MustAlloc(0, 32)
	rt.SetGlobal(m, 3, a)
	if rt.Global(3) != a {
		t.Fatal("global round trip failed")
	}
	if rt.Global(4) != Nil {
		t.Fatal("untouched global not nil")
	}
}

func TestMustAllocPanicsOnHopelessOOM(t *testing.T) {
	rt, err := NewManual(
		WithMode(Generational), WithHeapBytes(256<<10), WithYoungBytes(128<<10),
	)
	if err != nil {
		t.Fatal(err)
	}
	m := rt.NewMutator()
	defer m.Detach()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("MustAlloc did not panic on exhausted heap")
		}
		e, ok := r.(error)
		if !ok || !errors.Is(e, ErrOutOfMemory) {
			t.Fatalf("panic value %v does not wrap ErrOutOfMemory", r)
		}
	}()
	for i := 0; i < 100000; i++ {
		m.PushRoot(m.MustAlloc(0, 1024)) // all live: must eventually panic
		m.Safepoint()
	}
}

func TestStatsAndCycles(t *testing.T) {
	rt, err := NewManual(WithMode(Generational), WithHeapBytes(4<<20))
	if err != nil {
		t.Fatal(err)
	}
	m := rt.NewMutator()
	defer m.Detach()
	for i := 0; i < 100; i++ {
		m.MustAlloc(0, 64)
	}
	m.Collect(false)
	m.Collect(true)
	st := rt.Stats()
	if st.NumPartial != 1 || st.NumFull != 1 {
		t.Fatalf("cycles = %d partial / %d full", st.NumPartial, st.NumFull)
	}
	if st.ObjectsFreed < 100 {
		t.Errorf("freed = %d, want >= 100", st.ObjectsFreed)
	}
	cs := rt.Cycles()
	if len(cs) != 2 {
		t.Fatalf("Cycles() returned %d records", len(cs))
	}
}

func TestOnCycleStreamsRecords(t *testing.T) {
	rt, err := NewManual(WithMode(Generational), WithHeapBytes(4<<20))
	if err != nil {
		t.Fatal(err)
	}
	var got []CycleRecord
	rt.OnCycle(func(c CycleRecord) { got = append(got, c) })
	m := rt.NewMutator()
	defer m.Detach()
	for i := 0; i < 50; i++ {
		m.MustAlloc(0, 64)
	}
	m.Collect(false)
	m.Collect(true)
	if len(got) != 2 {
		t.Fatalf("observer saw %d records, want 2", len(got))
	}
	if got[0].Seq != 1 || got[1].Seq != 2 {
		t.Fatalf("observer records out of order: %+v", got)
	}
	if got[1].Kind.String() != "full" {
		t.Fatalf("second record kind = %v, want full", got[1].Kind)
	}
	// Must match the polled view.
	cs := rt.Cycles()
	if len(cs) != 2 || cs[0].ObjectsFreed != got[0].ObjectsFreed {
		t.Fatal("streamed records disagree with Cycles()")
	}
	rt.OnCycle(nil) // removable
	m.Collect(false)
	if len(got) != 2 {
		t.Fatal("observer fired after removal")
	}
}

func TestSlotsAccessor(t *testing.T) {
	rt, err := NewManual(WithMode(Generational), WithHeapBytes(4<<20))
	if err != nil {
		t.Fatal(err)
	}
	m := rt.NewMutator()
	defer m.Detach()
	a := m.MustAlloc(5, 0)
	if got := m.Slots(a); got != 5 {
		t.Fatalf("Slots = %d, want 5", got)
	}
}

func TestCloseIdempotent(t *testing.T) {
	rt, err := New(WithMode(Generational), WithHeapBytes(4<<20))
	if err != nil {
		t.Fatal(err)
	}
	rt.Close()
	rt.Close()
}

// TestWriteBatchMatchesWrite: both write APIs leave the same slot
// contents.
func TestWriteBatchMatchesWrite(t *testing.T) {
	rt, err := NewManual(WithMode(Generational), WithHeapBytes(4<<20))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	m := rt.NewMutator()
	defer m.Detach()
	a := m.MustAlloc(3, 0)
	b := m.MustAlloc(3, 0)
	m.PushRoot(a)
	m.PushRoot(b)
	vals := []Ref{m.MustAlloc(0, 16), m.MustAlloc(0, 16), Nil}
	m.WriteBatch(a, vals)
	for i, v := range vals {
		m.Write(b, i, v)
	}
	for i := range vals {
		if m.Read(a, i) != vals[i] || m.Read(b, i) != vals[i] {
			t.Errorf("slot %d: WriteBatch gave %d, Write gave %d, want %d", i, m.Read(a, i), m.Read(b, i), vals[i])
		}
	}
}

// TestSmallHeap: a heap and young size alone make a valid configuration
// — the full-collection trigger is derived from the heap, not a 4 MB
// default that a 2 MB heap cannot hold — and the small runtime
// collects and verifies.
func TestSmallHeap(t *testing.T) {
	rt, err := NewManual(WithHeapBytes(2<<20), WithYoungBytes(512<<10))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	m := rt.NewMutator()
	defer m.Detach()
	keep := m.PushRoot(Nil)
	for i := 0; i < 20000; i++ {
		x := m.MustAlloc(1, 64)
		m.Write(x, 0, m.Root(keep))
		if i%100 == 0 {
			m.SetRoot(keep, x)
		}
		m.Safepoint()
	}
	m.Collect(true)
	if n := rt.Collector().FullsDone(); n == 0 {
		t.Fatal("no full collection ran")
	}
	if err := rt.Verify(); err != nil {
		t.Fatal(err)
	}
}
