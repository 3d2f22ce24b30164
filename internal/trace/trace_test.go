package trace

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"gengc/internal/metrics"
)

func TestRingOverflowDrops(t *testing.T) {
	var r Ring
	for i := 0; i < ringSize+100; i++ {
		r.Emit(Event{Ev: "pause", N: int64(i)})
	}
	if got := r.Dropped(); got != 100 {
		t.Fatalf("dropped = %d, want 100", got)
	}
	var got []Event
	r.drain(func(e Event) { got = append(got, e) })
	if len(got) != ringSize {
		t.Fatalf("drained %d events, want %d", len(got), ringSize)
	}
	// FIFO order, and the dropped events are the newest, not the oldest.
	for i, e := range got {
		if e.N != int64(i) {
			t.Fatalf("event %d has N=%d, want %d", i, e.N, i)
		}
	}
	// After a drain the ring has room again.
	r.Emit(Event{Ev: "pause", N: -1})
	if got := r.Dropped(); got != 100 {
		t.Fatalf("dropped after drain = %d, want still 100", got)
	}
}

func TestTracerFlushAndClose(t *testing.T) {
	sink := &MemorySink{}
	tr := New(sink)
	ring := tr.NewRing()
	ring.Emit(Event{Ev: "cycle", T: tr.Rel(tr.Epoch().Add(time.Millisecond))})
	tr.Flush()
	evs := sink.Events()
	if len(evs) != 2 || evs[0].Ev != "start" || evs[1].Ev != "cycle" {
		t.Fatalf("after flush: %+v, want [start cycle]", evs)
	}
	if evs[1].T != time.Millisecond.Nanoseconds() {
		t.Fatalf("Rel timestamp = %d, want %d", evs[1].T, time.Millisecond.Nanoseconds())
	}
	ring.Emit(Event{Ev: "drain"})
	tr.Close()
	tr.Close() // idempotent
	if evs := sink.Events(); len(evs) != 3 || evs[2].Ev != "drain" {
		t.Fatalf("after close: %+v, want final drain span drained", evs)
	}
	ring.Emit(Event{Ev: "lost"})
	tr.Flush()
	if evs := sink.Events(); len(evs) != 3 {
		t.Fatalf("events after Close leaked into sink: %+v", evs)
	}
}

func TestTracerReportsDropsOnClose(t *testing.T) {
	sink := &MemorySink{}
	tr := New(sink)
	ring := tr.NewRing()
	for i := 0; i < ringSize+7; i++ {
		ring.Emit(Event{Ev: "pause"})
	}
	tr.Close()
	evs := sink.Events()
	last := evs[len(evs)-1]
	if last.Ev != "drops" || last.N != 7 {
		t.Fatalf("last event = %+v, want drops with N=7", last)
	}
}

func TestJSONLSinkRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	s := NewJSONLSink(&buf)
	want := []Event{
		{Ev: "start"},
		{Ev: "cycle", T: 123, D: 456, Cycle: 1, K: "partial",
			Rec: &metrics.Cycle{Seq: 1, Duration: 456, ObjectsScanned: 10, ObjectsFreed: 5,
				DeathsByClass: []int64{0, 5}}},
		{Ev: "pause", T: 789, D: 42, Worker: 3, K: "handshake"},
	}
	for _, e := range want {
		s.Emit(e)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != len(want) {
		t.Fatalf("%d lines, want %d", len(lines), len(want))
	}
	for i, line := range lines {
		var got Event
		if err := json.Unmarshal([]byte(line), &got); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want[i]) {
			t.Fatalf("line %d round-tripped to %+v, want %+v", i, got, want[i])
		}
	}
	// Zero-valued optional fields are omitted from the wire format.
	if strings.Contains(lines[0], "cyc") || strings.Contains(lines[0], `"n"`) ||
		strings.Contains(lines[0], "rec") {
		t.Fatalf("start line carries omitempty fields: %s", lines[0])
	}
}

// TestTracerRaceConcurrentProducers runs one producer goroutine per ring
// emitting while the tracer flushes concurrently — the SPSC contract
// (one producer per ring, consumer under the tracer lock) under -race.
func TestTracerRaceConcurrentProducers(t *testing.T) {
	sink := &MemorySink{}
	tr := New(sink)
	const producers, events = 4, 3000
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		ring := tr.NewRing()
		wg.Add(1)
		go func(ring *Ring, p int) {
			defer wg.Done()
			for i := 0; i < events; i++ {
				ring.Emit(Event{Ev: "pause", Worker: p, N: int64(i)})
				if i%64 == 0 {
					tr.Flush()
				}
			}
		}(ring, p)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for {
		select {
		case <-done:
			tr.Close()
			next := map[int]int64{}
			var total, drops int64
			for _, e := range sink.Events() {
				switch e.Ev {
				case "pause":
					// Per producer, events arrive in emit order even
					// though flushes interleave with emits (drops may
					// punch holes, never reorder).
					if e.N < next[e.Worker] {
						t.Fatalf("worker %d: event N=%d out of order, want ≥ %d",
							e.Worker, e.N, next[e.Worker])
					}
					next[e.Worker] = e.N + 1
					total++
				case "drops":
					drops = e.N
				}
			}
			if total+drops != producers*events {
				t.Fatalf("delivered %d + dropped %d, want %d",
					total, drops, producers*events)
			}
			return
		default:
			tr.Flush()
		}
	}
}
