package heap

import (
	"reflect"
	"testing"
)

// TestHeapLayout pins the layout Heap's field comment calls
// load-bearing: the central shards are their own allocation, reached
// through a pointer. Inline, their write-hot counters would share cache
// lines with the read-mostly slice headers ahead of them, which every
// Color and SizeOf call of every thread loads; inlining the array once
// cost young_churn 5–9 % CPU.
func TestHeapLayout(t *testing.T) {
	f, ok := reflect.TypeOf(Heap{}).FieldByName("shards")
	if !ok {
		t.Fatal("Heap has no shards field")
	}
	if want := reflect.TypeOf(&[NumClasses]centralShard{}); f.Type != want {
		t.Errorf("Heap.shards is %v, want %v: keep the shards out of line", f.Type, want)
	}
}
