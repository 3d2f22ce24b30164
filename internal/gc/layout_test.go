package gc

import (
	"reflect"
	"testing"
	"unsafe"
)

// TestCollectorLayout pins the field order Collector's doc comment calls
// load-bearing (deleting one 8-byte Config field once shifted these words
// and cost server_overload 7 % goodput):
//   - the words mutators read per allocation and barrier, and the padded
//     words they write, sit ahead of cfg, so their offsets do not depend
//     on unsafe.Sizeof(Config{});
//   - the mutator-written counters share one cache line (the Collector's
//     size class is a multiple of 64, so offsets are line offsets) and
//     keep a full line (64 bytes) to every other field on both sides.
func TestCollectorLayout(t *testing.T) {
	var c Collector
	cfg := unsafe.Offsetof(c.cfg)
	for name, off := range map[string]uintptr{
		"allocColor":   unsafe.Offsetof(c.allocColor),
		"clearColor":   unsafe.Offsetof(c.clearColor),
		"statusC":      unsafe.Offsetof(c.statusC),
		"tracing":      unsafe.Offsetof(c.tracing),
		"ackEpoch":     unsafe.Offsetof(c.ackEpoch),
		"grayProduced": unsafe.Offsetof(c.grayProduced),
		"heapBytes":    unsafe.Offsetof(c.heapBytes),
		"heapObjects":  unsafe.Offsetof(c.heapObjects),
	} {
		if off >= cfg {
			t.Errorf("%s at offset %d follows cfg (%d): a Config edit moves it", name, off, cfg)
		}
	}
	if first, last := unsafe.Offsetof(c.grayProduced), unsafe.Offsetof(c.heapObjects)+7; first/64 != last/64 {
		t.Errorf("grayProduced..heapObjects span bytes %d..%d, two cache lines", first, last)
	}

	padded := map[string]bool{"grayProduced": true, "heapBytes": true, "heapObjects": true}
	typ := reflect.TypeOf(&c).Elem()
	for i := 0; i < typ.NumField(); i++ {
		p := typ.Field(i)
		if !padded[p.Name] {
			continue
		}
		for j := 0; j < typ.NumField(); j++ {
			f := typ.Field(j)
			if f.Name == "_" || padded[f.Name] {
				continue
			}
			gap := int(f.Offset) - int(p.Offset+p.Type.Size())
			if f.Offset < p.Offset {
				gap = int(p.Offset) - int(f.Offset+f.Type.Size())
			}
			if gap < 64 {
				t.Errorf("%s (offset %d) is %d bytes from %s (offset %d), want >= 64",
					p.Name, p.Offset, gap, f.Name, f.Offset)
			}
		}
	}
}

// TestMutatorLayout: Mutator's size stays a multiple of 64, so the
// allocator's size class for it places every Mutator on a cache-line
// boundary.
func TestMutatorLayout(t *testing.T) {
	if n := unsafe.Sizeof(Mutator{}); n%64 != 0 {
		t.Errorf("unsafe.Sizeof(Mutator{}) = %d, not a multiple of 64: resize Mutator's trailing pad", n)
	}
}
