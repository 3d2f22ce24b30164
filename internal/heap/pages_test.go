package heap

import "testing"

func TestPageSetBasics(t *testing.T) {
	p := NewPageSet(1<<20, 1<<16)
	if p.Count() != 0 {
		t.Fatalf("fresh count = %d", p.Count())
	}
	p.TouchHeap(0, 1)
	p.TouchHeap(1, 1) // same page
	if p.Count() != 1 {
		t.Errorf("count after same-page touches = %d, want 1", p.Count())
	}
	p.TouchHeap(PageBytes-1, 2) // straddles two pages, one already touched
	if p.Count() != 2 {
		t.Errorf("count after straddle = %d, want 2", p.Count())
	}
	p.TouchHeap(0, 3*PageBytes) // pages 0,1,2: adds page 2
	if p.Count() != 3 {
		t.Errorf("count after span = %d, want 3", p.Count())
	}
}

func TestPageSetRegionsDisjoint(t *testing.T) {
	p := NewPageSet(1<<20, 1<<16)
	p.TouchHeap(0, 1)
	p.TouchAge(0)
	p.TouchCardByte(0)
	if p.Count() != 3 {
		t.Errorf("three distinct-region touches counted %d pages", p.Count())
	}
}

func TestPageSetReset(t *testing.T) {
	p := NewPageSet(1<<20, 1<<16)
	p.TouchHeap(12345, 100)
	p.Reset()
	if p.Count() != 0 {
		t.Errorf("count after reset = %d", p.Count())
	}
	p.TouchHeap(12345, 100)
	if p.Count() == 0 {
		t.Error("touches after reset not counted")
	}
}

func TestPageSetNilSafe(t *testing.T) {
	var p *PageSet
	p.TouchHeap(0, 16)
	p.TouchAge(0)
	p.TouchCardByte(0)
	p.Reset()
	if p.Count() != 0 {
		t.Error("nil PageSet count != 0")
	}
}

// TestPageSetCountsFirstTouch: a page counts on its first touch in a
// cycle only, and counts again after a Reset.
func TestPageSetCountsFirstTouch(t *testing.T) {
	p := NewPageSet(1<<20, 1<<16)
	for i := 0; i < 100; i++ {
		p.TouchHeap(0, 1)
	}
	if p.Count() != 1 {
		t.Errorf("count = %d, want 1", p.Count())
	}
	p.Reset()
	p.TouchHeap(0, 1)
	if p.Count() != 1 {
		t.Errorf("count after Reset = %d, want 1", p.Count())
	}
}

func TestPageSetLastPages(t *testing.T) {
	heapBytes := 1 << 20
	p := NewPageSet(heapBytes, 999) // odd card count
	// Touch the very last byte of each region; must not panic.
	p.TouchHeap(Addr(heapBytes-1), 1)
	p.TouchAge(Addr(heapBytes - 1))
	p.TouchCardByte(998)
}
