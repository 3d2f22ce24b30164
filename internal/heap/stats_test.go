package heap

import "testing"

func TestCensusEmptyHeap(t *testing.T) {
	h := newTestHeap(t, 1<<20)
	s := h.Census()
	if s.Objects != 0 || s.ClassBlocks != 0 || s.LargeBlocks != 0 {
		t.Errorf("empty census = %+v", s)
	}
	if s.FreeBlocks != h.NumBlocks()-1 {
		t.Errorf("free blocks = %d, want %d", s.FreeBlocks, h.NumBlocks()-1)
	}
	if s.Utilization() != 0 {
		t.Errorf("utilization of empty heap = %v", s.Utilization())
	}
}

func TestCensusCountsObjects(t *testing.T) {
	h := newTestHeap(t, 1<<20)
	var c Cache
	for i := 0; i < 10; i++ {
		if _, err := h.Alloc(&c, 0, 48, White); err != nil {
			t.Fatal(err)
		}
	}
	big, err := h.Alloc(&c, 0, 2*BlockSize, Black)
	if err != nil {
		t.Fatal(err)
	}
	s := h.Census()
	if s.Objects != 11 {
		t.Errorf("objects = %d, want 11", s.Objects)
	}
	if s.ObjectBytes != 10*48+2*BlockSize {
		t.Errorf("object bytes = %d", s.ObjectBytes)
	}
	if s.ColorCounts[White] != 10 || s.ColorCounts[Black] != 1 {
		t.Errorf("colors = %v", s.ColorCounts)
	}
	if s.LargeBlocks != 2 || s.ClassBlocks != 1 {
		t.Errorf("blocks = %d large, %d class", s.LargeBlocks, s.ClassBlocks)
	}
	cls, _ := ClassFor(48)
	if s.PerClass[cls].Live != 10 {
		t.Errorf("class live = %d", s.PerClass[cls].Live)
	}
	if s.PerClass[cls].FreeCells != CellsPerBlock(cls)-10 {
		t.Errorf("class free cells = %d", s.PerClass[cls].FreeCells)
	}
	if u := s.Utilization(); u <= 0 || u > 1 {
		t.Errorf("utilization = %v", u)
	}
	_ = big
}

func TestCensusAfterFree(t *testing.T) {
	h := newTestHeap(t, 1<<20)
	var c Cache
	a, _ := h.Alloc(&c, 0, 48, Yellow)
	b, _ := h.Alloc(&c, 0, 48, Yellow)
	freeCells(h, a)
	s := h.Census()
	if s.Objects != 1 {
		t.Errorf("objects after free = %d, want 1", s.Objects)
	}
	if s.FreeCells == 0 {
		t.Error("no free cells counted")
	}
	_ = b
}
