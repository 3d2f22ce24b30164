package card

import (
	"sync"
	"testing"
	"testing/quick"
)

func TestNewTableValidation(t *testing.T) {
	for _, bad := range []int{0, 8, 15, 17, 24, 8192, -16} {
		if _, err := NewTable(1<<20, bad); err == nil {
			t.Errorf("NewTable accepted card size %d", bad)
		}
	}
	for _, good := range []int{16, 32, 64, 128, 256, 512, 1024, 2048, 4096} {
		tab, err := NewTable(1<<20, good)
		if err != nil {
			t.Errorf("NewTable rejected card size %d: %v", good, err)
			continue
		}
		if tab.Size() != good {
			t.Errorf("Size = %d, want %d", tab.Size(), good)
		}
		if want := (1 << 20) / good; tab.NumCards() != want {
			t.Errorf("NumCards = %d, want %d", tab.NumCards(), want)
		}
	}
}

// TestGeometry checks IndexOf/Bounds are inverse over random addresses
// and card sizes.
func TestGeometry(t *testing.T) {
	sizes := []int{16, 64, 256, 4096}
	prop := func(rawAddr uint32, sizeIdx uint8) bool {
		size := sizes[int(sizeIdx)%len(sizes)]
		tab, _ := NewTable(1<<20, size)
		addr := rawAddr % (1 << 20)
		ci := tab.IndexOf(addr)
		lo, hi := tab.Bounds(ci)
		return lo <= addr && addr < hi && int(hi-lo) == size
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestMarkClear(t *testing.T) {
	tab, _ := NewTable(1<<20, 16)
	if tab.IsDirty(100) {
		t.Fatal("fresh card dirty")
	}
	tab.Mark(100 * 16)
	if !tab.IsDirty(100) {
		t.Fatal("marked card not dirty")
	}
	if tab.IsDirty(99) || tab.IsDirty(101) {
		t.Fatal("neighbors dirtied")
	}
	tab.Clear(100)
	if tab.IsDirty(100) {
		t.Fatal("cleared card still dirty")
	}
	tab.MarkIndex(100)
	if !tab.IsDirty(100) {
		t.Fatal("MarkIndex did not dirty")
	}
}

func TestClearAll(t *testing.T) {
	tab, _ := NewTable(1<<20, 64)
	for i := 0; i < tab.NumCards(); i += 7 {
		tab.MarkIndex(i)
	}
	tab.ClearAll()
	if got := tab.CountDirty(0, tab.NumCards()); got != 0 {
		t.Errorf("dirty after ClearAll = %d", got)
	}
}

func TestCountDirty(t *testing.T) {
	tab, _ := NewTable(1<<20, 16)
	tab.MarkIndex(10)
	tab.MarkIndex(20)
	tab.MarkIndex(30)
	if got := tab.CountDirty(0, tab.NumCards()); got != 3 {
		t.Errorf("CountDirty = %d, want 3", got)
	}
	if got := tab.CountDirty(15, 25); got != 1 {
		t.Errorf("CountDirty window = %d, want 1", got)
	}
	if got := tab.CountDirty(0, 1<<30); got != 3 {
		t.Errorf("CountDirty clamped = %d, want 3", got)
	}
}

// TestConcurrentMarkClear exercises the §7.2 protocol structure: a
// "mutator" marking while a "collector" runs the clear/check/re-set
// sequence. The invariant checked is the paper's: a mark racing with
// the three-step clear never ends up lost when the mutator's store
// precedes its mark.
func TestConcurrentMarkClear(t *testing.T) {
	tab, _ := NewTable(1<<20, 16)
	const ci = 500
	addr := uint32(ci * 16)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				tab.Mark(addr)
			}
		}
	}()
	for i := 0; i < 10000; i++ {
		tab.Clear(ci) // step 1
		// step 2 (check) elided: always assume young pointer found
		tab.MarkIndex(ci) // step 3
		if !tab.IsDirty(ci) {
			t.Fatal("card lost after three-step re-set")
		}
	}
	close(stop)
	wg.Wait()
}

// TestConcurrentMarksDistinctCards checks marks on different cards in
// the same word never interfere.
func TestConcurrentMarksDistinctCards(t *testing.T) {
	tab, _ := NewTable(1<<20, 16)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 5000; i++ {
				tab.Mark(uint32((i*8 + w) * 16 % (1 << 20)))
			}
		}(w)
	}
	wg.Wait()
	// All first 8*5000 distinct cards in the pattern must be dirty.
	for ci := 0; ci < 8*5000 && ci < tab.NumCards(); ci++ {
		if !tab.IsDirty(ci) {
			t.Fatalf("card %d lost under concurrent marking", ci)
		}
	}
}
