package heap

import "sync/atomic"

// Color is the marking color of an object, kept in a side table indexed
// by the granule of the object's start address.
//
// The collector uses the standard DLG colors plus the yellow color of §4:
//
//	blue   – the cell is free; the color table is the free list, there
//	         is no other record of it
//	white  – not yet traced (one of the two toggled colors)
//	yellow – allocated during the current cycle (the other toggled color)
//	gray   – traced, children not yet scanned
//	black  – traced, children scanned; doubles as "old generation"
//
// White and yellow are not fixed roles: the color-toggle mechanism of §5
// exchanges which of the two is the allocation color and which is the
// clear color at the start of every cycle. Blue is the zero value so that
// a freshly mapped color table reads as all-free.
type Color uint32

const (
	Blue Color = iota
	White
	Yellow
	Gray
	Black
)

// String returns the color name for diagnostics.
func (c Color) String() string {
	switch c {
	case Blue:
		return "blue"
	case White:
		return "white"
	case Yellow:
		return "yellow"
	case Gray:
		return "gray"
	case Black:
		return "black"
	}
	return "invalid"
}

// Color returns the current color of the object at addr.
func (h *Heap) Color(addr Addr) Color {
	return Color(atomic.LoadUint32(&h.colors[addr/Granule]))
}

// SetColor unconditionally recolors the object at addr.
func (h *Heap) SetColor(addr Addr, c Color) {
	atomic.StoreUint32(&h.colors[addr/Granule], uint32(c))
}

// CasColor recolors the object at addr from old to new atomically and
// reports whether the swap happened. It is the primitive under MarkGray:
// at most one of several racing mutators/collector wins, so each object
// enters the gray set at most once per transition.
func (h *Heap) CasColor(addr Addr, old, new Color) bool {
	return atomic.CompareAndSwapUint32(&h.colors[addr/Granule], uint32(old), uint32(new))
}

// Age returns the object's age (number of collections survived, §6).
// Ages are written only by the owning mutator at creation and by the
// collector during sweep, never concurrently for the same object.
func (h *Heap) Age(addr Addr) uint8 { return h.ages[addr/Granule] }

// SetAge records the object's age.
func (h *Heap) SetAge(addr Addr, a uint8) { h.ages[addr/Granule] = a }
