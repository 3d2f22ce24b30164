package heap

import "sync/atomic"

// Color is the marking color of an object, kept in the color table: one
// byte per granule — the color and the hasSlots flag — eight to a 64-bit
// word. A blue cell's byte is zero, as is the byte of every granule that
// is not the first of its cell, so the table's nonzero bytes are exactly
// the allocated objects.
//
// The bytes of a word belong to objects that different threads color
// concurrently, so every write is an atomic read-modify-write of the
// word: create ORs into a byte it knows is zero, the sweep ANDs dead
// bytes to zero, SetColor and CasColor are compare-and-swap loops.
//
// The collector uses the standard DLG colors plus the yellow color of §4:
//
//	blue   – the cell is free; the color table is the free list, there
//	         is no other record of it
//	white  – not yet traced (one of the two toggled colors)
//	yellow – allocated during the current cycle (the other toggled color)
//	gray   – reached, slots not yet scanned: written only by mutators'
//	         MarkGray, the card scan and the collector's re-gray of the
//	         globals root; the collector's own trace shades a son
//	         straight to the old code
//	black  – reached by the trace; doubles as "old generation". There
//	         are two old codes, Black and Black2
//
// White and yellow are not fixed roles: the color-toggle mechanism of §5
// exchanges which of the two is the allocation color and which is the
// clear color at the start of every cycle. The old codes toggle the same
// way, once per full collection: the collector flips which one means
// "old", and until that collection's sweep the other one ("stale") reads
// as the color InitFullCollection's recoloring walk would have written —
// so there is no such walk. Blue is the zero value so that a freshly
// mapped color table reads as all-free.
type Color uint32

const (
	Blue Color = iota
	White
	Yellow
	Gray
	Black
	Black2

	// NoColor is a code no color byte ever holds: the collector's stale
	// old code outside a full collection, matching nothing.
	NoColor Color = colorBits
)

// OtherBlack returns the old code that old is not: the flip of a full
// collection.
func OtherBlack(old Color) Color { return Black ^ Black2 ^ old }

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
	case Black2:
		return "black2"
	}
	return "invalid"
}

const (
	colorBits = 0x07 // a color byte's color field
	hasSlots  = 0x08 // the object has pointer slots; header word 0 counts them

	lo8 = 0x0101010101010101 // bit 0 of every byte of a word
	hi8 = 0x8080808080808080 // bit 7 of every byte of a word

	// A block is whole words: walkers of different blocks share none.
	wordsPerBlock = BlockSize / Granule / 8
)

// eqMask returns bit 7 of every byte of w whose color field equals c.
func eqMask(w uint64, c Color) uint64 { return eqBytes(w, uint64(c)*lo8) }

// eqBytes is eqMask against a color already copied into every byte of
// pat, for loops that hoist the multiply. The bytes of x are at most 7,
// so adding 0x7f sets bit 7 of exactly the nonzero ones and carries
// nothing into a neighbour.
func eqBytes(w, pat uint64) uint64 {
	x := w&(colorBits*lo8) ^ pat
	return ^(x + 0x7f*lo8) & hi8
}

// allocated returns bit 7 of every byte of w that is not blue: the
// objects that start in the word's granules.
func allocated(w uint64) uint64 { return ^eqMask(w, Blue) & hi8 }

// colorByte locates the color byte of the object at addr: its word and
// the byte's shift in it (eight times the granule's index in the word).
func (h *Heap) colorByte(addr Addr) (w *uint64, shift Addr) {
	return &h.colors[addr/(8*Granule)], addr / (Granule / 8) & 56
}

// blockWords returns the color words of block b.
func (h *Heap) blockWords(b int) []uint64 { return h.colors[b*wordsPerBlock:][:wordsPerBlock] }

// Color returns the current color of the object at addr.
func (h *Heap) Color(addr Addr) Color {
	w, s := h.colorByte(addr)
	return Color(atomic.LoadUint64(w) >> s & colorBits)
}

// Header returns the color and the number of pointer slots of the
// object at addr from one load of its color byte. An object with slots
// keeps their number in header word 0 of its cell; a pointer-free
// object's cell is not read, whatever an earlier tenant left there.
func (h *Heap) Header(addr Addr) (Color, int) {
	w, s := h.colorByte(addr)
	b := atomic.LoadUint64(w) >> s
	if b&hasSlots == 0 {
		return Color(b & colorBits), 0
	}
	return Color(b & colorBits), int(atomic.LoadUint32(&h.mem[addr/WordBytes]))
}

// SetColor unconditionally recolors the object at addr, keeping its
// hasSlots flag — except that blue, freeing the cell, zeroes the byte.
func (h *Heap) SetColor(addr Addr, c Color) {
	w, s := h.colorByte(addr)
	field := uint64(colorBits) << s
	if c == Blue {
		field = 0xff << s
	}
	for {
		old := atomic.LoadUint64(w)
		if atomic.CompareAndSwapUint64(w, old, old&^field|uint64(c)<<s) {
			return
		}
	}
}

// CasColor recolors the object at addr from `from` — or from alias, a
// second color that stands for the same thing (the stale old code during
// a full collection; NoColor matches nothing) — to `to` atomically and
// reports whether the swap happened. It is the primitive under MarkGray:
// at most one of several racing mutators/collector wins, so each object
// enters the gray set at most once per transition. A neighbour byte
// changing under the swap is not a failure.
func (h *Heap) CasColor(addr Addr, from, alias, to Color) bool {
	// colorByte, spelled out: the call costs the collector's shade,
	// which inlines this, 4 of its inlining budget.
	w, s := &h.colors[addr/(8*Granule)], addr/(Granule/8)&56
	for {
		cur := atomic.LoadUint64(w)
		c := Color(cur >> s & colorBits)
		if c != from && c != alias {
			return false
		}
		if atomic.CompareAndSwapUint64(w, cur, cur^uint64(c^to)<<s) {
			return true
		}
	}
}

// Age returns the object's age (number of collections survived, §6).
// Ages are written only by the collector: during sweep, and zeroed when
// the object dies, so a new object's age is zero without a store.
func (h *Heap) Age(addr Addr) uint8 { return h.ages[addr/Granule] }

// SetAge records the object's age.
func (h *Heap) SetAge(addr Addr, a uint8) { h.ages[addr/Granule] = a }
