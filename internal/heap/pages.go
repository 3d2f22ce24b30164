package heap

// PageBytes is the virtual-memory page size used for the Figure 15
// "pages touched by the collector" measurements.
const PageBytes = 4096

// PageSet records which pages the collector touches during one
// collection cycle. It covers the heap itself plus the age and card
// tables, mirroring the paper's note that the measurement includes "all
// the tables the collector uses (such as the card table)". The paper
// keeps an object's color in its header, so examining a color is charged
// as a touch of the object's heap page, not of our color table.
//
// Only the collector goroutine touches the set, inside collection
// cycles that the collector serializes, so the touched bits and the
// counter are plain words: the first touch of a page counts it, exactly
// once per page per cycle. The experiment harness charges a modeled
// memory cost per counted page (internal/bench). The regions are laid
// out as consecutive page ranges:
//
//	[0, heapPages)          heap data
//	[heapPages, +agePages)  age table (1 B per granule)
//	[.., +cardPages)        card table (1 B per card)
type PageSet struct {
	heapPages int
	agePages  int
	cardPages int
	touched   []bool
	count     int
}

// NewPageSet builds a page tracker for a heap of heapBytes with a card
// table of nCards one-byte entries.
func NewPageSet(heapBytes, nCards int) *PageSet {
	p := &PageSet{
		heapPages: pages(heapBytes),
		agePages:  pages(heapBytes / Granule),
		cardPages: pages(nCards),
	}
	p.touched = make([]bool, p.heapPages+p.agePages+p.cardPages)
	return p
}

func pages(bytes int) int { return (bytes + PageBytes - 1) / PageBytes }

func (p *PageSet) mark(page int) {
	if p.touched[page] {
		return
	}
	p.touched[page] = true
	p.count++
}

// TouchHeap records that the collector touched heap bytes [addr,
// addr+size).
func (p *PageSet) TouchHeap(addr Addr, size int) {
	if p == nil {
		return
	}
	first := int(addr) / PageBytes
	last := (int(addr) + size - 1) / PageBytes
	for pg := first; pg <= last; pg++ {
		p.mark(pg)
	}
}

// TouchAge records an access to the age-table entry of addr.
func (p *PageSet) TouchAge(addr Addr) {
	if p == nil {
		return
	}
	p.mark(p.heapPages + int(addr/Granule)/PageBytes)
}

// TouchCardByte records an access to card index ci of the card table.
func (p *PageSet) TouchCardByte(ci int) {
	if p == nil {
		return
	}
	p.mark(p.heapPages + p.agePages + ci/PageBytes)
}

// Count returns the number of distinct pages touched since the last
// Reset.
func (p *PageSet) Count() int {
	if p == nil {
		return 0
	}
	return p.count
}

// Reset clears the set for the next collection cycle.
func (p *PageSet) Reset() {
	if p == nil {
		return
	}
	clear(p.touched)
	p.count = 0
}
