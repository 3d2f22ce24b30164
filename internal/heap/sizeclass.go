package heap

// Size classes for the segregated-fit, non-moving allocator. Every cell
// size is a multiple of the granule so that object starts are granule
// aligned and the color table can be indexed by granule. Objects larger
// than the biggest class are carved from whole blocks ("large" objects).
//
// The class list trades internal fragmentation (at most ~33%) against the
// number of per-mutator allocation caches.
var classSizes = [...]int{16, 32, 48, 64, 96, 128, 192, 256, 384, 512, 768, 1024, 2048}

// NumClasses is the number of small-object size classes.
const NumClasses = len(classSizes)

// MaxSmall is the largest cell size handled by the size classes. Requests
// above it become large objects occupying whole blocks.
const MaxSmall = 2048

// classOf maps a request size in granules, rounded up, to its class
// and cell size packed in one entry (cell<<classBits | class), so the
// create's lookup is one table load. Indexed by size/Granule for sizes
// up to MaxSmall; entry 0 serves requests of no bytes.
var classOf [MaxSmall/Granule + 1]uint16

// classBits is the width of the class index in a classOf entry.
const classBits = 4

func init() {
	c := 0
	for g := range classOf {
		for classSizes[c] < max(g, 1)*Granule {
			c++
		}
		classOf[g] = uint16(classSizes[c]<<classBits | c)
	}
}

// ClassFor returns the size-class index and cell size for a request of
// size bytes, or -1 and the size rounded up to whole blocks — the
// blocks a large object occupies — when the request is larger than
// MaxSmall. Requests of no bytes get the smallest class.
func ClassFor(size int) (class int, cellSize int) {
	g := uint(max(size, 0)+Granule-1) / Granule
	if g >= uint(len(classOf)) {
		return -1, (size + BlockSize - 1) / BlockSize * BlockSize
	}
	e := classOf[g]
	return int(e & (1<<classBits - 1)), int(e >> classBits)
}

// ClassSize returns the cell size in bytes of class c.
func ClassSize(c int) int { return classSizes[c] }

// CellsPerBlock returns how many cells of class c fit in one block.
func CellsPerBlock(c int) int { return BlockSize / classSizes[c] }
