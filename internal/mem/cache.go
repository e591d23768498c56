package mem

// Cache models the 11/780 data cache: physically addressed, write-through,
// no write-allocate. Both the D-stream and the IB refill path reference
// it; a read miss fills the block, a write updates only on hit.
//
// The tag store is one flat slice, set s's ways at [s*ways, (s+1)*ways).
// An entry holds tag+1, so 0 is an invalid way and a probe is one
// compare per way. (tag+1 cannot wrap: a tag is at most 2^32−1 only for
// 1-byte blocks in a one-set cache.)
type Cache struct {
	ways      int
	sets      divisor
	waysDiv   divisor
	blockBits uint

	tags []uint32
	// round-robin victim pointer per set (the 780 used random
	// replacement; round-robin is the standard deterministic stand-in).
	victim []uint32
}

// NewCache builds an empty cache of the given geometry: bytes/(ways ×
// block) sets, at least one, of ways ≥ 1 ways and blocks of block ≥ 2
// bytes (a block that is not a power of two indexes as the next one up).
func NewCache(bytes, ways, block int) *Cache {
	sets := bytes / (ways * block)
	if sets < 1 {
		sets = 1
	}
	return &Cache{
		ways:      ways,
		sets:      newDivisor(sets),
		waysDiv:   newDivisor(ways),
		blockBits: log2(block),
		tags:      make([]uint32, sets*ways),
		victim:    make([]uint32, sets),
	}
}

func log2(n int) uint {
	var b uint
	for 1<<b < n {
		b++
	}
	return b
}

// Access references physical address pa. allocate selects read behaviour
// (fill on miss) versus write behaviour (update on hit only). It reports
// whether the reference hit.
func (c *Cache) Access(pa uint32, allocate bool) bool {
	tag, set := c.sets.divmod(pa >> c.blockBits)
	key := tag + 1
	i := int(set) * c.ways
	row := c.tags[i : i+c.ways]
	for _, t := range row {
		if t == key {
			return true
		}
	}
	if allocate {
		row[c.waysDiv.mod(c.victim[set])] = key
		c.victim[set]++
	}
	return false
}

// Flush invalidates every block. The victim pointers keep their places.
func (c *Cache) Flush() { clear(c.tags) }
