package mem

// TB models the 11/780 translation buffer: 128 entries organized as two
// halves — one for system-space addresses, one for process-space — each
// set-associative. A context switch (the LDPCTX microcode) flushes only
// the process half; this split is why the paper's companion study [3]
// cares about context-switch headway for TB simulations (§3.4).
//
// Both halves live in one flat slice: the process half's sets first,
// then the system half's, each set's ways contiguous. An entry holds
// vpn+1, so 0 is an invalid way.
type TB struct {
	ways    int
	sets    divisor // sets per half
	waysDiv divisor
	half    int // entries per half

	entries []uint32
	// clock drives round-robin replacement, as the real TB's random
	// replacement is well-approximated by it at this granularity.
	clock uint32
}

// NewTB builds an empty TB of entries split between the two halves, each
// half entries/2/ways sets (at least one) of ways ≥ 1 ways.
func NewTB(entries, ways int) *TB {
	setsPerHalf := entries / 2 / ways
	if setsPerHalf < 1 {
		setsPerHalf = 1
	}
	return &TB{
		ways:    ways,
		sets:    newDivisor(setsPerHalf),
		waysDiv: newDivisor(ways),
		half:    setsPerHalf * ways,
		entries: make([]uint32, 2*setsPerHalf*ways),
	}
}

// row returns the ways of vpn's set in the given space.
func (t *TB) row(vpn uint32, sys bool) []uint32 {
	i := int(t.sets.mod(vpn)) * t.ways
	if sys {
		i += t.half
	}
	return t.entries[i : i+t.ways]
}

// Lookup probes the TB for vpn in the given space.
func (t *TB) Lookup(vpn uint32, sys bool) bool {
	key := vpn + 1
	for _, e := range t.row(vpn, sys) {
		if e == key {
			return true
		}
	}
	return false
}

// Insert installs vpn, evicting round-robin within its set.
func (t *TB) Insert(vpn uint32, sys bool) {
	key := vpn + 1
	row := t.row(vpn, sys)
	for i, e := range row {
		if e == 0 {
			row[i] = key
			return
		}
		if e == key {
			return
		}
	}
	t.clock++
	row[t.waysDiv.mod(t.clock)] = key
}

// FlushProcess invalidates the process half.
func (t *TB) FlushProcess() { clear(t.entries[:t.half]) }
