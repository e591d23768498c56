package upc

// The micro-PC flight recorder: a fixed-size ring of the last N cycles'
// micro-PCs with their stall state — DEC's console micro-PC trace,
// rebuilt from the same observation point as the histogram board. Where
// the board integrates (16K counters, no order), the recorder remembers
// order and forgets totals; together a post-mortem gets both "how much"
// and "what led up to it". Like every hook in this repository it is nil
// on an uninstrumented machine, and the disabled cost at the EBOX call
// site is one pointer test per cycle.

// DefaultFlightDepth is the ring size used when a machine enables the
// recorder without choosing one.
const DefaultFlightDepth = 256

// FlightEntry is one recorded cycle.
type FlightEntry struct {
	Cycle   uint64
	UPC     uint16
	Stalled bool
}

// FlightRecorder is the ring buffer. Record is on the per-cycle hot
// path (a golint hot target): it must not allocate, and stays a masked
// store — the depth is rounded up to a power of two for that.
type FlightRecorder struct {
	buf  []FlightEntry
	mask uint32
	next uint32
	n    uint64 // total entries ever recorded
}

// NewFlightRecorder builds a recorder holding the last depth cycles
// (rounded up to a power of two; depth <= 0 selects the default).
func NewFlightRecorder(depth int) *FlightRecorder {
	if depth <= 0 {
		depth = DefaultFlightDepth
	}
	size := 1
	for size < depth {
		size <<= 1
	}
	return &FlightRecorder{buf: make([]FlightEntry, size), mask: uint32(size - 1)}
}

// Record captures one cycle. Field stores, not a composite literal:
// the hotpath analyzer holds this function to the per-cycle budget.
func (r *FlightRecorder) Record(now uint64, addr uint16, stalled bool) {
	e := &r.buf[r.next]
	e.Cycle = now
	e.UPC = addr
	e.Stalled = stalled
	r.next = (r.next + 1) & r.mask
	r.n++
}

// Depth returns the ring capacity.
func (r *FlightRecorder) Depth() int { return len(r.buf) }

// Recorded returns the total number of cycles ever recorded (it exceeds
// Depth once the ring has wrapped).
func (r *FlightRecorder) Recorded() uint64 { return r.n }

// Reset empties the ring (the supervisor resets it between retry
// attempts so a snapshot never mixes two attempts' cycles).
func (r *FlightRecorder) Reset() {
	if r == nil {
		return
	}
	r.next = 0
	r.n = 0
	for i := range r.buf {
		r.buf[i] = FlightEntry{}
	}
}

// Snapshot copies out the recorded cycles, oldest first; the last entry
// is the most recently recorded micro-PC. Nil-safe (returns nil).
func (r *FlightRecorder) Snapshot() []FlightEntry {
	if r == nil || r.n == 0 {
		return nil
	}
	size := uint64(len(r.buf))
	count := r.n
	if count > size {
		count = size
	}
	out := make([]FlightEntry, count)
	// Oldest entry: next (when wrapped) or 0 (when not).
	start := uint32(0)
	if r.n > size {
		start = r.next
	}
	for i := range out {
		out[i] = r.buf[(start+uint32(i))&r.mask]
	}
	return out
}
