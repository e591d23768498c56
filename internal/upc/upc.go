// Package upc implements the paper's contribution: the micro-PC histogram
// monitor. The hardware was a general-purpose histogram count board with
// 16,000 addressable count locations plus a processor-specific interface
// that addressed a distinct bucket for each microcode location and pulsed
// a count for each microinstruction executed (§2.2).
//
// The board actually contains two sets of counts: one for non-stalled
// microinstructions and one for read- or write-stalled microinstructions
// (§4.3). It is completely passive — attaching it changes nothing about
// the measured system — and is controlled over the Unibus: commands start
// and stop collection, clear the buckets, and read them out.
package upc

import (
	"errors"
	"fmt"
)

// Buckets is the number of addressable count locations on the histogram
// board.
const Buckets = 16384

// counterBits models the board's counter width. The paper notes the
// capacity sufficed for 1-2 hours of heavy processing; 40-bit counters at
// a 5 MHz cycle rate give about 61 hours for a single hot location, and
// more importantly let us detect saturation rather than wrap.
const counterBits = 40

const counterMax = (uint64(1) << counterBits) - 1

// CounterMax is the largest value a board counter can architecturally
// hold. A dumped bucket above it is physically impossible and therefore
// proof of corruption; a bucket exactly at it is saturated (a lower
// bound, not a count). The degradation-aware analysis uses both.
const CounterMax = counterMax

// FaultInjector is the board's fault hook (see internal/faults): a
// deterministic plan deciding, per count pulse, whether the pulse is
// dropped, a counter bit flips, or a counter sticks at capacity. It is
// nil on a healthy board — the fast path is one pointer check per Tick,
// the same zero-overhead-when-disabled pattern as the telemetry probes.
type FaultInjector interface {
	// DropTick reports whether this count pulse is lost.
	DropTick(addr uint16, stalled bool) bool
	// CorruptTick returns an XOR mask applied to the ticked counter
	// (0 = none).
	CorruptTick(addr uint16) uint64
	// SaturateTick reports whether the ticked counter is forced to its
	// capacity.
	SaturateTick(addr uint16) bool
}

// Monitor is the UPC histogram monitor. The two count sets live in one
// backing array — normal counts in the lower half, stalled counts in the
// upper half — so the per-cycle Tick indexes once and stays under the
// inlining budget.
type Monitor struct {
	counts [2 * Buckets]uint64

	// fast caches "running with no fault injector": the single test the
	// per-cycle Tick makes before the plain increment.
	fast bool

	running   bool
	saturated bool
	fault     FaultInjector
}

// New returns a stopped, cleared monitor.
func New() *Monitor { return &Monitor{} }

// updateFast recomputes the Tick fast-path gate.
func (m *Monitor) updateFast() { m.fast = m.running && m.fault == nil }

// Start begins data collection.
func (m *Monitor) Start() { m.running = true; m.updateFast() }

// Stop halts data collection and reconciles any lazily deferred
// saturation (see TickFast).
func (m *Monitor) Stop() { m.running = false; m.updateFast(); m.reconcile() }

// Running reports whether the monitor is collecting.
func (m *Monitor) Running() bool { return m.running }

// Clear zeroes every bucket.
func (m *Monitor) Clear() {
	m.counts = [2 * Buckets]uint64{}
	m.saturated = false
}

// Reset returns the monitor to its as-new state — stopped, cleared,
// no fault injector — for pooled reuse between workload machines.
func (m *Monitor) Reset() {
	m.Clear()
	m.running = false
	m.fault = nil
	m.updateFast()
}

// Saturated reports whether any counter hit its capacity (data from a
// saturated run undercounts and should be discarded). It reconciles
// any lazily deferred saturation first (see TickFast).
func (m *Monitor) Saturated() bool {
	m.reconcile()
	return m.saturated
}

// SetFault attaches a fault injector to the board (nil detaches it).
func (m *Monitor) SetFault(f FaultInjector) { m.fault = f; m.updateFast() }

// Fast reports whether the next count pulse may be delivered through
// TickFast: the board is running with no fault injector attached. A
// caller driving the board per cycle re-reads this gate each pulse (it
// is one flag load) because Unibus commands can stop, start, or clear
// the board mid-run.
func (m *Monitor) Fast() bool { return m.fast }

// TickFast records one count pulse on the healthy fast path: a plain
// array increment with no saturation test, small enough to inline into
// the EBOX cycle loop. Callers must check Fast() first. Saturation is
// reconciled lazily — a counter may transiently exceed counterMax and
// is clamped (and the saturated flag latched) at Stop, Snapshot, or
// Saturated, which is bit-exact with the eager path because a counter
// held at capacity and a counter clamped to capacity read identically.
func (m *Monitor) TickFast(addr uint16, stalled bool) {
	i := uint32(addr) & (Buckets - 1)
	if stalled {
		i += Buckets
	}
	m.counts[i]++
}

// reconcile applies the deferred saturation semantics after a burst of
// TickFast pulses: any counter past its architectural capacity is
// clamped to capacity and the saturated flag latched. With a fault
// injector attached TickFast is never used and a counter above
// capacity is corruption evidence, so it is left untouched.
func (m *Monitor) reconcile() {
	if m.fault != nil {
		return
	}
	for i := range m.counts {
		if m.counts[i] > counterMax {
			m.counts[i] = counterMax
			m.saturated = true
		}
	}
}

// Tick records one EBOX cycle at micro-PC addr. stalled selects the
// second count set, used for read- and write-stalled cycles; IB-stall
// cycles are ordinary executions of the IB-stall wait microinstruction
// and arrive with stalled=false (§4.3). Tick is the passive hardware
// hook: it never affects the machine.
//
// Tick is the full-service path: it honors a stopped board, an
// attached fault injector, and eager saturation. The per-cycle driver
// (the EBOX) uses TickFast instead whenever Fast() holds.
func (m *Monitor) Tick(addr uint16, stalled bool) {
	if !m.running {
		return
	}
	i := int(addr) & (Buckets - 1)
	if stalled {
		i += Buckets
	}
	c := &m.counts[i]
	if m.fault != nil && m.tickFaulty(addr, stalled, c) {
		return
	}
	if *c >= counterMax {
		m.saturated = true
		return
	}
	*c++
}

// tickFaulty applies the injector's decisions for one count pulse. It
// returns true when the pulse was consumed by a fault (dropped or the
// counter forced); corruption (bit flips) lets the pulse proceed.
func (m *Monitor) tickFaulty(addr uint16, stalled bool, c *uint64) bool {
	if m.fault.DropTick(addr, stalled) {
		return true
	}
	if m.fault.SaturateTick(addr) {
		*c = counterMax
		m.saturated = true
		return true
	}
	if mask := m.fault.CorruptTick(addr); mask != 0 {
		// Board RAM corruption: the value can exceed the architectural
		// counter capacity, which is how the reduction detects it.
		*c ^= mask
	}
	return false
}

// Read returns the two counts of one bucket (a Unibus read sequence on
// the real board).
func (m *Monitor) Read(addr uint16) (normal, stalled uint64) {
	i := int(addr) & (Buckets - 1)
	return m.counts[i], m.counts[i+Buckets]
}

// Snapshot copies the current counts into a Histogram for offline
// reduction, as the measurement hosts dumped the board after each run.
// Deferred saturation is reconciled first so a dump never shows a
// physically impossible count on a healthy board.
func (m *Monitor) Snapshot() *Histogram {
	m.reconcile()
	h := &Histogram{}
	copy(h.Normal[:], m.counts[:Buckets])
	copy(h.Stalled[:], m.counts[Buckets:])
	return h
}

// SnapshotDelta dumps the counts accumulated since prev into a fresh
// Histogram and updates prev in place to the current counts — the
// interval recorder's roll, fused into one pass instead of a full
// Snapshot copy followed by a Diff. pulses is an upper bound on the
// count pulses delivered since the board was last cleared (the caller's
// elapsed cycle count serves); when it cannot have reached a counter's
// capacity the deferred-saturation reconcile scan is skipped, which is
// exact because a counter only exceeds capacity after more than
// CounterMax pulses.
func (m *Monitor) SnapshotDelta(prev *Histogram, pulses uint64) *Histogram {
	if pulses > counterMax {
		m.reconcile()
	}
	out := &Histogram{}
	for i := 0; i < Buckets; i++ {
		c := m.counts[i]
		out.Normal[i] = c - prev.Normal[i]
		prev.Normal[i] = c
	}
	for i := 0; i < Buckets; i++ {
		c := m.counts[Buckets+i]
		out.Stalled[i] = c - prev.Stalled[i]
		prev.Stalled[i] = c
	}
	return out
}

// Histogram is a dumped set of counts, the unit of data reduction. The
// composite workload of the paper is the sum of the five per-experiment
// histograms.
type Histogram struct {
	Normal  [Buckets]uint64
	Stalled [Buckets]uint64
}

// Add accumulates other into h (histogram summing, §2.2: "the composite
// of all five, that is, the sum of the five UPC histograms"). One plain
// index loop per count set, with no cross-array access in the body, so
// the compiler can unroll and vectorize the merge.
func (h *Histogram) Add(other *Histogram) {
	for i := range h.Normal {
		h.Normal[i] += other.Normal[i]
	}
	for i := range h.Stalled {
		h.Stalled[i] += other.Stalled[i]
	}
}

// Diff returns h minus prev: the counts accumulated between two
// snapshots. This enables the interval analysis the paper lists as a
// limitation of its averages-only reduction (§2.2: "no measures of the
// variation of the statistics during the measurement are collected").
func (h *Histogram) Diff(prev *Histogram) *Histogram {
	out := &Histogram{}
	for i := range h.Normal {
		out.Normal[i] = h.Normal[i] - prev.Normal[i]
	}
	for i := range h.Stalled {
		out.Stalled[i] = h.Stalled[i] - prev.Stalled[i]
	}
	return out
}

// TotalCycles returns the total of both count sets: every processor cycle
// of the measurement interval.
func (h *Histogram) TotalCycles() uint64 {
	var n uint64
	for i := range h.Normal {
		n += h.Normal[i] + h.Stalled[i]
	}
	return n
}

// At returns the counts at one location.
func (h *Histogram) At(addr uint16) (normal, stalled uint64) {
	return h.Normal[addr], h.Stalled[addr]
}

// Unibus register offsets of the histogram board. The board was designed
// as a Unibus device (§2.2); this register file reproduces that control
// path so the monitor can be driven exactly as the measurement scripts
// drove it.
const (
	RegCSR    = 0o0 // control/status register
	RegAddr   = 0o2 // bucket address register
	RegDataLo = 0o4 // low 16 bits of the addressed count
	RegDataHi = 0o6 // high bits of the addressed count (reads latch)
)

// CSR bits.
const (
	CSRRun      = 1 << 0 // set: counting
	CSRClear    = 1 << 1 // write 1: clear all buckets
	CSRStallSet = 1 << 2 // select the stalled count set for readout
	CSRSat      = 1 << 7 // read-only: a counter saturated
)

// BusFaultInjector is the Unibus readout fault hook: bus noise that
// garbles a register read without affecting the board's stored counts.
// nil on a healthy bus.
type BusFaultInjector interface {
	// GlitchRead optionally corrupts a register read, returning the
	// garbled value and true when a glitch fires.
	GlitchRead(off, v uint16) (uint16, bool)
}

// Bus is the Unibus programming interface of the board.
type Bus struct {
	m     *Monitor
	addr  uint16
	stall bool
	latch uint64

	// Fault, when non-nil, injects read glitches on the bus path.
	Fault BusFaultInjector

	// Glitches counts reads the injector corrupted, so measurement
	// scripts can report readout health.
	Glitches uint64
}

// NewBus attaches a Unibus register interface to m.
func NewBus(m *Monitor) *Bus { return &Bus{m: m} }

// ErrBadRegister is returned for accesses outside the board's register
// file.
var ErrBadRegister = errors.New("upc: no such register")

// WriteWord performs a Unibus word write to the given register offset.
func (b *Bus) WriteWord(off uint16, v uint16) error {
	switch off {
	case RegCSR:
		if v&CSRClear != 0 {
			b.m.Clear()
		}
		if v&CSRRun != 0 {
			b.m.Start()
		} else {
			b.m.Stop()
		}
		b.stall = v&CSRStallSet != 0
		return nil
	case RegAddr:
		b.addr = v % Buckets
		return nil
	case RegDataLo, RegDataHi:
		return fmt.Errorf("%w: data registers are read-only", ErrBadRegister)
	}
	return ErrBadRegister
}

// ReadWord performs a Unibus word read. Reading RegDataLo latches the
// addressed counter so the two halves are consistent. An attached
// fault injector may garble the returned value (the board's stored
// counts are unaffected — the glitch is on the bus).
func (b *Bus) ReadWord(off uint16) (uint16, error) {
	v, err := b.readWord(off)
	if err != nil {
		return v, err
	}
	if b.Fault != nil {
		if g, hit := b.Fault.GlitchRead(off, v); hit {
			b.Glitches++
			return g, nil
		}
	}
	return v, nil
}

func (b *Bus) readWord(off uint16) (uint16, error) {
	switch off {
	case RegCSR:
		var v uint16
		if b.m.running {
			v |= CSRRun
		}
		if b.stall {
			v |= CSRStallSet
		}
		if b.m.saturated {
			v |= CSRSat
		}
		return v, nil
	case RegAddr:
		return b.addr, nil
	case RegDataLo:
		n, s := b.m.Read(b.addr)
		b.latch = n
		if b.stall {
			b.latch = s
		}
		return uint16(b.latch), nil
	case RegDataHi:
		return uint16(b.latch >> 16), nil
	}
	return 0, ErrBadRegister
}
