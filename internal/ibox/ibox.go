// Package ibox models the VAX-11/780 I-Fetch stage: the 8-byte
// Instruction Buffer (IB) and its refill engine. The IB makes a cache
// reference whenever one or more bytes are empty, accepts as many bytes as
// it has room for when the longword arrives, and may therefore reference
// the same longword up to four times (§4.1) — behaviour the paper calls
// implementation-specific and measures at about 2.2 references per
// instruction delivering about 1.7 bytes each.
//
// An I-stream translation-buffer miss does not trap immediately: a flag is
// set, and when the EBOX finds insufficient bytes in the IB to decode it
// recognizes the flag and runs the TB-miss microcode (§2.1).
package ibox

import (
	"errors"

	"vax780/internal/mem"
)

// ErrConsumeOverrun reports a decode path consuming more bytes than the
// IB holds. It was a panic before the fault/abort path existed; the
// EBOX now routes it as a machine-check abort with full context.
var ErrConsumeOverrun = errors.New("ibox: consume beyond buffer")

// Capacity is the size of the instruction buffer in bytes.
const Capacity = 8

// PageBytes is the size of a code page: the unit PageSource hands out.
const PageBytes = 512

// PageSource supplies the code page holding va (the machine's
// materialized code image), or nil when no code is materialized there:
// the IB then receives zero filler bytes, which the decode path never
// consumes. The IB keeps the last page it was given and asks again only
// when the fetch moves to another page (or the page it holds is nil).
type PageSource func(va uint32) *[PageBytes]byte

// Probe is the passive telemetry hook of the I-Fetch stage; nil on an
// uninstrumented machine (the fast path).
type Probe interface {
	// Refill observes an IB refill reference and its arrival latency.
	Refill(now uint64, va uint32, latency int, miss bool)
	// TBMiss observes the I-stream miss flag being raised.
	TBMiss(now uint64, istream bool, va uint32)
}

// FaultInjector is the I-Fetch stage's fault hook (see internal/faults):
// a deterministic plan deciding, per arrived refill, whether the
// longword is lost in transit. nil on a healthy machine.
type FaultInjector interface {
	// DropRefill reports whether this arrived refill longword is lost.
	DropRefill(va uint32) bool
}

// IBox is the I-Fetch stage.
type IBox struct {
	mem *mem.System
	src PageSource

	// Probe, when non-nil, observes refills and I-stream TB misses.
	Probe Probe

	// Fault, when non-nil, injects refill drops.
	Fault FaultInjector

	// The buffered bytes are the window win[head : head+bufLen]:
	// Consume advances head, and accept slides the window back to the
	// front only when a longword would not fit behind it.
	win     [4 * Capacity]byte
	head    int
	bufLen  int
	bufVA   uint32 // VA of win[head]
	fetchVA uint32 // VA of the next byte to request

	// code is the last page src returned, for the page numbered codePg.
	code   *[PageBytes]byte
	codePg uint32

	// The last I-stream translation: VAs [xlVA, xlVA+xlSpan) map to
	// xlPA onward while the memory system's Gen is xlGen. xlSpan is 0
	// until the first translation.
	xlVA, xlPA, xlSpan uint32
	xlGen              uint64
	memPageBytes       uint32 // the memory system's page size (the translation unit)

	pending       bool
	pendingArrive uint64

	itbMiss   bool
	itbMissVA uint32

	// Refs counts IB cache references; Consumed counts bytes the decode
	// path actually used; Resyncs counts forced refills outside branch
	// redirects (should stay 0 on a consistent workload).
	Refs     uint64
	Consumed uint64
	Resyncs  uint64
}

// New builds an IBox over the given memory system and code image.
func New(m *mem.System, src PageSource) *IBox {
	return &IBox{mem: m, src: src, memPageBytes: uint32(m.Config().PageBytes)}
}

// Bytes returns the current IB contents, starting at BufVA.
func (ib *IBox) Bytes() []byte { return ib.win[ib.head : ib.head+ib.bufLen] }

// BufVA returns the virtual address of the first buffered byte.
func (ib *IBox) BufVA() uint32 { return ib.bufVA }

// Consume removes n decoded bytes from the front of the IB. Consuming
// beyond the buffered bytes returns ErrConsumeOverrun (a machine-check
// condition, not a panic: the supervisor must be able to survive it).
func (ib *IBox) Consume(n int) error {
	if n > ib.bufLen {
		// The bare sentinel keeps Consume inlinable on the decode path;
		// the machine-check that wraps it records the VA and fault site.
		return ErrConsumeOverrun
	}
	ib.head += n
	ib.bufLen -= n
	ib.bufVA += uint32(n)
	ib.Consumed += uint64(n)
	return nil
}

// Redirect flushes the IB and restarts fetching at target (a taken
// branch, or an initial resync). Any in-flight refill is discarded.
func (ib *IBox) Redirect(target uint32) {
	ib.head, ib.bufLen = 0, 0
	ib.bufVA = target
	ib.fetchVA = target
	ib.pending = false
	ib.itbMiss = false
}

// ITBMiss reports a pending I-stream TB miss and the faulting address.
func (ib *IBox) ITBMiss() (bool, uint32) { return ib.itbMiss, ib.itbMissVA }

// ClearITBMiss is called by the EBOX after the TB-miss microcode has
// installed the translation.
func (ib *IBox) ClearITBMiss() { ib.itbMiss = false }

// Tick advances the I-Fetch stage one EBOX cycle. portFree reports
// whether the cache port is free this cycle (the EBOX has priority).
//
// Tick runs once per EBOX cycle and on most cycles does nothing (a
// refill in flight, a full buffer, or a busy port), so the do-nothing
// predicates stay inline and the refill/accept work sits behind one
// call in tickSlow.
func (ib *IBox) Tick(now uint64, portFree bool) {
	if ib.pending {
		if now < ib.pendingArrive {
			return
		}
	} else if !portFree || ib.bufLen >= Capacity {
		return
	}
	ib.tickSlow(now)
}

// tickSlow accepts an arrived refill or issues the next one; Tick has
// already established the port is free and there is room. The pending
// I-stream TB miss (rare: the EBOX services it within a bounded flow)
// is re-tested here to keep Tick under the inlining budget.
func (ib *IBox) tickSlow(now uint64) {
	if ib.pending {
		ib.accept()
		return
	}
	if ib.itbMiss {
		return
	}
	va := ib.fetchVA
	var pa uint32
	if d := va - ib.xlVA; d < ib.xlSpan && ib.xlGen == ib.mem.Gen() {
		// Same page, and nothing that could change its translation has
		// happened since: the TB would hit with the same frame.
		ib.mem.Reprobe(va)
		pa = ib.xlPA + d
	} else {
		var ok bool
		if pa, ok = ib.mem.Translate(va); !ok {
			ib.itbMiss = true
			ib.itbMissVA = va
			ib.mem.NoteTBMiss(true)
			if ib.Probe != nil {
				ib.Probe.TBMiss(now, true, va)
			}
			return
		}
		off := ib.mem.PageOffset(va)
		ib.xlVA, ib.xlPA, ib.xlGen = va-off, pa-off, ib.mem.Gen()
		ib.xlSpan = ib.memPageBytes
	}
	latency, miss := ib.mem.IRead(pa&^3, now)
	ib.Refs++
	if ib.Probe != nil {
		ib.Probe.Refill(now, va, latency, miss)
	}
	ib.pending = true
	// Data is usable the cycle after a hit, later on a miss.
	ib.pendingArrive = now + 1 + uint64(latency)
}

// accept delivers the arrived longword: as many of its bytes as the IB has
// room for right now, starting at fetchVA (§4.1). An attached fault
// injector may drop the longword in transit; the IB simply refetches,
// costing cycles but never correctness.
func (ib *IBox) accept() {
	ib.pending = false
	if ib.Fault != nil {
		if ib.Fault.DropRefill(ib.fetchVA) {
			return
		}
	}
	inLongword := 4 - int(ib.fetchVA&3)
	room := Capacity - ib.bufLen
	take := inLongword
	if take > room {
		take = room
	}
	if ib.head+ib.bufLen+take > len(ib.win) {
		copy(ib.win[:], ib.Bytes())
		ib.head = 0
	}
	// A longword never straddles a code page.
	if pg := ib.fetchVA / PageBytes; ib.code == nil || pg != ib.codePg {
		ib.code, ib.codePg = ib.src(ib.fetchVA), pg
	}
	dst := ib.win[ib.head+ib.bufLen : ib.head+ib.bufLen+take]
	if ib.code != nil {
		off := ib.fetchVA % PageBytes
		copy(dst, ib.code[off:off+uint32(take)])
	} else {
		clear(dst)
	}
	ib.bufLen += take
	ib.fetchVA += uint32(take)
	ib.mem.NoteIBytes(take)
}

// ForceResync redirects to target and counts the event; used by the
// machine when the trace and the IB disagree (should not happen on a
// consistent workload).
func (ib *IBox) ForceResync(target uint32) {
	ib.Resyncs++
	ib.Redirect(target)
}
