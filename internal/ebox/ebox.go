// Package ebox implements the VAX-11/780 EBOX: the microsequencer that
// executes the control store image against the memory subsystem and the
// I-Fetch/I-Decode stages. One call to Tick on the attached monitor is
// made per 200 ns EBOX cycle — the exact observation point of the paper's
// UPC histogram hardware. The six cycle classes of Table 8 (compute,
// read, read-stall, write, write-stall, IB-stall) are mutually exclusive
// by construction: every cycle ticks exactly one (address, stall-set)
// bucket. The board (and the flight recorder's masked store) are the
// only per-cycle consumers: every other observer is called at its own
// event horizon (see Clock).
package ebox

import (
	"fmt"
	"math"

	"vax780/internal/faults"
	"vax780/internal/ibox"
	"vax780/internal/mem"
	"vax780/internal/ucode"
	"vax780/internal/upc"
	"vax780/internal/urom"
	"vax780/internal/vax"
)

// Monitor is the passive per-cycle observation hook (the UPC board).
type Monitor interface {
	Tick(addr uint16, stalled bool)
}

// Probe is the telemetry layer's cycle-resolution hook. Unlike Monitor
// it is not called every cycle: the EBOX calls Cycle at the cycle its
// Clock's horizon names, and Cycle returns the next one. Between the
// two the EBOX runs the plain cycle inline, as if no probe were
// attached. It is nil on an uninstrumented machine.
type Probe interface {
	// Cycle runs the observer work due at cycle now — the same
	// observation point as the UPC board's count pulse, after the pulse
	// — and returns the next cycle at which there is more
	// (math.MaxUint64: none). It may also be called at a cycle with no
	// work due.
	Cycle(now uint64, addr uint16, stalled bool) (horizon uint64)
	// TBMiss observes a D-stream translation-buffer microtrap.
	TBMiss(now uint64, istream bool, va uint32)
}

// Clock is the EBOX's time as its observers read it. The counts are
// pulled at the observers' own publish points (an instruction decode,
// an interval roll, the end of a machine) instead of being pushed once
// per cycle.
type Clock struct {
	// Now is the cycle counter (200 ns units).
	Now uint64

	// Stalls counts the read- and write-stalled cycles among them.
	Stalls uint64

	// Horizon is the first cycle at which the Probe has work: tick
	// calls Probe.Cycle there and stores the horizon it returns. An
	// observer may move it between calls — lower, so that a pending
	// board command lands at the next cycle, or higher, once a tracer
	// stops collecting. A new EBOX starts at 0, so the first cycle
	// always asks the Probe.
	Horizon uint64
}

// InstrCtx carries everything data-dependent about one instruction (or
// overhead event) execution: the trace record plus derived operand
// context prepared by the machine.
type InstrCtx struct {
	In *vax.Instr // nil for overhead flows (interrupt delivery)

	// DstSpec is the index of the memory destination specifier whose
	// write the RSTORE flow performs, or -1 when the result goes to a
	// register (or nowhere).
	DstSpec int

	// FieldSpec is the index of the specifier providing the operand that
	// execute-phase MemReadOperand/MemWriteOperand cycles reference
	// (bit-field bases), or -1.
	FieldSpec int

	// String operand cursors for MemReadString/MemWriteString.
	StrSrc, StrDst uint32

	// ScalarVA is the cursor for MemReadScalar/MemWriteScalar (entry
	// masks, case tables, PCB longwords, interrupt vectors, ...).
	ScalarVA uint32

	// Target is the I-stream redirect target used by IBRedirect cycles.
	Target uint32
}

// EBOX is the microsequencer.
type EBOX struct {
	ROM *urom.ROM
	Mem *mem.System
	IB  *ibox.IBox

	// Mon is the attached per-cycle observation hook; nil when the
	// machine runs unmonitored.
	Mon Monitor

	// upcMon is the devirtualized fast path, set once at construction
	// when Mon is the real histogram board: tick then skips the
	// interface dispatch and inlines the board's count pulse.
	upcMon *upc.Monitor

	// Probe, when non-nil, receives telemetry events (cycle stream and
	// D-stream TB misses).
	Probe Probe

	// FR, when non-nil, is the micro-PC flight recorder: a fixed ring of
	// the last N cycles for post-mortems. Concrete type, so the per-cycle
	// call devirtualizes and runs on the inline path too; disabled cost
	// is this one pointer test.
	FR *upc.FlightRecorder

	// Clock holds Now, the stall count and the probe's horizon.
	Clock

	// inlineTo gates run's inline cycle: it runs while Now < inlineTo.
	// It is the horizon on a healthy board (or with no monitor at all)
	// and 0 otherwise; regate recomputes it.
	inlineTo uint64

	// SP is the current stack pointer; StackLo/StackHi bound the region
	// so synthetic push/pop imbalance cannot walk off to infinity.
	SP               uint32
	StackLo, StackHi uint32

	// Strict makes the IB byte decode the oracle of the trace record the
	// EBOX dispatches from: every opcode, specifier (mode, index, byte
	// length) and branch displacement is decoded from the IB and compared,
	// and a disagreement is an ErrDecodeMismatch error. Off, the record
	// alone drives dispatch and the cycles are the same.
	Strict bool

	// OverlapDecode models the improvement the paper names in §5: "saving
	// the non-overlapped I-Decode cycle could save one cycle on each
	// non-PC-changing instruction. (The later VAX model 11/750 did
	// [this].)" When set, the IRD cycle is free whenever the previous
	// instruction fell through (the IB pipeline was not redirected).
	OverlapDecode bool

	// CheckFaults is set by the machine when a fault plan is attached:
	// only then does the EBOX poll the memory subsystem for latched
	// parity errors after each data reference (one boolean test per
	// reference on the disabled path).
	CheckFaults bool

	// redirected records whether the current instruction redirected the
	// I-stream (branch taken / call / return), which forces the next
	// instruction to pay the full decode cycle even when overlapping.
	redirected bool

	// inAlign marks an alignment flow in progress, so a degenerate
	// faulting address of 0 (trapBase indistinguishable from "not in a
	// trap") cannot re-enter the alignment trap. This is EBOX state, not
	// a trace-record toggle: the trace stays read-only and shareable
	// across concurrently running machines.
	inAlign bool

	// microstate
	ctx      *InstrCtx
	upc      uint16
	uret     uint16
	loop     int
	pendBase uint16 // base-flow entry for an indexed specifier
	curSpec  int    // specifier whose operand memory functions reference
	specIdx  int    // next specifier to decode

	// Instrs counts RunInstr completions (cross-check for the IRD bucket).
	Instrs uint64
}

// New builds an EBOX. mon may be nil (unmonitored). When mon is the
// real histogram board the EBOX devirtualizes it once here, so the
// per-cycle tick pays a concrete inlined increment instead of an
// interface dispatch.
func New(rom *urom.ROM, m *mem.System, ib *ibox.IBox, mon Monitor) *EBOX {
	// The first instruction always pays its decode cycle: there is no
	// previous instruction to overlap it with.
	e := &EBOX{ROM: rom, Mem: m, IB: ib, Mon: mon, redirected: true}
	e.upcMon, _ = mon.(*upc.Monitor)
	return e
}

// tick advances one EBOX cycle: the monitor observes it, the probe runs
// whatever is due at this cycle, the I-Fetch stage gets its cycle
// (issuing a refill only when the cache port is free), and time moves.
// The monitor fast path (a healthy running board) is fully inlined; a
// stopped board, an attached fault injector, or a non-board Monitor
// implementation falls back to the full-service call.
func (e *EBOX) tick(addr uint16, stalled, portBusy bool) {
	if mon := e.upcMon; mon != nil {
		if mon.Fast() {
			mon.TickFast(addr, stalled)
		} else {
			mon.Tick(addr, stalled)
		}
	} else if e.Mon != nil {
		e.Mon.Tick(addr, stalled)
	}
	if stalled {
		e.Stalls++
	}
	if e.Now >= e.Horizon {
		e.observe(addr, stalled)
	}
	if e.FR != nil {
		e.FR.Record(e.Now, addr, stalled)
	}
	e.IB.Tick(e.Now, !portBusy)
	e.Now++
}

// observe is the cold call at the horizon: the probe runs what is due
// and names its next horizon (none without a probe), and the inline
// gate is re-evaluated, since a board command may have stopped or
// started the board.
func (e *EBOX) observe(addr uint16, stalled bool) {
	e.Horizon = math.MaxUint64
	if e.Probe != nil {
		e.Horizon = e.Probe.Cycle(e.Now, addr, stalled)
	}
	e.regate()
}

// regate recomputes the inline gate from the horizon and the board.
func (e *EBOX) regate() {
	e.inlineTo = 0
	if mon := e.upcMon; mon != nil && mon.Fast() || mon == nil && e.Mon == nil {
		e.inlineTo = e.Horizon
	}
}

// RunInstr executes one traced instruction to completion.
func (e *EBOX) RunInstr(ctx *InstrCtx) error {
	e.ctx = ctx
	e.specIdx = 0
	e.curSpec = -1
	overlapped := e.OverlapDecode && !e.redirected
	e.redirected = false
	var err error
	if overlapped {
		// The decode cycle overlaps the previous instruction's execution:
		// the dispatch happens without a counted IRD cycle (IB waits, if
		// any, still cost their stall cycles).
		var next uint16
		next, err = e.dispatchInstr()
		if err == nil {
			err = e.run(next)
		}
	} else {
		err = e.run(e.ROM.IRD)
	}
	if err != nil {
		return fmt.Errorf("ebox: %s at PC %#x: %w", ctx.In.Op, ctx.In.PC, err)
	}
	e.Instrs++
	return nil
}

// RunOverhead executes an overhead flow (interrupt delivery) that is not
// associated with an instruction.
func (e *EBOX) RunOverhead(entry uint16, ctx *InstrCtx) error {
	e.ctx = ctx
	e.specIdx = 0
	e.curSpec = -1
	return e.run(entry)
}

// run is the microsequencer main loop: execute from entry until an
// end-of-instruction microinstruction completes.
//
// Until the horizon, on a healthy board (or with no monitor at all), the
// plain cycle of a word without a memory function is done inline: the
// board's count pulse, the flight recorder's store, the I-Fetch cycle
// with the cache port free, and the clock. Words that only step or jump
// the micro-PC advance it here too. Memory cycles, IB stalls, traps,
// decode dispatches and the cycle at the horizon go through tick and
// seq. The gate is re-read at entry, since an observer may have moved
// the horizon between flows.
func (e *EBOX) run(entry uint16) error {
	e.regate()
	mon, fr := e.upcMon, e.FR
	words := e.ROM.Image.Insts
	e.upc = entry
	for steps := 0; ; steps++ {
		if steps > 1_000_000 {
			return fmt.Errorf("microcode runaway at uPC %#o", e.upc)
		}

		mi := &words[e.upc]

		if mi.Loop != ucode.LoopNone {
			e.loop = e.loopCount(mi.Loop, mi.N)
		}

		switch {
		case mi.Mem != ucode.MemNone:
			ok, err := e.doMem(mi, 0)
			if err != nil {
				return err
			}
			if !ok {
				continue // microtrap serviced; retry this microinstruction
			}
		case e.Now < e.inlineTo:
			if mon != nil {
				mon.TickFast(e.upc, false)
			}
			if fr != nil {
				fr.Record(e.Now, e.upc, false)
			}
			e.IB.Tick(e.Now, true)
			e.Now++
		default:
			e.tick(e.upc, false, false)
		}

		if mi.IB != ucode.IBRedirect {
			switch mi.Seq {
			case ucode.SeqNext:
				e.upc++
				continue
			case ucode.SeqJump:
				e.upc = mi.Target
				continue
			}
		}
		next, done, err := e.seq(mi)
		if err != nil {
			return err
		}
		if done {
			return nil
		}
		e.upc = next
	}
}

// loopCount resolves a loop-counter load against the instruction context.
func (e *EBOX) loopCount(src ucode.LoopSrc, n int) int {
	v := 1
	in := e.ctx.In
	switch src {
	case ucode.LoopImm:
		v = n
	case ucode.LoopRegCount:
		if in != nil {
			v = in.RegCount
		}
	case ucode.LoopStrLW:
		if in != nil {
			v = (in.StrLen + 3) / 4
		}
	case ucode.LoopStrBytes:
		if in != nil {
			v = in.StrLen
		}
	case ucode.LoopDigits:
		if in != nil {
			v = (in.Digits + 1) / 2
		}
	case ucode.LoopFieldLen:
		if in != nil {
			v = (in.FieldLen + 31) / 32
		}
	}
	if v < 1 {
		v = 1
	}
	return v
}

// push returns the VA for a stack push, wrapping within the stack region.
func (e *EBOX) push() uint32 {
	e.SP -= 4
	if e.SP < e.StackLo {
		e.SP = e.StackHi - 4
	}
	return e.SP
}

// pop returns the VA for a stack pop.
func (e *EBOX) pop() uint32 {
	va := e.SP
	e.SP += 4
	if e.SP > e.StackHi {
		e.SP = e.StackLo + 4
		va = e.StackLo
	}
	return va
}

// memVA resolves the effective virtual address of a memory function.
// trapBase is nonzero inside trap-service flows (the faulting address).
func (e *EBOX) memVA(f ucode.MemFunc, trapBase uint32) (va uint32, spec *vax.Specifier, err error) {
	ctx := e.ctx
	switch f {
	case ucode.MemReadOperand, ucode.MemWriteOperand:
		if trapBase != 0 {
			// Alignment microcode: the second physical reference.
			return trapBase + 4, nil, nil
		}
		idx := e.curSpec
		mi := e.ROM.Image.At(e.upc)
		if mi.Region >= ucode.RegExecSimple && mi.Region <= ucode.RegExecDecimal {
			idx = ctx.FieldSpec
		}
		if idx < 0 || ctx.In == nil || idx >= len(ctx.In.Specs) {
			return ctx.ScalarVA, nil, nil
		}
		return ctx.In.Specs[idx].Addr, &ctx.In.Specs[idx], nil
	case ucode.MemReadPointer:
		if e.curSpec >= 0 && ctx.In != nil && e.curSpec < len(ctx.In.Specs) {
			return ctx.In.Specs[e.curSpec].PtrAddr, nil, nil
		}
		return ctx.ScalarVA, nil, nil
	case ucode.MemReadStack:
		return e.pop(), nil, nil
	case ucode.MemWriteStack:
		return e.push(), nil, nil
	case ucode.MemReadString:
		va := ctx.StrSrc
		ctx.StrSrc += 4
		return va, nil, nil
	case ucode.MemWriteString:
		va := ctx.StrDst
		ctx.StrDst += 4
		return va, nil, nil
	case ucode.MemReadScalar, ucode.MemWriteScalar:
		va := ctx.ScalarVA
		ctx.ScalarVA += 4
		return va, nil, nil
	case ucode.MemReadPTE:
		// Resolved by the caller (physical).
		return 0, nil, nil
	}
	// An unhandled memory function is a control-store authoring bug.
	// It used to panic straight through the public Run API; it is now a
	// (non-transient) machine-check abort so a supervisor can report it
	// as a typed error instead of crashing the process.
	return 0, nil, e.machineCheck(faults.CodeMicrocodeBug, "ebox.memVA", 0,
		fmt.Errorf("unhandled mem func %v", f))
}

// machineCheck takes a machine-check abort: one abort cycle (the same
// control-store location every microtrap passes through), then the
// typed fault carrying the micro-PC, cycle, and site. All fault paths —
// injected and organic — report through here.
func (e *EBOX) machineCheck(code faults.Code, site string, va uint32, detail error) *faults.MachineCheck {
	e.tick(e.ROM.Abort, false, false)
	// The recorder's last word is the faulting micro-PC itself (after
	// the abort cycle above), so a flight snapshot always ends at the
	// same address the typed fault reports.
	if e.FR != nil {
		e.FR.Record(e.Now, e.upc, false)
	}
	return &faults.MachineCheck{
		Code:  code,
		UPC:   e.upc,
		Cycle: e.Now,
		Site:  site,
		VA:    va,
		Err:   detail,
	}
}

// InjectMachineCheck is the machine's entry for a plan-scheduled
// spontaneous machine check (routed through the same abort path).
func (e *EBOX) InjectMachineCheck(site string) *faults.MachineCheck {
	return e.machineCheck(faults.CodeInjectedAbort, site, 0, nil)
}

// doMem performs the memory function of the current microinstruction,
// ticking its cycles. It returns ok=false when a TB-miss microtrap was
// taken and the microinstruction must be retried. trapBase is nonzero
// when already inside a trap-service flow.
func (e *EBOX) doMem(mi *ucode.MicroInst, trapBase uint32) (bool, error) {
	// PTE reads are physical: the TB-miss flow computes the PTE address
	// from the faulting VA and bypasses translation.
	if mi.Mem == ucode.MemReadPTE {
		stall := e.Mem.PTERead(e.Mem.PTEAddr(trapBase), e.Now)
		e.tick(e.upc, false, true)
		for i := 0; i < stall; i++ {
			e.tick(e.upc, true, true)
		}
		if e.CheckFaults {
			if ppa, bad := e.Mem.TakeParity(); bad {
				return false, e.machineCheck(faults.CodeMemParity,
					"ebox.doMem pte", ppa, nil)
			}
		}
		return true, nil
	}

	va, spec, err := e.memVA(mi.Mem, trapBase)
	if err != nil {
		return false, err
	}
	pa, hit := e.Mem.Translate(va)
	if !hit {
		e.Mem.NoteTBMiss(false)
		if e.Probe != nil {
			e.Probe.TBMiss(e.Now, false, va)
		}
		if err := e.trap(e.ROM.TBMiss, va); err != nil {
			return false, err
		}
		e.Mem.InsertTB(va)
		// The stack/string/scalar cursors may have moved; undo the side
		// effects so the retry recomputes them.
		e.undoCursor(mi.Mem, va)
		return false, nil
	}

	if mi.Mem.IsRead() {
		stall := e.Mem.DRead(pa, e.Now)
		e.tick(e.upc, false, true)
		for i := 0; i < stall; i++ {
			e.tick(e.upc, true, true)
		}
		if e.CheckFaults {
			if ppa, bad := e.Mem.TakeParity(); bad {
				return false, e.machineCheck(faults.CodeMemParity,
					"ebox.doMem read", ppa, nil)
			}
		}
	} else {
		stall := e.Mem.DWrite(pa, e.Now)
		for i := 0; i < stall; i++ {
			e.tick(e.upc, true, true)
		}
		e.tick(e.upc, false, true)
	}

	// Unaligned operands need a second physical reference, performed by
	// the alignment microcode (Mem Mgmt region). The alignment flow
	// resolves its own references with a nonzero trapBase (memVA then
	// returns spec=nil), so it cannot normally re-enter this branch;
	// inAlign closes the degenerate va==0 case.
	if spec != nil && spec.Unaligned && trapBase == 0 && !e.inAlign {
		e.Mem.NoteUnaligned()
		entry := e.ROM.UnalignedRead
		if mi.Mem.IsWrite() {
			entry = e.ROM.UnalignedWrite
		}
		e.inAlign = true
		err := e.trap(entry, va)
		e.inAlign = false
		if err != nil {
			return false, err
		}
	}
	return true, nil
}

// undoCursor reverses the context side effect of an address resolution
// whose reference trapped before executing.
func (e *EBOX) undoCursor(f ucode.MemFunc, va uint32) {
	switch f {
	case ucode.MemReadStack:
		e.SP = va
	case ucode.MemWriteStack:
		e.SP = va + 4
		if e.SP > e.StackHi {
			e.SP = e.StackHi
		}
	case ucode.MemReadString:
		e.ctx.StrSrc -= 4
	case ucode.MemWriteString:
		e.ctx.StrDst -= 4
	case ucode.MemReadScalar, ucode.MemWriteScalar:
		e.ctx.ScalarVA -= 4
	}
}

// trap runs a microtrap: one abort cycle, then the service flow until its
// TrapRet. trapVA is the faulting virtual address.
func (e *EBOX) trap(entry uint16, trapVA uint32) error {
	e.tick(e.ROM.Abort, false, false)
	savedUPC := e.upc
	e.upc = entry
	for steps := 0; ; steps++ {
		if steps > 10_000 {
			return fmt.Errorf("trap flow runaway at uPC %#o", e.upc)
		}
		mi := e.ROM.Image.At(e.upc)
		if mi.Mem != ucode.MemNone {
			ok, err := e.doMem(mi, trapVA)
			if err != nil {
				return err
			}
			if !ok {
				continue
			}
		} else {
			e.tick(e.upc, false, false)
		}
		switch mi.Seq {
		case ucode.SeqNext:
			e.upc++
		case ucode.SeqJump:
			e.upc = mi.Target
		case ucode.SeqTrapRet:
			e.upc = savedUPC
			return nil
		default:
			return fmt.Errorf("illegal seq %v in trap flow at %#o", mi.Seq, e.upc)
		}
	}
}

// serviceITBMiss runs the TB-miss flow for a pending I-stream miss.
func (e *EBOX) serviceITBMiss() error {
	_, va := e.IB.ITBMiss()
	if err := e.trap(e.ROM.TBMiss, va); err != nil {
		return err
	}
	e.Mem.InsertTB(va)
	e.IB.ClearITBMiss()
	return nil
}
