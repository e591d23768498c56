// Package machine assembles the complete simulated VAX-11/780: the memory
// subsystem, the I-Fetch and EBOX pipeline stages, the microprogram, and
// the optional UPC histogram monitor — the measured system of the paper.
// It executes workload traces, injecting the VMS-style overhead events
// (interrupt delivery, context switching) those traces carry.
package machine

import (
	"fmt"
	"math/bits"
	"strings"
	"sync/atomic"

	"vax780/internal/ebox"
	"vax780/internal/ibox"
	"vax780/internal/mem"
	"vax780/internal/ucode"
	"vax780/internal/upc"
	"vax780/internal/urom"
	"vax780/internal/vax"
	"vax780/internal/workload"
)

// Telemetry is the machine's view of the live telemetry layer (the
// concrete implementation lives in internal/telemetry; the machine, like
// the ebox with its Monitor, only knows the observation points). It
// combines the per-layer probes with the machine-level events.
type Telemetry interface {
	ebox.Probe
	ibox.Probe
	mem.Probe

	// Attach binds this machine's monitor, hardware counters and EBOX
	// clock; the telemetry timeline continues across machines of a
	// composite run. The layer reads the clock at its publish points,
	// and a machine's last cycles are read at the next Attach or at
	// the end of the run.
	Attach(mon *upc.Monitor, stats *mem.Stats, clk *ebox.Clock)
	// Instr observes an instruction decode.
	Instr(now uint64, pc uint32, op vax.Opcode)
	// Interrupt observes an interrupt delivery.
	Interrupt(now uint64, handler uint32)
	// CtxSwitch observes a context switch.
	CtxSwitch(now uint64, from, to uint32)
}

// FaultPlan is the machine's view of a fault-injection plan (the
// concrete implementation lives in internal/faults). It combines the
// per-layer injector hooks with the machine-level injected abort. Like
// Telemetry, the machine only knows the injection points; a nil plan is
// a healthy machine and costs one nil check per hook site.
type FaultPlan interface {
	upc.FaultInjector
	upc.BusFaultInjector
	mem.FaultInjector
	ibox.FaultInjector

	// InjectAbort reports whether a spontaneous machine check aborts
	// the instruction about to execute.
	InjectAbort(now uint64) bool
}

// Stack layout constants: each process gets a 64 KB stack region; the
// interrupt stack lives in system space.
const (
	procStackBase  = 0x4000_0000
	procStackSlot  = 0x0100_0000
	stackBytes     = 64 << 10
	intStackHi     = 0x8011_0000
	intStackLo     = intStackHi - stackBytes
	pcbBase        = 0x8020_0000
	scbVectorBase  = 0x8000_0200 // interrupt vector reads
	sysScratchBase = 0x8030_0000
)

// Config configures a machine.
type Config struct {
	Mem     mem.Config
	Monitor *upc.Monitor // nil: run unmonitored
	Strict  bool         // verify IB decode against the trace

	// Telemetry, when non-nil, attaches the live telemetry layer: its
	// probes are threaded through the EBOX, IB, and memory subsystem,
	// and it is bound to this machine's monitor and hardware counters.
	Telemetry Telemetry

	// OverlapDecode enables the 11/750-style overlapped I-Decode (§5 of
	// the paper: saves one cycle on each non-PC-changing instruction).
	OverlapDecode bool

	// Faults, when non-nil, attaches a fault-injection plan: its hooks
	// are threaded through the monitor, memory subsystem, and I-Fetch
	// stage, and the EBOX polls for latched parity errors.
	Faults FaultPlan

	// Flight, when non-nil, attaches the micro-PC flight recorder to the
	// EBOX (one pointer test per cycle when absent).
	Flight *upc.FlightRecorder

	// Progress, when non-nil, receives this machine's live position:
	// instructions retired and cycles simulated, stored atomically
	// every progressEvery trace items and when Run returns (never per
	// cycle — the cycle loop stays clean).
	Progress *ProgressCell
}

// ProgressCell is the machine's live-progress mailbox: written by the
// running machine's goroutine, read by the progress tracker's sampler.
type ProgressCell struct {
	Instrs atomic.Uint64
	Cycles atomic.Uint64
}

// Set publishes the machine's current position. Nil-safe.
func (p *ProgressCell) Set(instrs, cycles uint64) {
	if p == nil {
		return
	}
	p.Instrs.Store(instrs)
	p.Cycles.Store(cycles)
}

// Load reads the current position. Nil-safe (zeroes).
func (p *ProgressCell) Load() (instrs, cycles uint64) {
	if p == nil {
		return 0, 0
	}
	return p.Instrs.Load(), p.Cycles.Load()
}

// RunStats are execution-level counters kept by the machine itself.
type RunStats struct {
	Instrs     uint64
	Interrupts uint64
	Resyncs    uint64
}

// Machine is the simulated system.
type Machine struct {
	Mem *mem.System
	ROM *urom.ROM
	IB  *ibox.IBox
	E   *ebox.EBOX
	Mon *upc.Monitor

	Stats RunStats

	// tel is the attached telemetry layer (nil: uninstrumented).
	tel Telemetry

	// faults is the attached fault plan (nil: healthy machine).
	faults FaultPlan

	// progress is the attached live-progress cell (nil: untracked).
	progress *ProgressCell

	started bool
	inInt   bool   // executing on the interrupt stack
	savedSP uint32 // process SP while on the interrupt stack
	curASID uint32

	// ctxBuf is the reused execution-context buffer: one InstrCtx per
	// machine instead of one per instruction (the context is dead once
	// the EBOX flow completes, so the next Step may overwrite it).
	ctxBuf ebox.InstrCtx

	procSP map[uint32]uint32 // per-process saved stack pointers
}

// sharedROM is built once: the microprogram is immutable.
var sharedROM = urom.Build()

// ROM returns the microprogram shared by all machines.
func ROM() *urom.ROM { return sharedROM }

// New builds a machine that will execute over the given program image.
func New(cfg Config, prog *workload.Program) *Machine {
	m := &Machine{
		Mem:    mem.New(cfg.Mem),
		ROM:    sharedROM,
		Mon:    cfg.Monitor,
		procSP: make(map[uint32]uint32),
	}
	m.IB = ibox.New(m.Mem, prog.Page)
	var mon ebox.Monitor
	if cfg.Monitor != nil {
		mon = cfg.Monitor
	}
	m.E = ebox.New(m.ROM, m.Mem, m.IB, mon)
	m.E.Strict = cfg.Strict
	m.E.OverlapDecode = cfg.OverlapDecode
	if cfg.Telemetry != nil {
		m.tel = cfg.Telemetry
		cfg.Telemetry.Attach(cfg.Monitor, &m.Mem.Stats, &m.E.Clock)
		m.E.Probe = m.tel
		m.IB.Probe = m.tel
		m.Mem.SetProbe(m.tel)
	}
	if cfg.Faults != nil {
		m.faults = cfg.Faults
		if cfg.Monitor != nil {
			cfg.Monitor.SetFault(cfg.Faults)
		}
		m.Mem.SetFault(cfg.Faults)
		m.IB.Fault = cfg.Faults
		m.E.CheckFaults = true
	}
	m.E.FR = cfg.Flight
	m.progress = cfg.Progress
	m.setProcess(1)
	return m
}

// setProcess switches the EBOX stack context to the given process.
func (m *Machine) setProcess(asid uint32) {
	if !m.inInt && m.started {
		m.procSP[m.curASID] = m.E.SP
	}
	m.curASID = asid
	m.Mem.SetASID(asid)
	lo := uint32(procStackBase + asid*procStackSlot)
	hi := lo + stackBytes
	sp, ok := m.procSP[asid]
	if !ok {
		sp = hi - 4096 // leave headroom for pops above the initial SP
	}
	m.E.SP, m.E.StackLo, m.E.StackHi = sp, lo, hi
}

// progressEvery is how many trace items Run executes between two
// publishes to the progress cell: each publish is two atomic stores,
// and a reader samples the cell every few milliseconds.
const progressEvery = 64

// Run executes the whole stream, publishing its position to the
// progress cell every progressEvery items and when it returns.
func (m *Machine) Run(s workload.Stream) error {
	defer func() { m.progress.Set(m.Stats.Instrs, m.E.Now) }()
	for n := 1; ; n++ {
		it, ok := s.Next()
		if !ok {
			return nil
		}
		if err := m.Step(it); err != nil {
			return err
		}
		if n%progressEvery == 0 {
			m.progress.Set(m.Stats.Instrs, m.E.Now)
		}
	}
}

// Step executes one trace item.
func (m *Machine) Step(it *workload.Item) error {
	switch it.Kind {
	case workload.KindInterrupt:
		return m.deliverInterrupt(it)
	case workload.KindInstr:
		return m.runInstr(it)
	}
	return fmt.Errorf("machine: unknown item kind %d", it.Kind)
}

// deliverInterrupt runs the interrupt microcode: switch to the interrupt
// stack, push PC/PSL, redirect to the handler.
func (m *Machine) deliverInterrupt(it *workload.Item) error {
	m.Stats.Interrupts++
	if m.tel != nil {
		m.tel.Interrupt(m.E.Now, it.HandlerPC)
	}
	if !m.inInt {
		m.savedSP = m.E.SP
		m.E.SP, m.E.StackLo, m.E.StackHi = intStackHi-8, intStackLo, intStackHi
		m.inInt = true
	}
	ctx := &m.ctxBuf
	*ctx = ebox.InstrCtx{
		In:        nil,
		DstSpec:   -1,
		FieldSpec: -1,
		ScalarVA:  scbVectorBase,
		Target:    it.HandlerPC,
	}
	return m.E.RunOverhead(m.ROM.Interrupt, ctx)
}

// runInstr executes one traced instruction.
func (m *Machine) runInstr(it *workload.Item) error {
	in := it.In
	if !m.started {
		m.IB.Redirect(in.PC)
		m.started = true
	} else if m.IB.BufVA() != in.PC {
		// The trace and the IB disagree — resynchronize. On a consistent
		// workload this never fires; the counter makes violations visible.
		m.IB.ForceResync(in.PC)
		m.Stats.Resyncs++
	}

	if m.tel != nil {
		m.tel.Instr(m.E.Now, in.PC, in.Op)
	}
	if m.faults != nil && m.faults.InjectAbort(m.E.Now) {
		return m.E.InjectMachineCheck("machine.runInstr")
	}
	ctx := m.buildCtx(in)
	if err := m.E.RunInstr(ctx); err != nil {
		return err
	}
	m.Stats.Instrs++

	// Architectural side effects the microcode flows signal to the
	// simulated operating environment.
	switch in.Op {
	case vax.LDPCTX:
		// LDPCTX's microcode flushed the process half of the TB; the
		// machine-level effect is the context change itself.
		m.Mem.FlushProcessTB()
		if m.tel != nil {
			m.tel.CtxSwitch(m.E.Now, m.curASID, it.SwitchTo)
		}
		if m.inInt {
			// The scheduler runs on the interrupt stack. The outgoing
			// process's SP was parked at interrupt entry; bank it, and
			// stage the incoming process's SP for the REI that ends the
			// handler. The EBOX keeps using the interrupt stack until
			// then.
			m.procSP[m.curASID] = m.savedSP
			m.curASID = it.SwitchTo
			m.Mem.SetASID(it.SwitchTo)
			lo := uint32(procStackBase + it.SwitchTo*procStackSlot)
			sp, ok := m.procSP[it.SwitchTo]
			if !ok {
				sp = lo + stackBytes - 4096
			}
			m.savedSP = sp
		} else {
			m.setProcess(it.SwitchTo)
		}
	case vax.REI:
		if m.inInt {
			m.inInt = false
			m.E.SP = m.savedSP
			lo := uint32(procStackBase + m.curASID*procStackSlot)
			m.E.StackLo, m.E.StackHi = lo, lo+stackBytes
		}
	}
	return nil
}

// opCtx is the per-opcode half of buildCtx, read from the opcode's
// specifier templates once instead of on every instruction.
type opCtx struct {
	dst   uint8 // bit i set: slot i is a write or modify operand (≤ 6 slots)
	field int8  // the (last) bit-field base slot, or -1
	addr0 int8  // the first address operand slot, or -1
	addrN int8  // the last address operand slot, or -1
	flow  vax.ExecFlow
}

var opCtxTable = func() (t [256]opCtx) {
	for op := range t {
		oc := &t[op]
		oc.field, oc.addr0, oc.addrN = -1, -1, -1
		info := vax.Opcode(op).Info()
		if info == nil {
			continue
		}
		oc.flow = info.Flow
		for i, tmpl := range info.Specs {
			switch tmpl.Access {
			case vax.AccWrite, vax.AccModify:
				oc.dst |= 1 << i
			case vax.AccVField:
				oc.field = int8(i)
			case vax.AccAddress:
				if oc.addr0 < 0 {
					oc.addr0 = int8(i)
				}
				oc.addrN = int8(i)
			}
		}
	}
	return t
}()

// buildCtx derives the execution context of one instruction: destination
// specifier, field-base specifier, string cursors, and the scalar data
// cursor, per the conventions the microcode flows rely on.
func (m *Machine) buildCtx(in *vax.Instr) *ebox.InstrCtx {
	oc := &opCtxTable[in.Op]
	ctx := &m.ctxBuf
	*ctx = ebox.InstrCtx{
		In:        in,
		DstSpec:   -1,
		FieldSpec: int(oc.field),
		ScalarVA:  sysScratchBase + uint32(m.Stats.Instrs%64)*4,
		Target:    in.Target,
	}

	// The last write/modify operand in memory is the destination.
	for mask := oc.dst; mask != 0; {
		i := bits.Len8(mask) - 1
		if in.Specs[i].Mode.IsMemory() {
			ctx.DstSpec = i
			break
		}
		mask &^= 1 << i
	}

	// String cursors: the first address operand is the source string, the
	// last the destination (MOVC3: len, src, dst; decimal ops likewise).
	if oc.addr0 >= 0 {
		ctx.StrSrc = in.Specs[oc.addr0].Addr
		ctx.StrDst = in.Specs[oc.addrN].Addr
		// The scalar cursor also points at structured data the flow
		// touches (entry masks, queue headers).
		ctx.ScalarVA = ctx.StrDst
	}

	switch oc.flow {
	case vax.FlowCase:
		// The case dispatch table follows the instruction.
		ctx.ScalarVA = in.PC + uint32(in.Size())
	case vax.FlowSvpctx, vax.FlowLdpctx:
		ctx.ScalarVA = pcbBase + m.curASID*0x200
	}
	return ctx
}

// CPI returns total cycles per executed instruction so far.
func (m *Machine) CPI() float64 {
	if m.Stats.Instrs == 0 {
		return 0
	}
	return float64(m.E.Now) / float64(m.Stats.Instrs)
}

// Describe renders the Figure 1 block diagram of the simulated system:
// the CPU pipeline and memory subsystem components and their connections.
// The cache and TB sizes are the ones built, not the ones requested.
func (m *Machine) Describe() string {
	cfg := m.Mem.Config()
	ext := m.ROM.Image.RegionExtents()
	used := 0
	for _, n := range ext {
		used += n
	}
	const width = 68
	box := func(line string) string {
		if len(line) > width {
			line = line[:width]
		}
		return "  |" + line + strings.Repeat(" ", width-len(line)) + "|\n"
	}
	hdr := func(title string) string {
		pad := width - len(title) - 2
		left := pad / 2
		return "  +" + strings.Repeat("-", left) + " " + title + " " +
			strings.Repeat("-", pad-left) + "+\n"
	}
	var b strings.Builder
	b.WriteString("VAX-11/780 (simulated) — Figure 1 block diagram\n\n")
	b.WriteString(hdr("CPU pipeline"))
	b.WriteString(box(""))
	b.WriteString(box("  I-Fetch ---> IB (8 bytes) ---> I-Decode --dispatch--> EBOX"))
	b.WriteString(box("     |                              ^                    |"))
	b.WriteString(box("     |                              +------ control -----+"))
	b.WriteString(box(fmt.Sprintf("     |        control store: %d/%d microwords", used, ucode.ControlStoreSize)))
	b.WriteString(box("     |        (the UPC histogram monitor taps the micro-PC)"))
	b.WriteString("  +-----|----------------------------------------------------|---------+\n")
	b.WriteString("        | I-stream reads                        D-stream reads | writes\n")
	b.WriteString("        v                                                      v\n")
	b.WriteString(hdr("memory subsystem"))
	b.WriteString(box(""))
	cacheBytes, tbEntries := m.Mem.Geometry()
	cacheSize := fmt.Sprintf("%d KB", cacheBytes>>10)
	if cacheBytes%1024 != 0 {
		cacheSize = fmt.Sprintf("%d bytes", cacheBytes)
	}
	b.WriteString(box(fmt.Sprintf("  Translation Buffer: %d entries, %d-way, split system/process",
		tbEntries, cfg.TBWays)))
	b.WriteString(box("        | physical address"))
	b.WriteString(box("        v"))
	b.WriteString(box(fmt.Sprintf("  Cache: %s, %d-way, %d-byte blocks, write-through",
		cacheSize, cfg.CacheWays, cfg.CacheBlock)))
	b.WriteString(box("        | read miss            \\--> Write Buffer (1 longword)"))
	b.WriteString(box("        v                                  |"))
	b.WriteString(box(fmt.Sprintf("  SBI (Synchronous Backplane Interconnect), %d-cycle memory read",
		cfg.MissLatency)))
	b.WriteString(box("        |"))
	b.WriteString(box("        v"))
	b.WriteString(box(fmt.Sprintf("  Memory: %d MB", cfg.MemoryBytes>>20)))
	b.WriteString("  +" + strings.Repeat("-", width) + "+\n")
	b.WriteString("  EBOX microinstruction time: 200 ns (1 cycle)\n")
	return b.String()
}
