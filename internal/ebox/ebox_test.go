package ebox

import (
	"errors"
	"testing"

	"vax780/internal/ibox"
	"vax780/internal/mem"
	"vax780/internal/ucode"
	"vax780/internal/upc"
	"vax780/internal/urom"
	"vax780/internal/vax"
)

// testMonitor records every tick for microstate-level assertions.
type testMonitor struct {
	normal  map[uint16]uint64
	stalled map[uint16]uint64
	total   uint64
}

func newTestMonitor() *testMonitor {
	return &testMonitor{normal: map[uint16]uint64{}, stalled: map[uint16]uint64{}}
}

func (m *testMonitor) Tick(addr uint16, stalled bool) {
	if stalled {
		m.stalled[addr]++
	} else {
		m.normal[addr]++
	}
	m.total++
}

// rig wires an EBOX over a real ROM, memory system and IBox whose code
// image is a simple byte map.
type rig struct {
	rom  *urom.ROM
	mem  *mem.System
	ib   *ibox.IBox
	e    *EBOX
	mon  *testMonitor
	code map[uint32]*[ibox.PageBytes]byte // the code image, by page number
}

var sharedROM = urom.Build()

func newRig() *rig {
	r := &rig{rom: sharedROM, code: map[uint32]*[ibox.PageBytes]byte{}}
	r.mem = mem.New(mem.Config{})
	r.ib = ibox.New(r.mem, func(va uint32) *[ibox.PageBytes]byte {
		return r.code[va/ibox.PageBytes]
	})
	r.mon = newTestMonitor()
	r.e = New(r.rom, r.mem, r.ib, r.mon)
	r.e.Strict = true
	r.e.SP = 0x4100_0000
	r.e.StackLo = 0x4100_0000 - (64 << 10)
	r.e.StackHi = 0x4100_0000
	return r
}

// load places an instruction's encoding at its PC and redirects the IB.
func (r *rig) load(in *vax.Instr, pc uint32) {
	in.PC = pc
	for i, b := range vax.Encode(nil, in) {
		va := pc + uint32(i)
		pg := r.code[va/ibox.PageBytes]
		if pg == nil {
			pg = new([ibox.PageBytes]byte)
			r.code[va/ibox.PageBytes] = pg
		}
		pg[va%ibox.PageBytes] = b
	}
}

func (r *rig) run(t *testing.T, in *vax.Instr, ctx *InstrCtx) {
	t.Helper()
	if ctx == nil {
		ctx = &InstrCtx{DstSpec: -1, FieldSpec: -1}
	}
	ctx.In = in
	if ctx.Target == 0 {
		ctx.Target = in.Target
	}
	r.ib.Redirect(in.PC)
	if err := r.e.RunInstr(ctx); err != nil {
		t.Fatal(err)
	}
}

func regSpec(n int) vax.Specifier {
	return vax.Specifier{Mode: vax.ModeRegister, Reg: int8(n), Index: -1}
}

func TestIRDCountsOncePerInstruction(t *testing.T) {
	r := newRig()
	in := &vax.Instr{Op: vax.NOP}
	r.load(in, 0x1000)
	r.run(t, in, nil)
	if got := r.mon.normal[r.rom.IRD]; got != 1 {
		t.Errorf("IRD count = %d, want 1", got)
	}
	if r.e.Instrs != 1 {
		t.Errorf("Instrs = %d", r.e.Instrs)
	}
}

func TestOptimizedEntrySkipsStagingCycle(t *testing.T) {
	r := newRig()
	// ADDL2 #1, R2 → register destination → optimized entry: the staging
	// cycle at ExecEntry must NOT be executed.
	in := &vax.Instr{Op: vax.ADDL2, Specs: []vax.Specifier{
		{Mode: vax.ModeLiteral, Disp: 1, Index: -1}, regSpec(2)}}
	r.load(in, 0x1000)
	r.run(t, in, nil)
	if got := r.mon.normal[r.rom.ExecEntry[vax.ADDL2]]; got != 0 {
		t.Errorf("staging cycle executed %d times; optimization should skip it", got)
	}
	if got := r.mon.normal[r.rom.ExecEntryOpt[vax.ADDL2]]; got != 1 {
		t.Errorf("optimized entry count = %d, want 1", got)
	}
}

func TestUnoptimizedEntryWithMemoryOperand(t *testing.T) {
	r := newRig()
	r.mem.InsertTB(0x5000)
	in := &vax.Instr{Op: vax.ADDL2, Specs: []vax.Specifier{
		{Mode: vax.ModeLiteral, Disp: 1, Index: -1},
		{Mode: vax.ModeByteDisp, Reg: 2, Disp: 8, Addr: 0x5008, Index: -1}}}
	r.load(in, 0x1000)
	ctx := &InstrCtx{DstSpec: 1, FieldSpec: -1}
	r.run(t, in, ctx)
	if got := r.mon.normal[r.rom.ExecEntry[vax.ADDL2]]; got != 1 {
		t.Errorf("standard entry count = %d, want 1", got)
	}
	// The destination store runs the SPEC2-6 RSTORE flow.
	if got := r.mon.normal[r.rom.RStore[1]]; got != 1 {
		t.Errorf("RSTORE count = %d, want 1", got)
	}
	if r.mem.Stats.DWrites != 1 {
		t.Errorf("DWrites = %d, want 1 (the result store)", r.mem.Stats.DWrites)
	}
}

func TestRStoreSpec1ForFirstSpecifierDestination(t *testing.T) {
	r := newRig()
	r.mem.InsertTB(0x5000)
	// CLRL 8(R2): the sole (first) specifier is the memory destination.
	in := &vax.Instr{Op: vax.CLRL, Specs: []vax.Specifier{
		{Mode: vax.ModeByteDisp, Reg: 2, Disp: 8, Addr: 0x5008, Index: -1}}}
	r.load(in, 0x1000)
	r.run(t, in, &InstrCtx{DstSpec: 0, FieldSpec: -1})
	if got := r.mon.normal[r.rom.RStore[0]]; got != 1 {
		t.Errorf("spec1 RSTORE count = %d, want 1", got)
	}
	if got := r.mon.normal[r.rom.RStore[1]]; got != 0 {
		t.Errorf("specN RSTORE count = %d, want 0", got)
	}
}

func TestLoopCounterDrivesIterations(t *testing.T) {
	r := newRig()
	// PUSHR with 5 registers: the push loop body runs 5 times.
	in := &vax.Instr{Op: vax.PUSHR, RegCount: 5, Specs: []vax.Specifier{
		{Mode: vax.ModeLiteral, Disp: 0x3E, Index: -1}}}
	r.load(in, 0x1000)
	r.run(t, in, nil)
	if r.mem.Stats.DWrites != 5 {
		t.Errorf("PUSHR pushed %d longwords, want 5", r.mem.Stats.DWrites)
	}
}

func TestStringLoopLongwords(t *testing.T) {
	r := newRig()
	for _, va := range []uint32{0x6000, 0x7000} {
		r.mem.InsertTB(va)
	}
	in := &vax.Instr{Op: vax.MOVC3, StrLen: 17, Specs: []vax.Specifier{
		{Mode: vax.ModeLiteral, Disp: 17, Index: -1},
		{Mode: vax.ModeRegDeferred, Reg: 1, Addr: 0x6000, Index: -1},
		{Mode: vax.ModeRegDeferred, Reg: 2, Addr: 0x7000, Index: -1}}}
	r.load(in, 0x1000)
	ctx := &InstrCtx{DstSpec: -1, FieldSpec: -1, StrSrc: 0x6000, StrDst: 0x7000}
	r.run(t, in, ctx)
	// ceil(17/4) = 5 longword reads and writes.
	if r.mem.Stats.DReads != 5 || r.mem.Stats.DWrites != 5 {
		t.Errorf("string traffic r=%d w=%d, want 5/5", r.mem.Stats.DReads, r.mem.Stats.DWrites)
	}
	// Cursors advanced by 5 longwords.
	if ctx.StrSrc != 0x6000+20 || ctx.StrDst != 0x7000+20 {
		t.Errorf("cursors: src=%#x dst=%#x", ctx.StrSrc, ctx.StrDst)
	}
}

func TestReadStallAttributedToReadingMicroinstruction(t *testing.T) {
	r := newRig()
	r.mem.InsertTB(0x5000)
	// Cold cache: the displacement-mode operand read misses and stalls.
	in := &vax.Instr{Op: vax.TSTL, Specs: []vax.Specifier{
		{Mode: vax.ModeByteDisp, Reg: 2, Disp: 8, Addr: 0x5008, Index: -1}}}
	r.load(in, 0x1000)
	r.run(t, in, nil)
	// Find the spec1 displacement read location.
	readLoc := r.rom.SpecEntry[0][vax.ModeByteDisp][urom.VarRead] + 1 // addr calc, then read
	if got := r.mon.normal[readLoc]; got != 1 {
		t.Errorf("read cycle count = %d, want 1", got)
	}
	if got := r.mon.stalled[readLoc]; got == 0 {
		t.Error("no stall cycles at the reading microinstruction (cold cache must miss)")
	}
}

func TestWriteStallAttribution(t *testing.T) {
	r := newRig()
	// Two PUSHLs back to back: the second write hits the busy buffer.
	in1 := &vax.Instr{Op: vax.PUSHL, Specs: []vax.Specifier{regSpec(1)}}
	in2 := &vax.Instr{Op: vax.PUSHL, Specs: []vax.Specifier{regSpec(1)}}
	r.load(in1, 0x1000)
	r.load(in2, 0x1000+uint32(in1.Size()))
	r.ib.Redirect(0x1000)
	ctx := &InstrCtx{DstSpec: -1, FieldSpec: -1}
	ctx.In = in1
	if err := r.e.RunInstr(ctx); err != nil {
		t.Fatal(err)
	}
	ctx2 := &InstrCtx{DstSpec: -1, FieldSpec: -1}
	ctx2.In = in2
	if err := r.e.RunInstr(ctx2); err != nil {
		t.Fatal(err)
	}
	if r.mem.Stats.WriteStall == 0 {
		t.Error("second push should write-stall behind the one-longword buffer")
	}
	// The stall lands at the push's write microinstruction.
	pushLoc := r.rom.ExecEntry[vax.PUSHL]
	if r.mon.stalled[pushLoc] == 0 {
		t.Error("write stall not attributed to the push microinstruction")
	}
}

func TestTBMissTrapRunsServiceAndRetries(t *testing.T) {
	r := newRig()
	// No TB entry for the operand page: the read traps, the service flow
	// installs the translation, the read retries and completes.
	in := &vax.Instr{Op: vax.TSTL, Specs: []vax.Specifier{
		{Mode: vax.ModeRegDeferred, Reg: 1, Addr: 0x0070_0000, Index: -1}}}
	r.load(in, 0x1000)
	r.mem.InsertTB(0x1000) // keep the I-stream from missing too
	r.run(t, in, nil)
	if r.mem.Stats.DTBMisses != 1 {
		t.Errorf("DTBMisses = %d, want 1", r.mem.Stats.DTBMisses)
	}
	if got := r.mon.normal[r.rom.TBMiss]; got != 1 {
		t.Errorf("TB miss service entries = %d, want 1", got)
	}
	if r.mon.normal[r.rom.Abort] == 0 {
		t.Error("no abort cycle for the microtrap")
	}
	// After service the translation must be installed.
	if _, ok := r.mem.Translate(0x0070_0000); !ok {
		t.Error("service flow did not install the translation")
	}
	// The read eventually succeeded exactly once.
	if r.mem.Stats.DReads != 1 {
		t.Errorf("DReads = %d, want 1", r.mem.Stats.DReads)
	}
}

func TestIndexedFirstSpecifierRunsSharedBaseFlow(t *testing.T) {
	r := newRig()
	r.mem.InsertTB(0x5000)
	in := &vax.Instr{Op: vax.TSTL, Specs: []vax.Specifier{
		{Mode: vax.ModeByteDisp, Reg: 2, Disp: 8, Addr: 0x5008, Index: 3}}}
	r.load(in, 0x1000)
	r.run(t, in, nil)
	if got := r.mon.normal[r.rom.IdxEntry[0]]; got != 1 {
		t.Errorf("spec1 index preamble count = %d, want 1", got)
	}
	// The base flow executed is the SPEC2-6 copy (sharing artifact).
	base := r.rom.SpecEntry[1][vax.ModeByteDisp][urom.VarRead]
	if got := r.mon.normal[base]; got != 1 {
		t.Errorf("shared SPEC2-6 base flow count = %d, want 1", got)
	}
	// The SPEC1 copy must NOT run.
	s1 := r.rom.SpecEntry[0][vax.ModeByteDisp][urom.VarRead]
	if got := r.mon.normal[s1]; got != 0 {
		t.Errorf("SPEC1 flow ran %d times for an indexed specifier", got)
	}
}

func TestBDispRunsOnlyWhenTaken(t *testing.T) {
	r := newRig()
	taken := &vax.Instr{Op: vax.BEQL, Taken: true, BranchDisp: 2}
	taken.Target = 0x1000 + 2 + 2
	r.load(taken, 0x1000)
	// Materialize the target so the redirect lands on bytes.
	nop := &vax.Instr{Op: vax.NOP}
	r.load(nop, taken.Target)
	r.run(t, taken, nil)
	if got := r.mon.normal[r.rom.BDisp]; got != 1 {
		t.Errorf("B-DISP count = %d, want 1", got)
	}

	r2 := newRig()
	untaken := &vax.Instr{Op: vax.BEQL, Taken: false, BranchDisp: 2}
	r2.load(untaken, 0x1000)
	r2.run(t, untaken, nil)
	if got := r2.mon.normal[r2.rom.BDisp]; got != 0 {
		t.Errorf("untaken branch ran B-DISP %d times", got)
	}
}

func TestSIRRDispatch(t *testing.T) {
	r := newRig()
	in := &vax.Instr{Op: vax.MTPR, SIRR: true, Specs: []vax.Specifier{
		{Mode: vax.ModeLiteral, Disp: 4, Index: -1},
		{Mode: vax.ModeLiteral, Disp: 0x14, Index: -1}}}
	r.load(in, 0x1000)
	r.run(t, in, nil)
	if got := r.mon.normal[r.rom.ExecEntrySIRR]; got != 1 {
		t.Errorf("SIRR exit count = %d, want 1", got)
	}
	if got := r.mon.normal[r.rom.ExecEntry[vax.MTPR]]; got != 0 {
		t.Errorf("ordinary MTPR flow ran %d times for a SIRR write", got)
	}
}

func TestStrictDecodeMismatchFails(t *testing.T) {
	r := newRig()
	// Materialize a MOVL encoding but claim the trace executes TSTL.
	real := &vax.Instr{Op: vax.MOVL, Specs: []vax.Specifier{regSpec(1), regSpec(2)}}
	r.load(real, 0x1000)
	fake := &vax.Instr{Op: vax.TSTL, PC: 0x1000, Specs: []vax.Specifier{regSpec(1)}}
	ctx := &InstrCtx{In: fake, DstSpec: -1, FieldSpec: -1}
	r.ib.Redirect(0x1000)
	if err := r.e.RunInstr(ctx); err == nil {
		t.Error("strict mode should reject a decode mismatch")
	}
}

// TestStrictSpecifierMismatchFails: the EBOX dispatches from the record,
// and Strict decodes the IB bytes as the oracle. A record whose
// specifier or displacement the image does not hold is an
// ErrDecodeMismatch under Strict; without Strict the record alone
// drives the dispatch.
func TestStrictSpecifierMismatchFails(t *testing.T) {
	disp := vax.Specifier{Mode: vax.ModeByteDisp, Reg: 3, Disp: 4, Addr: 0x5004, Index: -1}
	indexed, otherIndex := disp, disp
	indexed.Index, otherIndex.Index = 5, 6
	cases := []struct {
		name          string
		image, record *vax.Instr
	}{
		{"mode",
			&vax.Instr{Op: vax.MOVL, Specs: []vax.Specifier{regSpec(1), regSpec(2)}},
			&vax.Instr{Op: vax.MOVL, Specs: []vax.Specifier{
				{Mode: vax.ModeRegDeferred, Reg: 1, Addr: 0x5000, Index: -1}, regSpec(2)}}},
		{"index",
			&vax.Instr{Op: vax.MOVL, Specs: []vax.Specifier{indexed, regSpec(2)}},
			&vax.Instr{Op: vax.MOVL, Specs: []vax.Specifier{disp, regSpec(2)}}},
		{"index register",
			&vax.Instr{Op: vax.MOVL, Specs: []vax.Specifier{indexed, regSpec(2)}},
			&vax.Instr{Op: vax.MOVL, Specs: []vax.Specifier{otherIndex, regSpec(2)}}},
		{"branch displacement",
			&vax.Instr{Op: vax.BRB, Taken: true, BranchDisp: 2, Target: 0x1004},
			&vax.Instr{Op: vax.BRB, Taken: true, BranchDisp: 6, Target: 0x1004}},
	}
	for _, c := range cases {
		for _, strict := range []bool{true, false} {
			r := newRig()
			r.e.Strict = strict
			r.mem.InsertTB(0x5000)
			r.load(c.image, 0x1000)
			c.record.PC = 0x1000
			r.ib.Redirect(0x1000)
			err := r.e.RunInstr(&InstrCtx{In: c.record, DstSpec: -1, FieldSpec: -1, Target: c.record.Target})
			if strict && !errors.Is(err, ErrDecodeMismatch) {
				t.Errorf("%s: Strict run returned %v, want a decode mismatch", c.name, err)
			}
			if !strict && err != nil {
				t.Errorf("%s: run without Strict: %v", c.name, err)
			}
		}
	}
}

func TestStackWrapStaysInRegion(t *testing.T) {
	r := newRig()
	r.e.SP = r.e.StackLo + 4
	in := &vax.Instr{Op: vax.PUSHR, RegCount: 8, Specs: []vax.Specifier{
		{Mode: vax.ModeLiteral, Disp: 0x3F, Index: -1}}}
	r.load(in, 0x1000)
	r.run(t, in, nil)
	if r.e.SP < r.e.StackLo || r.e.SP > r.e.StackHi {
		t.Errorf("SP %#x escaped region [%#x,%#x]", r.e.SP, r.e.StackLo, r.e.StackHi)
	}
}

func TestCycleAccountingExact(t *testing.T) {
	r := newRig()
	r.mem.InsertTB(0x5000)
	ins := []*vax.Instr{
		{Op: vax.MOVL, Specs: []vax.Specifier{regSpec(1), regSpec(2)}},
		{Op: vax.ADDL2, Specs: []vax.Specifier{
			{Mode: vax.ModeByteDisp, Reg: 3, Disp: 4, Addr: 0x5004, Index: -1},
			regSpec(4)}},
		{Op: vax.NOP},
	}
	pc := uint32(0x1000)
	for _, in := range ins {
		r.load(in, pc)
		pc += uint32(in.Size())
	}
	r.ib.Redirect(0x1000)
	for _, in := range ins {
		ctx := &InstrCtx{In: in, DstSpec: -1, FieldSpec: -1}
		if err := r.e.RunInstr(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if r.mon.total != r.e.Now {
		t.Errorf("monitor saw %d cycles, EBOX advanced %d", r.mon.total, r.e.Now)
	}
}

func TestRunawayMicrocodeDetected(t *testing.T) {
	// A hand-built image with an infinite loop must be caught, not hang.
	asm := ucode.NewAssembler()
	asm.Region(ucode.RegDecode)
	asm.Label("ird").DecodeInstr("d")
	asm.Label("stall.instr").IBStallLoc(ucode.IBDecodeInstr, "s")
	asm.Label("spin").Jump("spin", "forever")
	// Reuse the real ROM but overwrite a copy's NOP entry to spin.
	// Simpler: drive run() directly at the spin location via RunOverhead.
	img := asm.MustAssemble()
	rom := &urom.ROM{Image: img}
	rom.IRD = img.Addr("ird")
	m := mem.New(mem.Config{})
	ib := ibox.New(m, func(uint32) *[ibox.PageBytes]byte { return nil })
	e := New(rom, m, ib, nil)
	err := e.RunOverhead(img.Addr("spin"), &InstrCtx{DstSpec: -1, FieldSpec: -1})
	if err == nil {
		t.Error("runaway microcode not detected")
	}
}

// countingProbe counts the cycles a Probe observes. Its horizon is
// every stride-th cycle (1: every cycle).
type countingProbe struct {
	stride uint64
	cycles uint64
	off    uint64 // calls at a cycle that was not due
}

func (p *countingProbe) Cycle(now uint64, _ uint16, _ bool) uint64 {
	p.cycles++
	if now%p.stride != 0 {
		p.off++
	}
	return (now/p.stride + 1) * p.stride
}
func (p *countingProbe) TBMiss(uint64, bool, uint32) {}

// runHookSequence runs a short mixed sequence — register, memory, stack
// loop with a TB-miss trap, untaken branch — on a rig whose monitor is
// mon, after attach has set any other hooks, and returns its EBOX.
func runHookSequence(t *testing.T, mon Monitor, attach func(*EBOX)) *EBOX {
	t.Helper()
	r := newRig()
	e := New(r.rom, r.mem, r.ib, mon)
	e.Strict, e.SP, e.StackLo, e.StackHi = true, r.e.SP, r.e.StackLo, r.e.StackHi
	attach(e)
	r.mem.InsertTB(0x5000)
	ins := []*vax.Instr{
		{Op: vax.NOP},
		{Op: vax.MOVL, Specs: []vax.Specifier{regSpec(1), regSpec(2)}},
		{Op: vax.ADDL2, Specs: []vax.Specifier{
			{Mode: vax.ModeByteDisp, Reg: 3, Disp: 4, Addr: 0x5004, Index: -1},
			regSpec(4)}},
		{Op: vax.PUSHR, RegCount: 6, Specs: []vax.Specifier{
			{Mode: vax.ModeLiteral, Disp: 0x3F, Index: -1}}},
		{Op: vax.BEQL, BranchDisp: 2},
		{Op: vax.MOVL, Specs: []vax.Specifier{regSpec(5), regSpec(6)}},
	}
	pc := uint32(0x1000)
	for _, in := range ins {
		r.load(in, pc)
		pc += uint32(in.Size())
	}
	r.ib.Redirect(0x1000)
	for _, in := range ins {
		if err := e.RunInstr(&InstrCtx{In: in, DstSpec: -1, FieldSpec: -1}); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

// TestInlineCycleMatchesTick: the sequencer loop does the plain cycle
// inline on a healthy board (or none) until the probe's horizon. On
// that path the same sequence must take the same cycles at the same
// micro-PCs as through tick; the flight recorder sees every cycle, and
// a probe exactly the cycles its horizons name.
func TestInlineCycleMatchesTick(t *testing.T) {
	ref := newTestMonitor() // not the board: every cycle goes through tick
	want := runHookSequence(t, ref, func(*EBOX) {}).Now
	if ref.total != want {
		t.Fatalf("reference monitor saw %d cycles, EBOX advanced %d", ref.total, want)
	}
	none := func(*EBOX) {}
	fr := upc.NewFlightRecorder(16)
	probe := &countingProbe{stride: 1}
	sparse := &countingProbe{stride: 7}
	cases := []struct {
		name    string
		attach  func(*EBOX)
		stopped bool
		seen    func() uint64 // cycles the attached hook observed
	}{
		{"board", none, false, nil},
		{"stopped board", none, true, nil},
		{"flight recorder", func(e *EBOX) { e.FR = fr }, false, fr.Recorded},
		{"probe", func(e *EBOX) { e.Probe = probe }, false, func() uint64 { return probe.cycles }},
		{"sparse probe", func(e *EBOX) { e.Probe = sparse }, false, nil},
	}
	for _, c := range cases {
		board := upc.New()
		if !c.stopped {
			board.Start()
		}
		if got := runHookSequence(t, board, c.attach).Now; got != want {
			t.Errorf("%s: %d cycles, want %d", c.name, got, want)
		}
		if c.seen != nil && c.seen() != want {
			t.Errorf("%s: hook saw %d cycles, want %d", c.name, c.seen(), want)
		}
		h := board.Snapshot()
		if c.stopped {
			if h.TotalCycles() != 0 {
				t.Errorf("%s: counted %d cycles", c.name, h.TotalCycles())
			}
			continue
		}
		if h.TotalCycles() != want {
			t.Errorf("%s: board counted %d cycles, want %d", c.name, h.TotalCycles(), want)
		}
		for addr, n := range ref.normal {
			if got, _ := h.At(addr); got != n {
				t.Errorf("%s: uPC %#o counted %d, want %d", c.name, addr, got, n)
			}
		}
		for addr, n := range ref.stalled {
			if _, got := h.At(addr); got != n {
				t.Errorf("%s: stalled uPC %#o counted %d, want %d", c.name, addr, got, n)
			}
		}
	}
	if got := runHookSequence(t, nil, none).Now; got != want {
		t.Errorf("no monitor: %d cycles, want %d", got, want)
	}
	if n := (want + sparse.stride - 1) / sparse.stride; sparse.cycles != n {
		t.Errorf("sparse probe: called %d times, want %d", sparse.cycles, n)
	}
	if probe.off != 0 || sparse.off != 0 {
		t.Errorf("probe called off its horizon: %d and %d times", probe.off, sparse.off)
	}
}
