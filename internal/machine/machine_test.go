package machine

import (
	"math/rand"
	"strings"
	"testing"

	"vax780/internal/ebox"
	"vax780/internal/mem"
	"vax780/internal/upc"
	"vax780/internal/vax"
	"vax780/internal/workload"
)

// layout places instructions consecutively starting at base, assigning
// PCs, and returns the trace items plus the program image.
func layout(t *testing.T, base uint32, ins []*vax.Instr) *workload.Trace {
	t.Helper()
	prog := workload.NewProgram()
	pc := base
	items := make([]workload.Item, 0, len(ins))
	for _, in := range ins {
		in.PC = pc
		if err := prog.PutInstr(in); err != nil {
			t.Fatal(err)
		}
		pc += uint32(in.Size())
		items = append(items, workload.Item{Kind: workload.KindInstr, In: in})
	}
	return &workload.Trace{Program: prog, Items: items}
}

func regSpec(r int) vax.Specifier {
	return vax.Specifier{Mode: vax.ModeRegister, Reg: int8(r), Index: -1}
}

func litSpec(v int32) vax.Specifier {
	return vax.Specifier{Mode: vax.ModeLiteral, Disp: v, Index: -1}
}

func memSpec(mode vax.AddrMode, reg int, disp int32, addr uint32) vax.Specifier {
	return vax.Specifier{Mode: mode, Reg: int8(reg), Disp: disp, Addr: addr, Index: -1}
}

func newTestMachine(t *testing.T, tr *workload.Trace) (*Machine, *upc.Monitor) {
	t.Helper()
	mon := upc.New()
	mon.Start()
	m := New(Config{Mem: mem.Config{}, Monitor: mon, Strict: true}, tr.Program)
	return m, mon
}

func TestStraightLineMoves(t *testing.T) {
	ins := []*vax.Instr{
		{Op: vax.MOVL, Specs: []vax.Specifier{litSpec(5), regSpec(1)}},
		{Op: vax.MOVL, Specs: []vax.Specifier{regSpec(1), regSpec(2)}},
		{Op: vax.ADDL2, Specs: []vax.Specifier{litSpec(1), regSpec(2)}},
		{Op: vax.NOP},
	}
	tr := layout(t, 0x1000, ins)
	m, mon := newTestMachine(t, tr)
	if err := m.Run(tr.Stream()); err != nil {
		t.Fatal(err)
	}
	if m.Stats.Instrs != 4 {
		t.Errorf("Instrs = %d, want 4", m.Stats.Instrs)
	}
	// The IRD location's execution count IS the instruction count.
	ird, _ := mon.Read(m.ROM.IRD)
	if ird != 4 {
		t.Errorf("IRD bucket = %d, want 4", ird)
	}
	if m.Stats.Resyncs != 0 {
		t.Errorf("resyncs = %d, want 0", m.Stats.Resyncs)
	}
	if cpi := m.CPI(); cpi < 2 || cpi > 60 {
		t.Errorf("CPI = %.1f out of sane range (cold caches)", cpi)
	}
}

func TestCycleConservation(t *testing.T) {
	// Total monitor cycles must equal EBOX Now exactly: every cycle ticks
	// exactly one bucket in exactly one count set.
	ins := []*vax.Instr{
		{Op: vax.MOVL, Specs: []vax.Specifier{
			memSpec(vax.ModeByteDisp, 3, 8, 0x5008), regSpec(1)}},
		{Op: vax.MOVL, Specs: []vax.Specifier{
			regSpec(1), memSpec(vax.ModeByteDisp, 3, 12, 0x500C)}},
		{Op: vax.PUSHL, Specs: []vax.Specifier{regSpec(1)}},
		{Op: vax.TSTL, Specs: []vax.Specifier{regSpec(1)}},
	}
	tr := layout(t, 0x1000, ins)
	m, mon := newTestMachine(t, tr)
	if err := m.Run(tr.Stream()); err != nil {
		t.Fatal(err)
	}
	if got := mon.Snapshot().TotalCycles(); got != m.E.Now {
		t.Errorf("monitor cycles %d != EBOX cycles %d", got, m.E.Now)
	}
}

func TestTakenBranchRedirects(t *testing.T) {
	// BRB forward over a MOVL; the MOVL must not run, and the stream
	// carries only executed instructions.
	br := &vax.Instr{Op: vax.BRB, Taken: true}
	skipped := &vax.Instr{Op: vax.MOVL, Specs: []vax.Specifier{litSpec(1), regSpec(1)}}
	after := &vax.Instr{Op: vax.NOP}

	prog := workload.NewProgram()
	br.PC = 0x1000
	skipped.PC = br.PC + uint32(br.Size())
	after.PC = skipped.PC + uint32(skipped.Size())
	br.BranchDisp = int32(after.PC - (br.PC + uint32(br.Size())))
	br.Target = after.PC
	for _, in := range []*vax.Instr{br, skipped, after} {
		if err := prog.PutInstr(in); err != nil {
			t.Fatal(err)
		}
	}
	items := []workload.Item{
		{Kind: workload.KindInstr, In: br},
		{Kind: workload.KindInstr, In: after},
	}
	tr := &workload.Trace{Program: prog, Items: items}
	m, mon := newTestMachine(t, tr)
	if err := m.Run(tr.Stream()); err != nil {
		t.Fatal(err)
	}
	if m.Stats.Resyncs != 0 {
		t.Errorf("taken branch needed %d resyncs; redirect is broken", m.Stats.Resyncs)
	}
	// The B-DISP flow ran exactly once.
	bd, _ := mon.Read(m.ROM.BDisp)
	if bd != 1 {
		t.Errorf("B-DISP executions = %d, want 1", bd)
	}
}

func TestUntakenBranchFallsThrough(t *testing.T) {
	br := &vax.Instr{Op: vax.BEQL, Taken: false, BranchDisp: 10}
	after := &vax.Instr{Op: vax.NOP}
	tr := layout(t, 0x1000, []*vax.Instr{br, after})
	m, mon := newTestMachine(t, tr)
	if err := m.Run(tr.Stream()); err != nil {
		t.Fatal(err)
	}
	if m.Stats.Resyncs != 0 {
		t.Error("untaken branch broke the I-stream")
	}
	// B-DISP must NOT run for an untaken branch (§5).
	bd, _ := mon.Read(m.ROM.BDisp)
	if bd != 0 {
		t.Errorf("B-DISP executions = %d, want 0", bd)
	}
}

func TestLoopBranchIterates(t *testing.T) {
	// A 3-iteration SOBGTR loop over a body instruction: body, sob, body,
	// sob(taken), ..., exit.
	body := func() *vax.Instr {
		return &vax.Instr{Op: vax.INCL, Specs: []vax.Specifier{regSpec(2)}}
	}
	sob := func(taken bool) *vax.Instr {
		return &vax.Instr{Op: vax.SOBGTR, Taken: taken,
			Specs: []vax.Specifier{regSpec(3)}}
	}
	b0 := body()
	s0 := sob(true)
	b1 := body()
	s1 := sob(true)
	b2 := body()
	s2 := sob(false)
	exit := &vax.Instr{Op: vax.NOP}

	prog := workload.NewProgram()
	b0.PC = 0x2000
	s0.PC = b0.PC + uint32(b0.Size())
	// The loop branches back to b0: same addresses each iteration.
	disp := int32(b0.PC) - int32(s0.PC+uint32(s0.Size()))
	for _, s := range []*vax.Instr{s0, s1, s2} {
		s.PC = s0.PC
		s.BranchDisp = disp
		s.Target = b0.PC
	}
	b1.PC, b2.PC = b0.PC, b0.PC
	exit.PC = s0.PC + uint32(s0.Size())
	for _, in := range []*vax.Instr{b0, s0, exit} {
		if err := prog.PutInstr(in); err != nil {
			t.Fatal(err)
		}
	}
	items := []workload.Item{}
	for _, in := range []*vax.Instr{b0, s0, b1, s1, b2, s2, exit} {
		items = append(items, workload.Item{Kind: workload.KindInstr, In: in})
	}
	tr := &workload.Trace{Program: prog, Items: items}
	m, _ := newTestMachine(t, tr)
	if err := m.Run(tr.Stream()); err != nil {
		t.Fatal(err)
	}
	if m.Stats.Resyncs != 0 {
		t.Errorf("loop needed %d resyncs", m.Stats.Resyncs)
	}
	if m.Stats.Instrs != 7 {
		t.Errorf("Instrs = %d, want 7", m.Stats.Instrs)
	}
}

func TestCallRetStackTraffic(t *testing.T) {
	call := &vax.Instr{Op: vax.CALLS, Taken: true, RegCount: 3,
		Specs: []vax.Specifier{
			litSpec(0),
			memSpec(vax.ModeLongDisp, 2, 0x100, 0x3000),
		}}
	callee := &vax.Instr{Op: vax.MOVL, Specs: []vax.Specifier{litSpec(9), regSpec(0)}}
	ret := &vax.Instr{Op: vax.RET, Taken: true, RegCount: 3}
	after := &vax.Instr{Op: vax.NOP}

	prog := workload.NewProgram()
	call.PC = 0x1000
	after.PC = call.PC + uint32(call.Size())
	callee.PC = 0x3000
	ret.PC = callee.PC + uint32(callee.Size())
	call.Target = callee.PC
	ret.Target = after.PC
	for _, in := range []*vax.Instr{call, callee, ret, after} {
		if err := prog.PutInstr(in); err != nil {
			t.Fatal(err)
		}
	}
	items := []workload.Item{}
	for _, in := range []*vax.Instr{call, callee, ret, after} {
		items = append(items, workload.Item{Kind: workload.KindInstr, In: in})
	}
	tr := &workload.Trace{Program: prog, Items: items}
	m, _ := newTestMachine(t, tr)
	spBefore := m.E.SP
	if err := m.Run(tr.Stream()); err != nil {
		t.Fatal(err)
	}
	if m.Stats.Resyncs != 0 {
		t.Errorf("call/ret needed %d resyncs", m.Stats.Resyncs)
	}
	// CALLS pushes 3 registers + 5 state longwords; RET pops 4 + 3.
	if m.Mem.Stats.DWrites < 8 {
		t.Errorf("only %d D-writes; CALLS should push at least 8 longwords", m.Mem.Stats.DWrites)
	}
	if m.Mem.Stats.DReads < 7 {
		t.Errorf("only %d D-reads; RET should pop at least 7", m.Mem.Stats.DReads)
	}
	// Stack pointer balance: CALL pushed 8, RET popped 7 plus mask read —
	// SP ends near where it started (within the state-longword skew).
	if diff := int64(m.E.SP) - int64(spBefore); diff < -64 || diff > 64 {
		t.Errorf("SP drifted %d bytes over call/ret", diff)
	}
}

func TestInterruptDelivery(t *testing.T) {
	user := &vax.Instr{Op: vax.MOVL, Specs: []vax.Specifier{litSpec(1), regSpec(1)}}
	handler := &vax.Instr{Op: vax.TSTL, Specs: []vax.Specifier{regSpec(0)}}
	rei := &vax.Instr{Op: vax.REI, Taken: true}
	resume := &vax.Instr{Op: vax.NOP}

	prog := workload.NewProgram()
	user.PC = 0x1000
	resume.PC = user.PC + uint32(user.Size())
	handler.PC = 0x8000_1000
	rei.PC = handler.PC + uint32(handler.Size())
	rei.Target = resume.PC
	for _, in := range []*vax.Instr{user, handler, rei, resume} {
		if err := prog.PutInstr(in); err != nil {
			t.Fatal(err)
		}
	}
	items := []workload.Item{
		{Kind: workload.KindInstr, In: user},
		{Kind: workload.KindInterrupt, HandlerPC: handler.PC},
		{Kind: workload.KindInstr, In: handler},
		{Kind: workload.KindInstr, In: rei},
		{Kind: workload.KindInstr, In: resume},
	}
	tr := &workload.Trace{Program: prog, Items: items}
	m, mon := newTestMachine(t, tr)
	if err := m.Run(tr.Stream()); err != nil {
		t.Fatal(err)
	}
	if m.Stats.Interrupts != 1 {
		t.Errorf("Interrupts = %d, want 1", m.Stats.Interrupts)
	}
	if m.Stats.Resyncs != 0 {
		t.Errorf("interrupt path needed %d resyncs", m.Stats.Resyncs)
	}
	// Interrupt microcode ran: its entry location counted once.
	n, _ := mon.Read(m.ROM.Interrupt)
	if n != 1 {
		t.Errorf("interrupt flow entry count = %d, want 1", n)
	}
}

func TestTBMissServiceRuns(t *testing.T) {
	// A D-stream reference to a never-seen page must trap to the TB miss
	// microcode and then succeed on retry.
	ins := []*vax.Instr{
		{Op: vax.MOVL, Specs: []vax.Specifier{
			memSpec(vax.ModeLongDisp, 4, 0, 0x0070_0000), regSpec(1)}},
		{Op: vax.NOP},
	}
	tr := layout(t, 0x1000, ins)
	m, mon := newTestMachine(t, tr)
	if err := m.Run(tr.Stream()); err != nil {
		t.Fatal(err)
	}
	if m.Mem.Stats.DTBMisses == 0 {
		t.Error("no D-stream TB miss recorded")
	}
	if m.Mem.Stats.PTEReads == 0 {
		t.Error("TB miss service did not read a PTE")
	}
	// The abort location counted at least one microtrap.
	n, _ := mon.Read(m.ROM.Abort)
	if n == 0 {
		t.Error("no abort cycles recorded")
	}
	// I-stream TB misses happened too (cold TB at 0x1000).
	if m.Mem.Stats.ITBMisses == 0 {
		t.Error("no I-stream TB miss recorded on a cold TB")
	}
}

func TestUnalignedTrap(t *testing.T) {
	sp := memSpec(vax.ModeLongDisp, 4, 0, 0x0070_0002)
	sp.Unaligned = true
	ins := []*vax.Instr{
		{Op: vax.MOVL, Specs: []vax.Specifier{sp, regSpec(1)}},
		{Op: vax.NOP},
	}
	tr := layout(t, 0x1000, ins)
	m, mon := newTestMachine(t, tr)
	if err := m.Run(tr.Stream()); err != nil {
		t.Fatal(err)
	}
	if m.Mem.Stats.Unaligned != 1 {
		t.Errorf("Unaligned = %d, want 1", m.Mem.Stats.Unaligned)
	}
	n, _ := mon.Read(m.ROM.UnalignedRead)
	if n == 0 {
		t.Error("alignment microcode did not run")
	}
}

func TestCharacterStringLoop(t *testing.T) {
	movc := &vax.Instr{Op: vax.MOVC3, StrLen: 40,
		Specs: []vax.Specifier{
			litSpec(40),
			memSpec(vax.ModeRegDeferred, 1, 0, 0x6000),
			memSpec(vax.ModeRegDeferred, 2, 0, 0x7000),
		}}
	ins := []*vax.Instr{movc, {Op: vax.NOP}}
	tr := layout(t, 0x1000, ins)
	m, _ := newTestMachine(t, tr)
	if err := m.Run(tr.Stream()); err != nil {
		t.Fatal(err)
	}
	// 40 bytes = 10 longwords: ≥10 string reads and ≥10 string writes.
	if m.Mem.Stats.DReads < 10 || m.Mem.Stats.DWrites < 10 {
		t.Errorf("string traffic too small: r=%d w=%d",
			m.Mem.Stats.DReads, m.Mem.Stats.DWrites)
	}
	// The paper: character microcode avoids write stalls by pacing writes.
	if m.Mem.Stats.WriteStall > 5 {
		t.Errorf("MOVC3 write-stalled %d cycles; the loop should pace writes",
			m.Mem.Stats.WriteStall)
	}
}

func TestContextSwitchFlushesTB(t *testing.T) {
	// Prime a process translation, LDPCTX to a new process, and check the
	// process half was flushed while system entries survive.
	mov := &vax.Instr{Op: vax.MOVL, Specs: []vax.Specifier{
		memSpec(vax.ModeRegDeferred, 5, 0, 0x6000), regSpec(1)}}
	sv := &vax.Instr{Op: vax.SVPCTX}
	ld := &vax.Instr{Op: vax.LDPCTX}
	after := &vax.Instr{Op: vax.NOP}
	tr := layout(t, 0x8000_2000, []*vax.Instr{mov, sv, ld, after})
	tr.Items[2].SwitchTo = 9
	m, _ := newTestMachine(t, tr)
	if err := m.Run(tr.Stream()); err != nil {
		t.Fatal(err)
	}
	if m.Mem.ASID() != 9 {
		t.Errorf("ASID = %d, want 9 after LDPCTX", m.Mem.ASID())
	}
	if _, ok := m.Mem.Translate(0x6000); ok {
		t.Error("process TB entry survived the context switch")
	}
	// The instruction stream itself was in system space and must survive.
	if _, ok := m.Mem.Translate(0x8000_2000); !ok {
		t.Error("system TB entry lost on context switch")
	}
}

func TestDescribeMentionsComponents(t *testing.T) {
	tr := layout(t, 0x1000, []*vax.Instr{{Op: vax.NOP}})
	m, _ := newTestMachine(t, tr)
	d := m.Describe()
	for _, want := range []string{"EBOX", "Translation Buffer", "Write Buffer", "SBI", "I-Decode", "200 ns"} {
		if !strings.Contains(d, want) {
			t.Errorf("Describe() missing %q", want)
		}
	}
}

func TestStepUnknownKind(t *testing.T) {
	tr := layout(t, 0x1000, []*vax.Instr{{Op: vax.NOP}})
	m, _ := newTestMachine(t, tr)
	if err := m.Step(&workload.Item{Kind: workload.Kind(99)}); err == nil {
		t.Error("unknown item kind should fail")
	}
}

// TestContextSwitchInsideInterruptBanksSP: when the scheduler (running on
// the interrupt stack) LDPCTXes to a new process, the outgoing process's
// parked SP must be banked and the REI must land on the INCOMING
// process's stack, inside its region.
func TestContextSwitchInsideInterruptBanksSP(t *testing.T) {
	sched := []*vax.Instr{
		{Op: vax.SVPCTX},
		{Op: vax.LDPCTX},
		{Op: vax.REI, Taken: true},
	}
	resume := &vax.Instr{Op: vax.NOP}

	prog := workload.NewProgram()
	pc := uint32(0x8000_3000)
	for _, in := range sched {
		in.PC = pc
		if err := prog.PutInstr(in); err != nil {
			t.Fatal(err)
		}
		pc += uint32(in.Size())
	}
	resume.PC = 0x0910_0000 // inside process 9's code slot
	if err := prog.PutInstr(resume); err != nil {
		t.Fatal(err)
	}
	sched[2].Target = resume.PC

	items := []workload.Item{
		{Kind: workload.KindInterrupt, HandlerPC: sched[0].PC},
		{Kind: workload.KindInstr, In: sched[0]},
		{Kind: workload.KindInstr, In: sched[1], SwitchTo: 9},
		{Kind: workload.KindInstr, In: sched[2]},
		{Kind: workload.KindInstr, In: resume},
	}
	tr := &workload.Trace{Program: prog, Items: items}
	m, _ := newTestMachine(t, tr)
	oldSP := m.E.SP
	if err := m.Run(tr.Stream()); err != nil {
		t.Fatal(err)
	}
	if m.Mem.ASID() != 9 {
		t.Fatalf("ASID = %d", m.Mem.ASID())
	}
	lo := uint32(procStackBase + 9*procStackSlot)
	hi := lo + stackBytes
	if m.E.SP < lo || m.E.SP > hi {
		t.Errorf("SP %#x outside process 9's stack [%#x,%#x]", m.E.SP, lo, hi)
	}
	if m.E.StackLo != lo || m.E.StackHi != hi {
		t.Errorf("stack bounds [%#x,%#x], want [%#x,%#x]", m.E.StackLo, m.E.StackHi, lo, hi)
	}
	// The outgoing process's SP was banked for its next turn.
	if banked, ok := m.procSP[1]; !ok || banked != oldSP {
		t.Errorf("process 1 SP banked as %#x,%v; want %#x", banked, ok, oldSP)
	}
}

// specScanCtx is the direct derivation buildCtx's per-opcode table
// replaced: a scan of the opcode's specifier templates on every
// instruction.
func specScanCtx(m *Machine, in *vax.Instr) ebox.InstrCtx {
	info := in.Info()
	ctx := ebox.InstrCtx{
		In:        in,
		DstSpec:   -1,
		FieldSpec: -1,
		ScalarVA:  sysScratchBase + uint32(m.Stats.Instrs%64)*4,
		Target:    in.Target,
	}
	var addrSpecs []int
	for i, t := range info.Specs {
		switch t.Access {
		case vax.AccWrite, vax.AccModify:
			if in.Specs[i].Mode.IsMemory() {
				ctx.DstSpec = i
			}
		case vax.AccVField:
			ctx.FieldSpec = i
		case vax.AccAddress:
			addrSpecs = append(addrSpecs, i)
		}
	}
	if len(addrSpecs) > 0 {
		ctx.StrSrc = in.Specs[addrSpecs[0]].Addr
		ctx.StrDst = in.Specs[addrSpecs[len(addrSpecs)-1]].Addr
		ctx.ScalarVA = ctx.StrDst
	}
	switch info.Flow {
	case vax.FlowCase:
		ctx.ScalarVA = in.PC + uint32(in.Size())
	case vax.FlowSvpctx, vax.FlowLdpctx:
		ctx.ScalarVA = pcbBase + m.curASID*0x200
	}
	return ctx
}

// TestBuildCtxMatchesSpecScan holds the table-driven decode context to
// the per-instruction scan for every modelled opcode under random
// addressing modes, so opcodes with several write operands or address
// operands are covered whether or not a workload emits them.
func TestBuildCtxMatchesSpecScan(t *testing.T) {
	m := New(Config{}, workload.NewProgram())
	rng := rand.New(rand.NewSource(3))
	checked := 0
	for op := 0; op < 256; op++ {
		info := vax.Opcode(op).Info()
		if info == nil {
			continue
		}
		for trial := 0; trial < 64; trial++ {
			in := &vax.Instr{Op: vax.Opcode(op), PC: rng.Uint32(), Target: rng.Uint32()}
			for range info.Specs {
				in.Specs = append(in.Specs, vax.Specifier{
					Mode:  vax.AddrMode(rng.Intn(int(vax.NumAddrModes))),
					Index: -1,
					Addr:  rng.Uint32(),
				})
			}
			m.Stats.Instrs = uint64(rng.Intn(1 << 20))
			m.curASID = uint32(rng.Intn(8))
			if got, want := *m.buildCtx(in), specScanCtx(m, in); got != want {
				t.Fatalf("%s: buildCtx %+v, spec scan %+v", info.Name, got, want)
			}
			checked++
		}
	}
	if checked < 64*100 {
		t.Errorf("only %d instructions checked", checked)
	}
}
