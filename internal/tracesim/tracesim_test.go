package tracesim

import (
	"testing"

	"vax780/internal/machine"
	"vax780/internal/mem"
	"vax780/internal/upc"
	"vax780/internal/vax"
	"vax780/internal/workload"
)

func model() *Model { return NewModel(machine.ROM()) }

func TestEstimateSimpleInstr(t *testing.T) {
	// MOVL R1, R2: decode(1) + spec reg(1) + spec reg(1) + exec move(1) = 4.
	in := &vax.Instr{Op: vax.MOVL, Specs: []vax.Specifier{
		{Mode: vax.ModeRegister, Reg: 1, Index: -1},
		{Mode: vax.ModeRegister, Reg: 2, Index: -1},
	}}
	c, err := model().EstimateInstr(in)
	if err != nil {
		t.Fatal(err)
	}
	if c != 4 {
		t.Errorf("MOVL R1,R2 = %d cycles, want 4", c)
	}
}

func TestEstimateMemoryOperand(t *testing.T) {
	// MOVL 4(R1), R2: displacement read flow adds an address-add cycle
	// and a read cycle over the register case.
	reg := &vax.Instr{Op: vax.MOVL, Specs: []vax.Specifier{
		{Mode: vax.ModeRegister, Reg: 1, Index: -1},
		{Mode: vax.ModeRegister, Reg: 2, Index: -1},
	}}
	mm := &vax.Instr{Op: vax.MOVL, Specs: []vax.Specifier{
		{Mode: vax.ModeByteDisp, Reg: 1, Disp: 4, Index: -1},
		{Mode: vax.ModeRegister, Reg: 2, Index: -1},
	}}
	cr, _ := model().EstimateInstr(reg)
	cm, _ := model().EstimateInstr(mm)
	if cm != cr+2 {
		t.Errorf("displacement operand adds %d cycles, want 2", cm-cr)
	}
}

func TestEstimateBranchTakenVsNot(t *testing.T) {
	taken := &vax.Instr{Op: vax.BEQL, Taken: true}
	not := &vax.Instr{Op: vax.BEQL, Taken: false}
	ct, _ := model().EstimateInstr(taken)
	cn, _ := model().EstimateInstr(not)
	if ct <= cn {
		t.Errorf("taken branch (%d) should cost more than untaken (%d)", ct, cn)
	}
	// Untaken: decode + fused test cycle = 2.
	if cn != 2 {
		t.Errorf("untaken BEQL = %d, want 2", cn)
	}
}

func TestEstimateOptimization(t *testing.T) {
	// ADDL2 with a register destination uses the optimized entry (one
	// cycle shorter than a memory destination's execute phase).
	regDst := &vax.Instr{Op: vax.ADDL2, Specs: []vax.Specifier{
		{Mode: vax.ModeLiteral, Disp: 1, Index: -1},
		{Mode: vax.ModeRegister, Reg: 2, Index: -1},
	}}
	memDst := &vax.Instr{Op: vax.ADDL2, Specs: []vax.Specifier{
		{Mode: vax.ModeLiteral, Disp: 1, Index: -1},
		{Mode: vax.ModeByteDisp, Reg: 2, Disp: 8, Index: -1},
	}}
	cr, _ := model().EstimateInstr(regDst)
	cm, _ := model().EstimateInstr(memDst)
	// Memory destination: +1 addr calc +1 modify-read +1 unoptimized
	// stage +1 result store.
	if cm-cr < 3 {
		t.Errorf("memory-destination ADDL2 adds %d cycles, want >=3", cm-cr)
	}
}

func TestEstimateStringScalesWithLength(t *testing.T) {
	short := &vax.Instr{Op: vax.MOVC3, StrLen: 8, Specs: []vax.Specifier{
		{Mode: vax.ModeLiteral, Disp: 8, Index: -1},
		{Mode: vax.ModeRegDeferred, Reg: 1, Index: -1},
		{Mode: vax.ModeRegDeferred, Reg: 2, Index: -1},
	}}
	long := &vax.Instr{Op: vax.MOVC3, StrLen: 48, Specs: short.Specs}
	long.StrLen = 48
	cs, _ := model().EstimateInstr(short)
	cl, _ := model().EstimateInstr(long)
	// 2 vs 12 longwords at 9 cycles per inner-loop pass.
	if cl-cs != 10*9 {
		t.Errorf("string growth cost %d cycles, want 90", cl-cs)
	}
}

func TestEstimateTraceSkipsOverhead(t *testing.T) {
	items := []workload.Item{
		{Kind: workload.KindInstr, In: &vax.Instr{Op: vax.NOP}},
		{Kind: workload.KindInterrupt, HandlerPC: 0x8000_1000},
		{Kind: workload.KindInstr, In: &vax.Instr{Op: vax.NOP}},
	}
	res, err := model().EstimateTrace(items)
	if err != nil {
		t.Fatal(err)
	}
	if res.Instructions != 2 || res.SkippedEvents != 1 {
		t.Errorf("instrs=%d skipped=%d", res.Instructions, res.SkippedEvents)
	}
}

// TestBaselineUnderestimatesMeasured is the A1 ablation: the trace-driven
// model must underestimate the measured CPI, and the gap (stall + OS
// overhead time) should be roughly the share the paper attributes to
// those activities (~30% of 10.6 cycles).
func TestBaselineUnderestimatesMeasured(t *testing.T) {
	tr, err := workload.Generate(workload.TimesharingA(20000))
	if err != nil {
		t.Fatal(err)
	}
	mon := upc.New()
	mon.Start()
	m := machine.New(machine.Config{Mem: mem.Config{}, Monitor: mon, Strict: true}, tr.Program)
	if err := m.Run(tr.Stream()); err != nil {
		t.Fatal(err)
	}
	measured := m.CPI()

	res, err := model().EstimateTrace(tr.Items)
	if err != nil {
		t.Fatal(err)
	}
	cmp := Compare(res, measured)
	t.Logf("trace-driven CPI=%.2f, measured CPI=%.2f, underestimate=%.0f%%",
		cmp.EstimatedCPI, cmp.MeasuredCPI, 100*cmp.UnderestimateFraction)
	if cmp.EstimatedCPI >= cmp.MeasuredCPI {
		t.Error("trace-driven model should underestimate the measured CPI")
	}
	if cmp.UnderestimateFraction < 0.12 || cmp.UnderestimateFraction > 0.55 {
		t.Errorf("underestimate fraction %.2f; stalls+overhead should be roughly 20-40%% of time",
			cmp.UnderestimateFraction)
	}
	if res.PerGroup[vax.GroupSimple] == 0 {
		t.Error("per-group attribution missing")
	}
}

func TestResultCPIZeroInstr(t *testing.T) {
	r := &Result{}
	if r.CPI() != 0 {
		t.Error("empty result CPI should be 0")
	}
}

// TestEveryOpcodeFlowTerminates walks the microprogram symbolically for
// every opcode in both taken and untaken forms: every flow must reach an
// end-of-instruction within a sane cycle bound.
func TestEveryOpcodeFlowTerminates(t *testing.T) {
	m := model()
	for _, op := range vax.Opcodes() {
		info := op.Info()
		in := &vax.Instr{Op: op, RegCount: 4, StrLen: 40, Digits: 10, FieldLen: 8}
		for i, tmpl := range info.Specs {
			mode := vax.ModeRegister
			if tmpl.Access == vax.AccAddress {
				mode = vax.ModeRegDeferred
			}
			in.Specs = append(in.Specs, vax.Specifier{Mode: mode, Reg: i + 1, Index: -1})
		}
		for _, taken := range []bool{false, true} {
			if taken && info.PCClass == vax.PCNone {
				continue
			}
			in.Taken = taken
			if taken {
				in.Target = 0x2000
			}
			c, err := m.EstimateInstr(in)
			if err != nil {
				t.Errorf("%s (taken=%v): %v", op, taken, err)
				continue
			}
			if c < 2 || c > 400 {
				t.Errorf("%s (taken=%v): %d cycles out of bounds", op, taken, c)
			}
		}
	}
}

// TestFlowCycleOrdering: relative costs follow the paper's per-group
// structure even at the single-instruction level.
func TestFlowCycleOrdering(t *testing.T) {
	m := model()
	cost := func(op vax.Opcode, fields func(*vax.Instr)) int {
		info := op.Info()
		in := &vax.Instr{Op: op, RegCount: 4, StrLen: 40, Digits: 10}
		for i, tmpl := range info.Specs {
			mode := vax.ModeRegister
			if tmpl.Access == vax.AccAddress {
				mode = vax.ModeRegDeferred
			}
			in.Specs = append(in.Specs, vax.Specifier{Mode: mode, Reg: i + 1, Index: -1})
		}
		if fields != nil {
			fields(in)
		}
		c, err := m.EstimateInstr(in)
		if err != nil {
			t.Fatalf("%s: %v", op, err)
		}
		return c
	}
	movl := cost(vax.MOVL, nil)
	addf := cost(vax.ADDF2, nil)
	mull := cost(vax.MULL2, nil)
	calls := cost(vax.CALLS, func(in *vax.Instr) { in.Taken = true; in.Target = 0x2000 })
	movc := cost(vax.MOVC3, nil)
	addp := cost(vax.ADDP4, nil)
	if !(movl < addf && addf < mull && mull < calls && calls < movc) {
		t.Errorf("ordering violated: MOVL %d < ADDF %d < MULL %d < CALLS %d < MOVC3 %d",
			movl, addf, mull, calls, movc)
	}
	if addp < calls {
		t.Errorf("ADDP4 (%d) should cost more than CALLS (%d)", addp, calls)
	}
}
