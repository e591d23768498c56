package workload

import (
	"fmt"
	"math/rand"

	"vax780/internal/vax"
)

// FragWeights are the relative frequencies of control-flow fragments the
// generator emits. They are chosen per profile so the dynamic instruction
// mix reproduces Tables 1 and 2 of the paper.
type FragWeights struct {
	Straight float64 // run of scalar instructions
	Cond     float64 // conditional branch (plus BRB/BRW)
	Loop     float64 // counted loop (SOB/AOB/ACB), ~10 iterations
	BitBr    float64 // bit branch (FIELD group)
	LowBit   float64 // BLBS/BLBC
	Sub      float64 // BSB/JSB ... RSB subroutine
	Proc     float64 // CALLS ... RET procedure
	Jmp      float64 // JMP
	Case     float64 // CASEx
	Char     float64 // character string instruction
	Decimal  float64 // packed decimal instruction
	Syscall  float64 // CHMK ... kernel ... REI
}

// ScalarWeights are the relative frequencies of scalar instruction
// categories within straight-line code.
type ScalarWeights struct {
	Moves, Arith, Bool, Cmp, Cvt, Push, MoveAddr float64
	Field, Float, FloatMul, IntMulDiv            float64
}

// Profile parameterizes one synthetic workload, standing in for one of
// the paper's five measurement experiments.
type Profile struct {
	Name         string
	Seed         int64
	Instructions int // dynamic instructions to generate
	Users        int // simulated processes (the paper: 15/30/40/40/32)

	Frag   FragWeights
	Scalar ScalarWeights

	// Branch behaviour (Table 2).
	PCondTaken   float64 // conditional branches (BRB/BRW are always taken)
	PBitTaken    float64
	PLowBitTaken float64
	LoopContinue float64 // per-iteration continue probability (0.9 → ~10 iterations)

	// Specifier mode distributions (Table 4).
	Spec1    ModeDist
	SpecN    ModeDist
	IdxProb1 float64
	IdxProbN float64

	// Data-dependent operand sizes.
	RegCountMin, RegCountMax int
	StrLenMin, StrLenMax     int
	DigitsMin, DigitsMax     int

	// Locality.
	Data DataConfig // Base is assigned per process

	// VMS event headways in instructions (Table 7).
	InterruptHeadway int
	SoftIntHeadway   int
	CtxSwitchHeadway int

	// Activities optionally gives each simulated user a session script:
	// a rotation of phases (edit, compile, compute, ...) whose scale
	// factors modulate the base mix while active. Empty means the
	// stationary base mix.
	Activities []Activity

	// IdleFraction is the share of instructions spent in the VMS Null
	// process (branch-to-self awaiting an interrupt). The paper EXCLUDES
	// the Null process from measurement because it "would bias all
	// per-instruction statistics in proportion to the idleness of the
	// system" (§2.2); a nonzero value here reproduces that bias.
	IdleFraction float64
}

// Address-space layout: each process gets a 16 MB slot holding its code
// (low half) and data (high half); kernel code and handlers live in
// system space.
const (
	procSlotBase   = 0x0010_0000
	procSlotSize   = 0x0100_0000
	procDataOffset = 0x0080_0000
	kernelCodeBase = 0x8000_1000
	sysDataBase    = 0x8800_0000
)

// routine is a reusable static code body (subroutine, procedure, kernel
// service routine, or interrupt handler).
type routine struct {
	entry uint32
	body  []*vax.Instr // protos, including the terminating return
}

// proc is one simulated process.
type proc struct {
	asid  uint32
	cur   uint32 // code layout cursor
	data  *DataSpace
	subs  []*routine
	procs []*routine

	// session-script state
	act     int // current activity index
	actLeft int // instructions remaining in the activity
}

// arena carves instruction records and their specifiers from chunks.
// A chunk is never reallocated, so a record's address is stable for the
// arena's lifetime: items, replayed items and routine bodies hold record
// pointers, and the generator still edits a record after its item is
// appended (the scheduler's REI outcome).
type arena struct {
	instrs []vax.Instr
	specs  []vax.Specifier
}

const (
	instrChunk = 512
	specChunk  = 2048
)

// instr returns a zeroed record.
func (a *arena) instr() *vax.Instr {
	if len(a.instrs) == cap(a.instrs) {
		a.instrs = make([]vax.Instr, 0, instrChunk)
	}
	a.instrs = a.instrs[:len(a.instrs)+1]
	in := &a.instrs[len(a.instrs)-1]
	*in = vax.Instr{}
	return in
}

// specifiers returns n specifiers for the caller to fill, nil when n is 0.
// The slice's capacity is exactly n, so an append can never grow one
// record's specifiers into its neighbour's.
func (a *arena) specifiers(n int) []vax.Specifier {
	if n == 0 {
		return nil
	}
	if cap(a.specs)-len(a.specs) < n {
		a.specs = make([]vax.Specifier, 0, specChunk)
	}
	lo := len(a.specs)
	a.specs = a.specs[:lo+n]
	return a.specs[lo : lo+n : lo+n]
}

// reset reuses the current chunks from the start. Only valid when no
// record carved before it is still referenced.
func (a *arena) reset() {
	a.instrs = a.instrs[:0]
	a.specs = a.specs[:0]
}

// Generator synthesizes one workload trace.
type Generator struct {
	p    Profile
	rng  *rand.Rand
	prog *Program

	// recs holds exactly the records the trace keeps: the executed
	// instructions. Protos that are only encoded into the image or
	// cloned never enter it: protos holds the routine bodies, which
	// live as long as the generator; tmp holds the protos of one step
	// of the generation loop (filler gaps, loop bodies, loop-closing
	// and replay branches, the idle spin) and is reset before every
	// step. enc is the reused encoding buffer.
	recs   arena
	protos arena
	tmp    arena
	enc    []byte

	items []Item
	procs []*proc
	cur   int

	sysCur  uint32
	sysData *DataSpace
	kernel  []*routine
	handler []*routine
	sched   *routine

	nInstr   int
	nextInt  int
	nextCtx  int
	nextSirr int

	// phase replay state: programs re-execute their code, so recorded
	// spans of the trace are replayed through a backward ACBL (an outer
	// loop). This is what gives the I-stream its locality. The recorded
	// phase is always the trace's suffix items[phase:].
	phase     int
	phaseGoal int

	// Sampler sets, built once: index 0 is the base mix; indexes 1..n
	// correspond to Profile.Activities. modes holds the specifier mode
	// tables of the first specifier (0) and of the others (1).
	scalarSamplers []scalarSet
	fragSamplers   []fragSet
	modes          [2]modeTables
	err            error
}

// scalarSet is one scalar category mix and its total weight.
type scalarSet struct {
	cats  [11]weightedCat
	total float64
}

type weightedCat struct {
	ops *opSampler
	w   float64
}

// fragSet is one fragment mix and its total weight.
type fragSet struct {
	frags [12]weightedFrag
	total float64
}

type weightedFrag struct {
	f func()
	w float64
}

// Generate synthesizes the trace for a profile. It fails if the code of
// a process would reach that process's data region, or the kernel's
// code the system data.
func Generate(p Profile) (*Trace, error) {
	return newGenerator(p).run()
}

// newGenerator sets up the address spaces, samplers and event schedule
// of a profile's generator.
func newGenerator(p Profile) *Generator {
	if p.Instructions <= 0 {
		p.Instructions = 100_000
	}
	if p.Users <= 0 {
		p.Users = 8
	}
	g := &Generator{
		p:     p,
		rng:   rand.New(rand.NewSource(p.Seed)),
		prog:  NewProgram(),
		items: make([]Item, 0, p.Instructions+p.Instructions/64+1024),
	}
	g.sysCur = kernelCodeBase
	g.sysData = NewDataSpace(g.rng, DataConfig{
		Base:          sysDataBase,
		HotPages:      p.Data.HotPages,
		ColdPages:     p.Data.ColdPages,
		ColdFrac:      p.Data.ColdFrac,
		UnalignedProb: p.Data.UnalignedProb,
	})
	for i := 0; i < p.Users; i++ {
		asid := uint32(i + 1)
		slot := uint32(procSlotBase) + uint32(i)*procSlotSize
		d := p.Data
		d.Base = slot + procDataOffset
		pr := &proc{
			asid: asid,
			cur:  slot,
			data: NewDataSpace(g.rng, d),
		}
		if n := len(p.Activities); n > 0 {
			// Stagger session phases across users so even short runs
			// sample the whole script.
			pr.act = i % n
			mean := p.Activities[pr.act].MeanLen
			if mean < 1 {
				mean = 1000
			}
			pr.actLeft = 1 + g.rng.Intn(2*mean)
		}
		g.procs = append(g.procs, pr)
	}
	g.buildSamplers()
	g.scheduleEvents()
	g.phaseGoal = g.newPhaseGoal()
	return g
}

// run generates the profile's instructions.
func (g *Generator) run() (*Trace, error) {
	for g.nInstr < g.p.Instructions && g.err == nil {
		g.tmp.reset()
		if g.nInstr >= g.nextInt {
			// Interrupts break the recorded phase (their delivery is not
			// part of the process's repeatable control flow).
			g.endPhase()
			g.emitInterrupt()
			continue
		}
		if g.nInstr >= g.nextSirr {
			g.emitSoftIntRequest()
			continue
		}
		if g.p.IdleFraction > 0 && g.rng.Float64() < g.p.IdleFraction/2 {
			g.emitIdle()
			continue
		}
		if len(g.items)-g.phase >= g.phaseGoal {
			g.replayPhase()
			g.endPhase()
			g.phaseGoal = g.newPhaseGoal()
		}
		g.emitFragment()
	}
	if g.err != nil {
		return nil, g.err
	}
	return &Trace{Name: g.p.Name, Program: g.prog, Items: g.items}, nil
}

func (g *Generator) scheduleEvents() {
	g.nextInt = g.headway(g.p.InterruptHeadway)
	g.nextCtx = g.headway(g.p.CtxSwitchHeadway)
	g.nextSirr = g.headway(g.p.SoftIntHeadway)
}

// headway returns the next event time as an exponential interval from now.
func (g *Generator) headway(mean int) int {
	if mean <= 0 {
		return 1 << 30
	}
	iv := int(g.rng.ExpFloat64() * float64(mean))
	if iv < 1 {
		iv = 1
	}
	return g.nInstr + iv
}

func (g *Generator) buildSamplers() {
	g.modes[0] = g.p.Spec1.tables()
	g.modes[1] = g.p.SpecN.tables()
	g.scalarSamplers = append(g.scalarSamplers, g.buildScalarSampler(g.p.Scalar))
	g.fragSamplers = append(g.fragSamplers, g.buildFragSampler(g.p.Frag))
	for _, act := range g.p.Activities {
		g.scalarSamplers = append(g.scalarSamplers,
			g.buildScalarSampler(scaledScalar(g.p.Scalar, act.Scalar)))
		g.fragSamplers = append(g.fragSamplers,
			g.buildFragSampler(scaledFrag(g.p.Frag, act.Frag)))
	}
}

func (g *Generator) buildScalarSampler(s ScalarWeights) scalarSet {
	set := scalarSet{cats: [...]weightedCat{
		{movesOps, s.Moves},
		{arithOps, s.Arith},
		{boolOps, s.Bool},
		{cmpOps, s.Cmp},
		{cvtOps, s.Cvt},
		{pushOps, s.Push},
		{moveAddrOps, s.MoveAddr},
		{fieldOps, s.Field},
		{floatOps, s.Float},
		{floatMulOps, s.FloatMul},
		{intMulDivOps, s.IntMulDiv},
	}}
	for _, c := range set.cats {
		set.total += c.w
	}
	return set
}

func (g *Generator) buildFragSampler(f FragWeights) fragSet {
	set := fragSet{frags: [...]weightedFrag{
		{g.fragStraight, f.Straight},
		{g.fragCond, f.Cond},
		{g.fragLoop, f.Loop},
		{g.fragBitBr, f.BitBr},
		{g.fragLowBit, f.LowBit},
		{g.fragSub, f.Sub},
		{g.fragProc, f.Proc},
		{g.fragJmp, f.Jmp},
		{g.fragCase, f.Case},
		{g.fragChar, f.Char},
		{g.fragDecimal, f.Decimal},
		{g.fragSyscall, f.Syscall},
	}}
	for _, wf := range set.frags {
		set.total += wf.w
	}
	return set
}

// samplerIndex returns the sampler set index for the current process's
// activity (0 = base mix when no script is configured).
func (g *Generator) samplerIndex() int {
	if len(g.p.Activities) == 0 {
		return 0
	}
	return 1 + g.curProc().act
}

// advanceScript rotates the current process to its next scripted activity
// when the current one's duration is exhausted.
func (g *Generator) advanceScript(emitted int) {
	if len(g.p.Activities) == 0 {
		return
	}
	p := g.curProc()
	p.actLeft -= emitted
	if p.actLeft > 0 {
		return
	}
	p.act = (p.act + 1) % len(g.p.Activities)
	mean := g.p.Activities[p.act].MeanLen
	if mean < 1 {
		mean = 1000
	}
	p.actLeft = 1 + int(g.rng.ExpFloat64()*float64(mean))
}

func (g *Generator) emitFragment() {
	before := g.nInstr
	set := &g.fragSamplers[g.samplerIndex()]
	x := g.rng.Float64() * set.total
	done := false
	for _, wf := range set.frags {
		x -= wf.w
		if x <= 0 {
			wf.f()
			done = true
			break
		}
	}
	if !done {
		g.fragStraight()
	}
	g.advanceScript(g.nInstr - before)
}

func (g *Generator) fail(err error) {
	if g.err == nil {
		g.err = err
	}
}

func (g *Generator) curProc() *proc { return g.procs[g.cur] }

// put materializes an instruction's bytes at its PC.
func (g *Generator) put(in *vax.Instr) {
	g.enc = vax.Encode(g.enc[:0], in)
	if err := overrun(in.PC, len(g.enc)); err != nil {
		g.fail(err)
		return
	}
	if err := g.prog.Put(in.PC, g.enc); err != nil {
		g.fail(err)
	}
}

// overrun reports n code bytes at pc that do not end inside the code
// region holding pc: a process's code lies below its data (slot +
// procDataOffset), the kernel's below the system data.
func overrun(pc uint32, n int) error {
	end := pc + uint32(n)
	if pc >= kernelCodeBase {
		if end > sysDataBase {
			return fmt.Errorf("workload: kernel code at %#x reaches the system data at %#x",
				pc, uint32(sysDataBase))
		}
		return nil
	}
	slot := (pc - procSlotBase) / procSlotSize
	if limit := procSlotBase + slot*procSlotSize + procDataOffset; end > limit {
		return fmt.Errorf("workload: process %d code at %#x reaches its data region at %#x",
			slot+1, pc, limit)
	}
	return nil
}

// lay places a proto at the cursor, materializing its bytes, and moves
// the cursor past them.
func (g *Generator) lay(cursor *uint32, in *vax.Instr) {
	in.PC = *cursor
	g.put(in)
	*cursor += uint32(len(g.enc))
}

func (g *Generator) layMain(in *vax.Instr) { g.lay(&g.curProc().cur, in) }

// exec appends one executed instruction to the trace; it joins the
// current replay phase, which is the trace's suffix.
func (g *Generator) exec(in *vax.Instr) {
	g.items = append(g.items, Item{Kind: KindInstr, In: in})
	g.nInstr++
}

// endPhase starts a fresh (empty) replay phase.
func (g *Generator) endPhase() { g.phase = len(g.items) }

func (g *Generator) newPhaseGoal() int {
	return 90 + g.rng.Intn(160)
}

// replayPhase re-executes the recorded phase one to three more times via
// a backward ACBL — the outer loop of a program working through its job.
// Replayed instructions reuse their recorded operand addresses, giving
// both the I-stream and the D-stream their temporal locality.
func (g *Generator) replayPhase() {
	lo, hi := g.phase, len(g.items)
	if lo == hi {
		return
	}
	p := g.curProc()
	start := g.items[lo].In.PC
	acbl := g.newTemp(vax.ACBL)
	acbl.PC = p.cur
	next := p.cur + uint32(acbl.Size())
	disp := int64(start) - int64(next)
	if disp < -30000 || disp > -4 {
		return // out of word-displacement range or not a backward jump
	}
	acbl.BranchDisp = int32(disp)
	if g.put(acbl); g.err != nil {
		return
	}
	p.cur = next

	replays := 1 + g.rng.Intn(3)
	for i := 0; i <= replays; i++ {
		// A due software-interrupt request ends the outer loop early so
		// the request's Table 7 headway is not stretched by replay.
		another := i < replays && g.nInstr < g.nextSirr
		lb := g.clone(acbl)
		g.bind(lb, p.data)
		lb.Taken = another
		lb.Target = start
		g.exec(lb)
		if !lb.Taken {
			break
		}
		// Interrupts keep firing at their usual rate during replays; the
		// handler resumes at the phase start the ACBL just jumped to.
		if g.nInstr >= g.nextInt {
			g.nextInt = g.headway(g.p.InterruptHeadway)
			g.deliverInterrupt(start)
		}
		// Re-execute the identical items: same instruction records, same
		// control flow, same operand addresses. The phase never holds
		// an interrupt item, so each one is an instruction.
		g.items = append(g.items, g.items[lo:hi]...)
		g.nInstr += hi - lo
	}
}

// clone copies a proto into the trace's records for one dynamic
// execution.
func (g *Generator) clone(p *vax.Instr) *vax.Instr {
	c := g.recs.instr()
	*c = *p
	c.Specs = g.recs.specifiers(len(p.Specs))
	copy(c.Specs, p.Specs)
	return c
}

// bind assigns the runtime operand addresses of one dynamic execution.
func (g *Generator) bind(in *vax.Instr, d *DataSpace) {
	info := in.Info()
	for i := range in.Specs {
		sp := &in.Specs[i]
		if !sp.Mode.IsMemory() {
			continue
		}
		size := info.Specs[i].Type.Size()
		if sp.Mode == vax.ModeAbsolute {
			// The absolute address is static (encoded); keep it.
			continue
		}
		addr, unaligned := d.Scalar(size)
		sp.Addr = addr
		sp.Unaligned = unaligned
		if sp.Mode.IsDeferred() {
			sp.PtrAddr = d.Pointer()
		}
	}
}

// execClone binds and executes one dynamic copy of a proto.
func (g *Generator) execClone(p *vax.Instr, d *DataSpace) *vax.Instr {
	c := g.clone(p)
	g.bind(c, d)
	g.exec(c)
	return c
}

// newScalar builds a fresh scalar instruction record with sampled
// specifier modes and static fields.
func (g *Generator) newScalar() *vax.Instr { return g.newInstr(g.scalarOp()) }

// scalarOp samples a scalar opcode from the current activity's mix.
func (g *Generator) scalarOp() vax.Opcode {
	set := &g.scalarSamplers[g.samplerIndex()]
	x := g.rng.Float64() * set.total
	var ops *opSampler
	for _, c := range set.cats {
		x -= c.w
		if x <= 0 {
			ops = c.ops
			break
		}
	}
	if ops == nil {
		ops = set.cats[0].ops
	}
	return ops.sample(g.rng)
}

// newInstr builds an executed record for op with sampled specifiers.
func (g *Generator) newInstr(op vax.Opcode) *vax.Instr { return g.build(&g.recs, op) }

// newProto builds a routine-body proto for op.
func (g *Generator) newProto(op vax.Opcode) *vax.Instr { return g.build(&g.protos, op) }

// newTemp builds a proto for op that lives through the current fragment.
func (g *Generator) newTemp(op vax.Opcode) *vax.Instr { return g.build(&g.tmp, op) }

// build carves a record for op from a and samples its specifiers.
func (g *Generator) build(a *arena, op vax.Opcode) *vax.Instr {
	info := op.Info()
	in := a.instr()
	in.Op = op
	in.Specs = a.specifiers(len(info.Specs))
	for i, t := range info.Specs {
		in.Specs[i] = g.buildSpec(i, t)
	}
	switch info.Flow {
	case vax.FlowFieldExt, vax.FlowFieldIns:
		in.FieldLen = 1 + g.rng.Intn(31)
	}
	return in
}

// buildSpec samples one specifier's static form.
func (g *Generator) buildSpec(slot int, t vax.SpecTemplate) vax.Specifier {
	modes, idxProb := &g.modes[1], g.p.IdxProbN
	if slot == 0 {
		modes, idxProb = &g.modes[0], g.p.IdxProb1
	}
	mode := modes[t.Access][t.Type].sample(g.rng)
	sp := vax.Specifier{Mode: mode, Reg: int8(g.rng.Intn(12)), Index: -1}
	switch mode {
	case vax.ModeLiteral:
		sp.Disp = int32(g.rng.Intn(64))
	case vax.ModeImmediate:
		sp.Disp = g.rng.Int31n(1 << 16)
	case vax.ModeByteDisp, vax.ModeByteDispDeferred:
		sp.Disp = int32(g.rng.Intn(250) - 124)
	case vax.ModeWordDisp, vax.ModeWordDispDeferred:
		sp.Disp = int32(g.rng.Intn(60000) - 30000)
	case vax.ModeLongDisp, vax.ModeLongDispDeferred:
		sp.Disp = g.rng.Int31n(1<<20) - 1<<19
	case vax.ModeAbsolute:
		sp.Addr = sysDataBase + uint32(g.rng.Intn(64))*dsPage +
			uint32(g.rng.Intn(dsPage/4)*4)
	}
	if mode.IsMemory() && mode != vax.ModeAbsolute && g.rng.Float64() < idxProb {
		sp.Index = int8(g.rng.Intn(12))
	}
	return sp
}

func (g *Generator) rngRange(lo, hi int) int {
	if hi <= lo {
		return lo
	}
	return lo + g.rng.Intn(hi-lo+1)
}
