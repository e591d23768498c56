package workload

import "vax780/internal/vax"

// fragStraight emits a short run of scalar instructions.
func (g *Generator) fragStraight() {
	n := 2 + g.rng.Intn(5)
	p := g.curProc()
	for i := 0; i < n; i++ {
		in := g.newScalar()
		g.layMain(in)
		g.bind(in, p.data)
		g.exec(in)
	}
}

// layFillers emits k static (never executed) scalar instructions at the
// cursor — the not-taken path of a forward branch — and returns the
// total gap in bytes. Fillers are only encoded, so the trace keeps no
// record of them.
func (g *Generator) layFillers(cursor *uint32, k int) uint32 {
	start := *cursor
	for i := 0; i < k; i++ {
		g.lay(cursor, g.newTemp(g.scalarOp()))
	}
	return *cursor - start
}

// emitForwardBranch lays op at the cursor, choosing taken/untaken, and
// emits its execution. Taken branches skip a filler gap.
func (g *Generator) emitForwardBranch(in *vax.Instr, taken bool) {
	p := g.curProc()
	if !taken {
		in.BranchDisp = 4 // never interpreted
		in.Taken = false
		g.layMain(in)
		g.bind(in, p.data)
		g.exec(in)
		return
	}
	// Lay the branch with a displacement covering 1-3 filler instructions.
	in.PC = p.cur
	size := uint32(in.Size())
	fillerStart := p.cur + size
	gapCursor := fillerStart
	gap := g.layFillers(&gapCursor, 1+g.rng.Intn(3))
	in.BranchDisp = int32(gap)
	in.Taken = true
	in.Target = fillerStart + gap
	g.put(in)
	p.cur = in.Target
	g.bind(in, p.data)
	g.exec(in)
}

// fragCond emits one simple conditional branch (or BRB/BRW, which share
// the flow and are always taken).
func (g *Generator) fragCond() {
	op := condBrOps.sample(g.rng)
	in := g.newInstr(op)
	taken := g.rng.Float64() < g.p.PCondTaken
	if op == vax.BRB || op == vax.BRW {
		taken = true
	}
	g.emitForwardBranch(in, taken)
}

// fragBitBr emits a bit branch (FIELD group).
func (g *Generator) fragBitBr() {
	op := bitBrOps.sample(g.rng)
	g.emitForwardBranch(g.newInstr(op), g.rng.Float64() < g.p.PBitTaken)
}

// fragLowBit emits a low-bit test branch.
func (g *Generator) fragLowBit() {
	op := vax.BLBS
	if g.rng.Intn(2) == 0 {
		op = vax.BLBC
	}
	g.emitForwardBranch(g.newInstr(op), g.rng.Float64() < g.p.PLowBitTaken)
}

// fragLoop emits a counted loop: a static body closed by a loop branch,
// iterated a geometric number of times (91% taken ≈ 10 iterations avg).
// The body and the loop branch are protos; each iteration executes
// clones of them.
func (g *Generator) fragLoop() {
	p := g.curProc()
	bodyStart := p.cur
	n := 2 + g.rng.Intn(3)
	body := make([]*vax.Instr, 0, 4)
	for i := 0; i < n; i++ {
		in := g.newTemp(g.scalarOp())
		g.lay(&p.cur, in)
		body = append(body, in)
	}

	op := loopBrOps.sample(g.rng)
	lop := g.newTemp(op)
	lop.PC = p.cur
	next := p.cur + uint32(lop.Size())
	disp := int32(bodyStart) - int32(next)
	if op.Info().BranchDispSize == 1 && disp < -127 {
		// The body outgrew a byte displacement; ACBL carries a word.
		op = vax.ACBL
		lop = g.newTemp(op)
		lop.PC = p.cur
		next = p.cur + uint32(lop.Size())
		disp = int32(bodyStart) - int32(next)
	}
	lop.BranchDisp = disp
	g.put(lop)
	p.cur = next

	iters := 1
	for g.rng.Float64() < g.p.LoopContinue && iters < 40 {
		iters++
	}
	for it := 0; it < iters; it++ {
		for _, b := range body {
			g.execClone(b, p.data)
		}
		lb := g.clone(lop)
		g.bind(lb, p.data)
		lb.Taken = it < iters-1
		lb.Target = bodyStart
		g.exec(lb)
	}
}

// newRoutine lays a routine body at the cursor and returns it.
func (g *Generator) newRoutine(cursor *uint32, body []*vax.Instr) *routine {
	r := &routine{entry: *cursor}
	for _, in := range body {
		g.lay(cursor, in)
	}
	r.body = body
	return r
}

// layRoutineInline places a routine in the falling-through code path,
// jumping over it with an executed BRB/BRW (how compilers lay out local
// procedures). The jump-over executes as a taken unconditional branch.
func (g *Generator) layRoutineInline(body []*vax.Instr) *routine {
	p := g.curProc()
	bodyBytes := 0
	for _, b := range body {
		bodyBytes += b.Size()
	}
	op := vax.BRB
	if bodyBytes > 120 {
		op = vax.BRW
	}
	br := g.recs.instr()
	br.Op = op
	br.PC = p.cur
	br.BranchDisp = int32(bodyBytes)
	br.Taken = true
	br.Target = p.cur + uint32(br.Size()) + uint32(bodyBytes)
	g.put(br)
	p.cur += uint32(br.Size())
	r := g.newRoutine(&p.cur, body)
	g.exec(br)
	return r
}

// callRoutine executes a routine's body; the final instruction (a return)
// gets its runtime target and register count.
func (g *Generator) callRoutine(r *routine, d *DataSpace, retTarget uint32, regCount int) {
	for i, b := range r.body {
		c := g.clone(b)
		g.bind(c, d)
		if i == len(r.body)-1 {
			c.Taken = true
			c.Target = retTarget
			c.RegCount = regCount
		}
		g.exec(c)
	}
}

// fragSub emits a subroutine call: BSBB/BSBW (or JSB when out of
// displacement range) into an RSB-terminated routine.
func (g *Generator) fragSub() {
	p := g.curProc()

	// Prune subroutines that have drifted out of BSBW range.
	live := p.subs[:0]
	for _, s := range p.subs {
		if int64(p.cur)-int64(s.entry) < 30_000 {
			live = append(live, s)
		}
	}
	p.subs = live

	if len(p.subs) < 5 || g.rng.Float64() < 0.25 {
		// Create a new subroutine inline, jumping over it.
		n := 3 + g.rng.Intn(5)
		body := make([]*vax.Instr, 0, n+1)
		for i := 0; i < n; i++ {
			body = append(body, g.newProto(g.scalarOp()))
		}
		body = append(body, g.newProto(vax.RSB))
		p.subs = append(p.subs, g.layRoutineInline(body))
	}

	r := p.subs[g.rng.Intn(len(p.subs))]
	var call *vax.Instr
	dist := int64(p.cur) - int64(r.entry)
	switch {
	case g.rng.Float64() < 0.10:
		call = g.newInstr(vax.JSB)
		call.Specs[0] = vax.Specifier{
			Mode: vax.ModeLongDisp, Reg: int8(g.rng.Intn(12)),
			Disp: int32(r.entry), Addr: r.entry, Index: -1,
		}
	case dist < 120:
		call = g.recs.instr()
		call.Op = vax.BSBB
	default:
		call = g.recs.instr()
		call.Op = vax.BSBW
	}
	call.PC = p.cur
	ret := p.cur + uint32(call.Size())
	if call.Op != vax.JSB {
		call.BranchDisp = int32(r.entry) - int32(ret)
	}
	call.Taken = true
	call.Target = r.entry
	g.put(call)
	p.cur = ret
	g.exec(call)
	g.callRoutine(r, p.data, ret, 0)
}

// fragProc emits a procedure call: CALLS into a RET-terminated routine,
// with PUSHR/POPR pairs in some bodies (the CALL/RET group of Table 1).
func (g *Generator) fragProc() {
	p := g.curProc()
	if len(p.procs) < 4 || g.rng.Float64() < 0.2 {
		var body []*vax.Instr
		pushpop := g.rng.Float64() < 0.4
		if pushpop {
			body = append(body, g.newProto(vax.PUSHR))
		}
		n := 3 + g.rng.Intn(6)
		for i := 0; i < n; i++ {
			body = append(body, g.newProto(g.scalarOp()))
		}
		if pushpop {
			body = append(body, g.newProto(vax.POPR))
		}
		body = append(body, g.newProto(vax.RET))
		p.procs = append(p.procs, g.layRoutineInline(body))
	}

	r := p.procs[g.rng.Intn(len(p.procs))]
	call := g.newInstr(vax.CALLS)
	call.Specs[0] = vax.Specifier{Mode: vax.ModeLiteral, Disp: int32(g.rng.Intn(5)), Index: -1}
	call.Specs[1] = vax.Specifier{
		Mode: vax.ModeLongDisp, Reg: int8(g.rng.Intn(12)),
		Disp: int32(r.entry), Addr: r.entry, Index: -1,
	}
	call.Taken = true
	call.Target = r.entry
	call.RegCount = g.rngRange(g.p.RegCountMin, g.p.RegCountMax)
	g.layMain(call)
	retPC := p.cur
	g.exec(call)

	regs := call.RegCount
	for i, b := range r.body {
		c := g.clone(b)
		g.bind(c, p.data)
		switch c.Op {
		case vax.PUSHR, vax.POPR:
			c.RegCount = g.rngRange(g.p.RegCountMin, g.p.RegCountMax)
		case vax.RET:
			c.Taken = true
			c.Target = retPC
			c.RegCount = regs
		}
		_ = i
		g.exec(c)
	}
}

// fragJmp emits an unconditional JMP via an address specifier.
func (g *Generator) fragJmp() {
	p := g.curProc()
	in := g.newInstr(vax.JMP)
	// Fix the target specifier's shape BEFORE sizing: the displacement
	// value doesn't change the encoded length, the mode does.
	in.Specs[0] = vax.Specifier{
		Mode: vax.ModeLongDisp, Reg: int8(g.rng.Intn(12)), Index: -1,
	}
	in.PC = p.cur
	gapCursor := p.cur + uint32(in.Size())
	gap := g.layFillers(&gapCursor, 1+g.rng.Intn(2))
	target := p.cur + uint32(in.Size()) + gap
	in.Specs[0].Disp = int32(target)
	in.Specs[0].Addr = target
	in.Taken = true
	in.Target = target
	g.put(in)
	p.cur = target
	g.exec(in)
}

// fragCase emits a CASEx dispatch: the word-offset table follows the
// instruction in the I-stream; execution continues at the first arm.
func (g *Generator) fragCase() {
	p := g.curProc()
	ops := []vax.Opcode{vax.CASEB, vax.CASEW, vax.CASEL}
	in := g.newInstr(ops[g.rng.Intn(3)])
	in.PC = p.cur
	arms := 2 + g.rng.Intn(4)
	tableBytes := uint32(2 * arms)
	target := p.cur + uint32(in.Size()) + tableBytes
	in.Taken = true
	in.Target = target
	g.put(in)
	p.cur = target // skip the (data) dispatch table
	g.bind(in, p.data)
	g.exec(in)
}

// fragChar emits one character-string instruction.
func (g *Generator) fragChar() {
	p := g.curProc()
	op := charOps.sample(g.rng)
	in := g.newInstr(op)
	in.StrLen = g.rngRange(g.p.StrLenMin, g.p.StrLenMax)
	// The length operand is the short literal when it fits.
	if in.StrLen < 64 {
		in.Specs[0] = vax.Specifier{Mode: vax.ModeLiteral, Disp: int32(in.StrLen), Index: -1}
	}
	g.layMain(in)
	g.bind(in, p.data)
	// String operands come from the string region, not the scalar pools.
	// Absolute-mode specifiers keep their encoded address — it is part of
	// the instruction bytes and must stay consistent with the image.
	info := in.Info()
	for i := range in.Specs {
		if info.Specs[i].Access != vax.AccAddress {
			continue
		}
		if in.Specs[i].Mode != vax.ModeAbsolute {
			in.Specs[i].Addr = p.data.String(in.StrLen)
		}
		in.Specs[i].Unaligned = false
	}
	g.exec(in)
}

// fragDecimal emits one packed-decimal instruction.
func (g *Generator) fragDecimal() {
	p := g.curProc()
	op := decimalOps.sample(g.rng)
	in := g.newInstr(op)
	in.Digits = g.rngRange(g.p.DigitsMin, g.p.DigitsMax)
	g.layMain(in)
	g.bind(in, p.data)
	info := in.Info()
	for i := range in.Specs {
		if info.Specs[i].Access == vax.AccAddress && in.Specs[i].Mode != vax.ModeAbsolute {
			in.Specs[i].Addr = p.data.String(in.Digits/2 + 1)
			in.Specs[i].Unaligned = false
		}
	}
	g.exec(in)
}

// newKernelBody builds a kernel routine body: privileged operations mixed
// with scalars, ending in term.
func (g *Generator) newKernelBody(n int, kernelFrac float64, term vax.Opcode) []*vax.Instr {
	body := make([]*vax.Instr, 0, n+1)
	for i := 0; i < n; i++ {
		if g.rng.Float64() < kernelFrac {
			body = append(body, g.newProto(kernelOps.sample(g.rng)))
		} else {
			body = append(body, g.newProto(g.scalarOp()))
		}
	}
	body = append(body, g.newProto(term))
	return body
}

// fragSyscall emits a system service: CHMK into a kernel routine ending
// in REI.
func (g *Generator) fragSyscall() {
	p := g.curProc()
	if len(g.kernel) < 4 {
		body := g.newKernelBody(8+g.rng.Intn(7), 0.3, vax.REI)
		g.kernel = append(g.kernel, g.newRoutine(&g.sysCur, body))
	}
	r := g.kernel[g.rng.Intn(len(g.kernel))]

	chmk := g.newInstr(vax.CHMK)
	chmk.Specs[0] = vax.Specifier{Mode: vax.ModeLiteral, Disp: int32(g.rng.Intn(60)), Index: -1}
	chmk.Taken = true
	chmk.Target = r.entry
	g.layMain(chmk)
	retPC := p.cur
	g.exec(chmk)
	g.callRoutine(r, g.sysData, retPC, 0)
}

// newSIRRInstr builds the MTPR that posts a software interrupt request
// (the distinct micro-address behind Table 7's request counts).
func (g *Generator) newSIRRInstr() *vax.Instr {
	in := g.newInstr(vax.MTPR)
	in.Specs[0] = vax.Specifier{Mode: vax.ModeLiteral, Disp: 4, Index: -1}
	in.Specs[1] = vax.Specifier{Mode: vax.ModeLiteral, Disp: 0x14, Index: -1} // PR$_SIRR
	in.SIRR = true
	return in
}

// emitInterrupt delivers an interrupt: the machine runs the interrupt
// microcode, then the handler instructions execute, ending in REI back to
// the interrupted stream. Every CtxSwitchHeadway instructions the handler
// is the scheduler, which SVPCTX/LDPCTXes to the next process.
func (g *Generator) emitInterrupt() {
	g.nextInt = g.headway(g.p.InterruptHeadway)
	if g.nInstr >= g.nextCtx && len(g.procs) > 1 {
		g.emitContextSwitch()
		return
	}
	g.deliverInterrupt(g.curProc().cur)
	g.endPhase() // handler items are not part of the process's phase
}

// deliverInterrupt runs an ordinary (non-rescheduling) interrupt handler,
// resuming the interrupted stream at resume.
func (g *Generator) deliverInterrupt(resume uint32) {
	if len(g.handler) < 3 {
		body := g.newKernelBody(9+g.rng.Intn(9), 0.22, vax.REI)
		g.handler = append(g.handler, g.newRoutine(&g.sysCur, body))
	}
	r := g.handler[g.rng.Intn(len(g.handler))]
	g.items = append(g.items, Item{Kind: KindInterrupt, HandlerPC: r.entry})
	g.callRoutine(r, g.sysData, resume, 0)
}

// emitSoftIntRequest emits the MTPR that posts a software interrupt
// request inline in the current stream. The request must not be
// multiplied by phase replay, or the Table 7 headway shrinks; requests
// therefore end the recorded phase.
func (g *Generator) emitSoftIntRequest() {
	in := g.newSIRRInstr()
	g.layMain(in)
	g.exec(in)
	g.nextSirr = g.headway(g.p.SoftIntHeadway)
	g.endPhase()
}

// emitContextSwitch delivers the rescheduling interrupt: SVPCTX, the
// scheduler's bookkeeping, LDPCTX of the next process, REI into it.
func (g *Generator) emitContextSwitch() {
	g.nextCtx = g.headway(g.p.CtxSwitchHeadway)
	if g.sched == nil {
		var body []*vax.Instr
		body = append(body, g.newProto(vax.SVPCTX))
		for i := 0; i < 5; i++ {
			body = append(body, g.newProto(g.scalarOp()))
		}
		body = append(body, g.newProto(vax.LDPCTX))
		for i := 0; i < 2; i++ {
			body = append(body, g.newProto(g.scalarOp()))
		}
		body = append(body, g.newProto(vax.REI))
		g.sched = g.newRoutine(&g.sysCur, body)
	}

	next := (g.cur + 1 + g.rng.Intn(len(g.procs)-1)) % len(g.procs)
	g.items = append(g.items, Item{Kind: KindInterrupt, HandlerPC: g.sched.entry})
	for i, b := range g.sched.body {
		c := g.clone(b)
		g.bind(c, g.sysData)
		g.exec(c)
		switch c.Op {
		case vax.LDPCTX:
			g.items[len(g.items)-1].SwitchTo = g.procs[next].asid
			g.cur = next
		case vax.REI:
			c.Taken = true
			c.Target = g.curProc().cur
		}
		_ = i
	}
	g.endPhase() // the new process starts a fresh phase
}

// emitIdle emits a burst of the VMS Null process: a branch-to-self spin
// awaiting an interrupt. The static loop is a single BRB whose target is
// itself; each trace item is one (taken) execution of it.
func (g *Generator) emitIdle() {
	p := g.curProc()
	br := g.tmp.instr()
	br.Op, br.BranchDisp, br.Taken = vax.BRB, -2, true
	br.PC = p.cur
	br.Target = p.cur
	g.put(br)
	p.cur += uint32(br.Size())
	// ~20 spins per burst at IdleFraction/2 burst probability against
	// ~8-instruction fragments approximates the requested idle share.
	n := 10 + g.rng.Intn(20)
	for i := 0; i < n; i++ {
		c := g.clone(br)
		if i == n-1 {
			// The final spin falls out of the loop (an interrupt would
			// break it on the real machine): untaken exit.
			c.Taken = false
		}
		g.exec(c)
	}
	g.endPhase() // idle is not replayable program content
}
