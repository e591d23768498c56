package ebox

import (
	"errors"
	"fmt"

	"vax780/internal/faults"
	"vax780/internal/ibox"
	"vax780/internal/ucode"
	"vax780/internal/urom"
	"vax780/internal/vax"
)

// seq resolves the sequencer function of the just-executed
// microinstruction, performing any I-stream request it carries. It
// returns the next micro-PC, or done=true when the instruction completed.
func (e *EBOX) seq(mi *ucode.MicroInst) (next uint16, done bool, err error) {
	// I-stream side effects that do not determine sequencing.
	if mi.IB == ucode.IBRedirect {
		e.IB.Redirect(e.ctx.Target)
		e.redirected = true
	}

	switch mi.Seq {
	case ucode.SeqNext:
		return e.upc + 1, false, nil

	case ucode.SeqJump:
		return mi.Target, false, nil

	case ucode.SeqLoop:
		e.loop--
		if e.loop > 0 {
			return mi.Target, false, nil
		}
		return e.upc + 1, false, nil

	case ucode.SeqEndInstr:
		return 0, true, nil

	case ucode.SeqStore:
		if d := e.ctx.DstSpec; d >= 0 {
			e.curSpec = d
			if d == 0 {
				return e.ROM.RStore[0], false, nil
			}
			return e.ROM.RStore[1], false, nil
		}
		return 0, true, nil

	case ucode.SeqCondTaken:
		if e.ctx.In == nil {
			return 0, false, fmt.Errorf("conditional outside instruction at uPC %#o", e.upc)
		}
		if e.ctx.In.Taken {
			// Taken: decode the branch displacement and run the B-DISP
			// micro-subroutine, returning to the take path.
			next, err := e.decodeBranch()
			if err != nil {
				return 0, false, err
			}
			e.uret = mi.Target
			return next, false, nil
		}
		// Untaken: consume the displacement bytes in this same cycle and
		// end the instruction.
		if err := e.skipBranch(); err != nil {
			return 0, false, err
		}
		return 0, true, nil

	case ucode.SeqURet:
		return e.uret, false, nil

	case ucode.SeqDispatch:
		switch mi.IB {
		case ucode.IBDecodeInstr:
			next, err := e.dispatchInstr()
			return next, false, err
		case ucode.IBDecodeSpec:
			next, err := e.dispatchNext()
			return next, false, err
		case ucode.IBDecodeBranch:
			// Stand-alone branch decode (always-taken flows).
			next, err := e.decodeBranch()
			if err != nil {
				return 0, false, err
			}
			e.uret = e.upc + 1
			return next, false, nil
		case ucode.IBNone:
			// Indexed-specifier base dispatch.
			return e.pendBase, false, nil
		}
		return 0, false, fmt.Errorf("dispatch without IB function at uPC %#o", e.upc)
	}
	return 0, false, fmt.Errorf("unhandled seq %v at uPC %#o", mi.Seq, e.upc)
}

// waitIB stalls at the given IB-stall wait location until the IB holds at
// least need bytes, servicing any pending I-stream TB miss. Each waited
// cycle is an execution of the stall microinstruction — the paper's IB
// stall metric.
func (e *EBOX) waitIB(stallLoc uint16, need int) error {
	if need > len(e.IB.Bytes()) {
		for waited := 0; len(e.IB.Bytes()) < need; waited++ {
			if waited > 10_000 {
				return fmt.Errorf("IB starvation waiting for %d bytes at VA %#x", need, e.IB.BufVA())
			}
			if miss, _ := e.IB.ITBMiss(); miss {
				if err := e.serviceITBMiss(); err != nil {
					return err
				}
				continue
			}
			e.tick(stallLoc, false, false)
		}
	}
	return nil
}

// dispatchInstr performs the IRD dispatch: consume the opcode byte and
// choose the first specifier flow or the execute flow. The opcode comes
// from the trace record, which ReadTrace and the generator hold equal to
// the code image; with Strict the IB byte is decoded and compared.
func (e *EBOX) dispatchInstr() (uint16, error) {
	if err := e.waitIB(e.ROM.IBStallInstr, 1); err != nil {
		return 0, err
	}
	op := e.ctx.In.Op
	if e.Strict {
		if err := e.checkOpcode(); err != nil {
			return 0, err
		}
	}
	if err := e.IB.Consume(1); err != nil {
		return 0, e.machineCheck(faults.CodeIBOverrun, "ebox.dispatchInstr",
			e.IB.BufVA(), err)
	}
	if len(op.Info().Specs) == 0 {
		return e.execEntry(op)
	}
	return e.dispatchSpec()
}

// dispatchNext handles the end-of-specifier-flow dispatch: the next
// specifier, or the execute flow once all specifiers are processed.
func (e *EBOX) dispatchNext() (uint16, error) {
	if e.ctx.In == nil {
		return 0, fmt.Errorf("specifier dispatch outside instruction")
	}
	if e.specIdx < len(e.ctx.In.Specs) {
		return e.dispatchSpec()
	}
	return e.execEntry(e.ctx.In.Op)
}

// dispatchSpec dispatches specifier number specIdx and returns its flow
// entry. Mode, index and byte length come from the trace record; the
// I-Decode stage waits at the position's stall location until the IB
// holds all n bytes of the specifier, then consumes them. Decoding the
// IB bytes one refill at a time would succeed at exactly the first cycle
// the IB holds n bytes, so the stall and I-stream TB-miss cycles are the
// same (DESIGN.md §16.3).
func (e *EBOX) dispatchSpec() (uint16, error) {
	in := e.ctx.In
	info := in.Info()
	stallLoc := e.ROM.IBStallSpecN
	if e.specIdx == 0 {
		stallLoc = e.ROM.IBStallSpec1
	}
	sp := &in.Specs[e.specIdx]
	t := info.Specs[e.specIdx].Type
	n := vax.SpecSize(sp, t)
	if n > ibox.Capacity {
		return 0, fmt.Errorf("specifier larger than IB at PC %#x", in.PC)
	}
	if err := e.waitIB(stallLoc, n); err != nil {
		return 0, err
	}
	if e.Strict {
		if err := e.checkSpec(sp, t, n); err != nil {
			return 0, err
		}
	}
	if err := e.IB.Consume(n); err != nil {
		return 0, e.machineCheck(faults.CodeIBOverrun, "ebox.dispatchSpec",
			e.IB.BufVA(), err)
	}
	e.curSpec = e.specIdx
	pos := 1
	if e.specIdx == 0 {
		pos = 0
	}
	e.specIdx++

	variant := urom.VariantFor(info.Specs[e.curSpec].Access)
	if sp.Indexed() {
		// Indexed: one preamble cycle in this position's region, then the
		// shared SPEC2-6 base flow (the paper's attribution artifact).
		e.pendBase = e.ROM.SpecEntry[1][sp.Mode][variant]
		return e.ROM.IdxEntry[pos], nil
	}
	return e.ROM.SpecEntry[pos][sp.Mode][variant], nil
}

// ErrDecodeMismatch reports, under Strict, that the IB bytes decode to
// something other than the trace record the EBOX dispatched from.
var ErrDecodeMismatch = errors.New("decode mismatch")

// checkOpcode is the Strict oracle for the IRD dispatch: the opcode byte
// at the front of the IB must be the record's opcode.
func (e *EBOX) checkOpcode() error {
	in := e.ctx.In
	op, err := vax.DecodeOpcode(e.IB.Bytes())
	if err != nil || op != in.Op {
		return fmt.Errorf("%w: IB has %s, trace has %s at PC %#x",
			ErrDecodeMismatch, op, in.Op, in.PC)
	}
	return nil
}

// checkSpec is the Strict oracle for a specifier dispatch: the n bytes
// at the front of the IB must decode, as data type t, to the record's
// mode and index with exactly n bytes.
func (e *EBOX) checkSpec(want *vax.Specifier, t vax.DataType, n int) error {
	in := e.ctx.In
	ds, err := vax.DecodeSpec(e.IB.Bytes()[:n], t)
	if err != nil {
		return fmt.Errorf("%w: specifier %d at PC %#x: %v",
			ErrDecodeMismatch, e.specIdx, in.PC, err)
	}
	if ds.Mode != want.Mode || ds.Index != want.Index || ds.Len != n {
		return fmt.Errorf("%w: specifier %d at PC %#x: decoded %v[idx %d] in %d bytes, trace %v[idx %d] in %d",
			ErrDecodeMismatch, e.specIdx, in.PC, ds.Mode, ds.Index, ds.Len,
			want.Mode, want.Index, n)
	}
	return nil
}

// execEntry selects the execute flow entry for op, applying the
// field-base memory variant and the literal/register operand
// optimization. An opcode the control store holds no execute flow for
// is a machine-check abort (address 0 is a valid control-store
// location, so presence is tracked explicitly in HasExecFlow).
func (e *EBOX) execEntry(op vax.Opcode) (uint16, error) {
	if !e.ROM.HasExecFlow[op] {
		return 0, e.machineCheck(faults.CodeMissingFlow, "ebox.execEntry",
			e.ctx.In.PC, fmt.Errorf("no execute flow for %s", op))
	}
	in := e.ctx.In

	if in.SIRR && op == vax.MTPR {
		return e.ROM.ExecEntrySIRR, nil
	}
	if e.ROM.ExecEntryMem[op] != 0 && e.ctx.FieldSpec >= 0 &&
		in.Specs[e.ctx.FieldSpec].Mode.IsMemory() {
		return e.ROM.ExecEntryMem[op], nil
	}
	if e.ROM.ExecEntryOpt[op] != 0 && len(in.Specs) > 0 {
		last := in.Specs[len(in.Specs)-1].Mode
		if last == vax.ModeRegister || last == vax.ModeLiteral {
			return e.ROM.ExecEntryOpt[op], nil
		}
	}
	return e.ROM.ExecEntry[op], nil
}

// decodeBranch consumes the branch displacement from the IB and returns
// the B-DISP flow entry.
func (e *EBOX) decodeBranch() (uint16, error) {
	size := e.ctx.In.Info().BranchDispSize
	if size == 0 {
		return 0, fmt.Errorf("%s has no branch displacement", e.ctx.In.Op)
	}
	if err := e.waitIB(e.ROM.IBStallBDisp, size); err != nil {
		return 0, err
	}
	if e.Strict {
		d, err := vax.DecodeBranchDisp(e.IB.Bytes(), size)
		if err != nil {
			return 0, err
		}
		if d != e.ctx.In.BranchDisp {
			return 0, fmt.Errorf("%w: branch displacement at PC %#x: IB %d, trace %d",
				ErrDecodeMismatch, e.ctx.In.PC, d, e.ctx.In.BranchDisp)
		}
	}
	if err := e.IB.Consume(size); err != nil {
		return 0, e.machineCheck(faults.CodeIBOverrun, "ebox.decodeBranch",
			e.IB.BufVA(), err)
	}
	return e.ROM.BDisp, nil
}

// skipBranch consumes the displacement bytes of an untaken branch within
// the current cycle (no target computation, §5).
func (e *EBOX) skipBranch() error {
	size := e.ctx.In.Info().BranchDispSize
	if size == 0 {
		return nil
	}
	if err := e.waitIB(e.ROM.IBStallBDisp, size); err != nil {
		return err
	}
	if err := e.IB.Consume(size); err != nil {
		return e.machineCheck(faults.CodeIBOverrun, "ebox.skipBranch",
			e.IB.BufVA(), err)
	}
	return nil
}
