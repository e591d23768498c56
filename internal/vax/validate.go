package vax

import "fmt"

// Validate checks an instruction record for architectural and
// simulator-subset well-formedness: the specifier count matches the
// opcode, modes are legal for their access types, index bases are
// indexable, taken branches carry targets, and data-dependent loop
// drivers are present where flows need them. Generators and importers use
// it to fail fast instead of tripping the strict machine mid-run.
func Validate(in *Instr) error {
	info := in.Info()
	if info == nil {
		return fmt.Errorf("vax: invalid opcode %#02x", byte(in.Op))
	}
	if len(in.Specs) != len(info.Specs) {
		return fmt.Errorf("vax: %s has %d specifiers, needs %d",
			info.Name, len(in.Specs), len(info.Specs))
	}
	for i := range in.Specs {
		sp := &in.Specs[i]
		tmpl := info.Specs[i]
		if sp.Mode < 0 || sp.Mode >= NumAddrModes {
			return fmt.Errorf("vax: %s specifier %d: bad mode %d", info.Name, i, sp.Mode)
		}
		writeLike := tmpl.Access == AccWrite || tmpl.Access == AccModify
		if writeLike && (sp.Mode == ModeLiteral || sp.Mode == ModeImmediate) {
			return fmt.Errorf("vax: %s specifier %d: %v operand cannot be %v",
				info.Name, i, tmpl.Access, sp.Mode)
		}
		if tmpl.Access == AccAddress && !sp.Mode.IsMemory() {
			return fmt.Errorf("vax: %s specifier %d: address operand needs a memory mode, got %v",
				info.Name, i, sp.Mode)
		}
		if sp.Mode == ModeImmediate && tmpl.Type.Size() > 4 {
			return fmt.Errorf("vax: %s specifier %d: immediate wider than a longword", info.Name, i)
		}
		if sp.Indexed() {
			switch sp.Mode {
			case ModeLiteral, ModeRegister, ModeImmediate:
				return fmt.Errorf("vax: %s specifier %d: %v cannot be indexed",
					info.Name, i, sp.Mode)
			}
			if sp.Index < 0 || sp.Index > 14 {
				return fmt.Errorf("vax: %s specifier %d: bad index register %d",
					info.Name, i, sp.Index)
			}
		}
		if sp.Reg < 0 || sp.Reg > 15 {
			return fmt.Errorf("vax: %s specifier %d: bad register %d", info.Name, i, sp.Reg)
		}
		if sp.Mode == ModeLiteral && (sp.Disp < 0 || sp.Disp > 63) {
			return fmt.Errorf("vax: %s specifier %d: literal %d out of range", info.Name, i, sp.Disp)
		}
	}
	if in.Taken {
		if info.PCClass == PCNone {
			return fmt.Errorf("vax: %s marked taken but cannot change the PC", info.Name)
		}
		if in.Target == 0 {
			return fmt.Errorf("vax: %s taken without a target", info.Name)
		}
	}
	// The loop drivers stay within their operands' architectural widths
	// (a word string length, 31 digits, a 32-bit field), which also
	// bounds every microcode loop they drive.
	if in.StrLen > 0xFFFF {
		return fmt.Errorf("vax: %s string length %d exceeds a word", info.Name, in.StrLen)
	}
	if in.Digits > 31 {
		return fmt.Errorf("vax: %s digit count %d exceeds 31", info.Name, in.Digits)
	}
	if in.FieldLen > 32 {
		return fmt.Errorf("vax: %s field length %d exceeds 32", info.Name, in.FieldLen)
	}
	switch info.Flow {
	case FlowMovc, FlowCmpc, FlowLocc:
		if in.StrLen <= 0 {
			return fmt.Errorf("vax: %s needs a positive string length", info.Name)
		}
	case FlowDecAdd, FlowDecMul, FlowDecCvt, FlowDecEdit:
		if in.Digits <= 0 {
			return fmt.Errorf("vax: %s needs a positive digit count", info.Name)
		}
	case FlowCall, FlowRet, FlowPushr, FlowPopr:
		if in.RegCount < 0 || in.RegCount > 14 {
			return fmt.Errorf("vax: %s register count %d out of range", info.Name, in.RegCount)
		}
	}
	return nil
}
