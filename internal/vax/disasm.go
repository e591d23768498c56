package vax

import (
	"fmt"
	"strings"
)

// regNames are the architectural register names.
var regNames = [16]string{
	"R0", "R1", "R2", "R3", "R4", "R5", "R6", "R7",
	"R8", "R9", "R10", "R11", "AP", "FP", "SP", "PC",
}

// RegName returns the architectural name of register n.
func RegName(n int) string {
	if n < 0 || n > 15 {
		return fmt.Sprintf("R?%d", n)
	}
	return regNames[n]
}

// DisasmSpec renders one operand specifier in VAX MACRO syntax.
func DisasmSpec(s *Specifier) string {
	var out string
	switch s.Mode {
	case ModeLiteral:
		out = fmt.Sprintf("#%d", s.Disp)
	case ModeRegister:
		out = RegName(int(s.Reg))
	case ModeRegDeferred:
		out = "(" + RegName(int(s.Reg)) + ")"
	case ModeAutoDecrement:
		out = "-(" + RegName(int(s.Reg)) + ")"
	case ModeAutoIncrement:
		out = "(" + RegName(int(s.Reg)) + ")+"
	case ModeImmediate:
		out = fmt.Sprintf("#%d", s.Disp)
	case ModeAutoIncDeferred:
		out = "@(" + RegName(int(s.Reg)) + ")+"
	case ModeAbsolute:
		out = fmt.Sprintf("@#%#X", s.Addr)
	case ModeByteDisp, ModeWordDisp, ModeLongDisp:
		out = fmt.Sprintf("%d(%s)", s.Disp, RegName(int(s.Reg)))
	case ModeByteDispDeferred, ModeWordDispDeferred, ModeLongDispDeferred:
		out = fmt.Sprintf("@%d(%s)", s.Disp, RegName(int(s.Reg)))
	default:
		out = fmt.Sprintf("<mode %d>", s.Mode)
	}
	if s.Indexed() {
		out += "[" + RegName(int(s.Index)) + "]"
	}
	return out
}

// Disasm renders an instruction in VAX MACRO syntax:
//
//	MOVL  #5, 4(R2)[R3]
//	BEQL  0x0010F2
//
// Branch targets render as the displacement-relative address when the PC
// is known (nonzero), else as a raw displacement.
func Disasm(in *Instr) string {
	info := in.Info()
	if info == nil {
		return fmt.Sprintf(".BYTE %#02X", byte(in.Op))
	}
	parts := make([]string, 0, len(in.Specs)+1)
	for i := range in.Specs {
		parts = append(parts, DisasmSpec(&in.Specs[i]))
	}
	if info.BranchDispSize > 0 {
		if in.PC != 0 {
			target := in.PC + uint32(in.Size()) + uint32(in.BranchDisp)
			parts = append(parts, fmt.Sprintf("%#06X", target))
		} else {
			parts = append(parts, fmt.Sprintf(".%+d", in.BranchDisp))
		}
	}
	if len(parts) == 0 {
		return info.Name
	}
	return fmt.Sprintf("%-7s %s", info.Name, strings.Join(parts, ", "))
}

// DisasmBytes decodes and renders the instruction at the front of buf.
func DisasmBytes(buf []byte, pc uint32) (text string, size int, err error) {
	in, n, err := Decode(buf)
	if err != nil {
		return "", n, err
	}
	in.PC = pc
	return Disasm(in), n, nil
}
