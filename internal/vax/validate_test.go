package vax

import (
	"strings"
	"testing"
)

func validMOVL() *Instr {
	return &Instr{Op: MOVL, Specs: []Specifier{
		{Mode: ModeLiteral, Disp: 5, Index: -1},
		{Mode: ModeRegister, Reg: 2, Index: -1},
	}}
}

func TestValidateAccepts(t *testing.T) {
	cases := []*Instr{
		validMOVL(),
		{Op: NOP},
		{Op: BEQL, Taken: true, Target: 0x1000, BranchDisp: 4},
		{Op: MOVC3, StrLen: 40, Specs: []Specifier{
			{Mode: ModeLiteral, Disp: 40, Index: -1},
			{Mode: ModeRegDeferred, Reg: 1, Index: -1},
			{Mode: ModeRegDeferred, Reg: 2, Index: -1},
		}},
		{Op: PUSHR, RegCount: 4, Specs: []Specifier{
			{Mode: ModeLiteral, Disp: 0xF, Index: -1},
		}},
		{Op: ADDP4, Digits: 8, Specs: []Specifier{
			{Mode: ModeLiteral, Disp: 8, Index: -1},
			{Mode: ModeRegDeferred, Reg: 1, Index: -1},
			{Mode: ModeLiteral, Disp: 8, Index: -1},
			{Mode: ModeRegDeferred, Reg: 2, Index: -1},
		}},
	}
	for _, in := range cases {
		if err := Validate(in); err != nil {
			t.Errorf("%s: %v", in.Op, err)
		}
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		in   *Instr
		want string
	}{
		{"bad opcode", &Instr{Op: Opcode(0xFF)}, "invalid opcode"},
		{"wrong spec count", &Instr{Op: MOVL}, "needs 2"},
		{"literal write", &Instr{Op: MOVL, Specs: []Specifier{
			{Mode: ModeRegister, Reg: 1, Index: -1},
			{Mode: ModeLiteral, Disp: 3, Index: -1},
		}}, "cannot be"},
		{"register address operand", &Instr{Op: JMP, Specs: []Specifier{
			{Mode: ModeRegister, Reg: 1, Index: -1},
		}}, "needs a memory mode"},
		{"indexed literal", func() *Instr {
			in := validMOVL()
			in.Specs[0].Index = 3
			return in
		}(), "cannot be indexed"},
		{"literal range", func() *Instr {
			in := validMOVL()
			in.Specs[0].Disp = 99
			return in
		}(), "out of range"},
		{"bad register", func() *Instr {
			in := validMOVL()
			in.Specs[1].Reg = 19
			return in
		}(), "bad register"},
		{"taken non-branch", func() *Instr {
			in := validMOVL()
			in.Taken = true
			in.Target = 0x100
			return in
		}(), "cannot change the PC"},
		{"taken without target", &Instr{Op: BEQL, Taken: true}, "without a target"},
		{"string without length", &Instr{Op: MOVC3, Specs: []Specifier{
			{Mode: ModeLiteral, Disp: 40, Index: -1},
			{Mode: ModeRegDeferred, Reg: 1, Index: -1},
			{Mode: ModeRegDeferred, Reg: 2, Index: -1},
		}}, "string length"},
		{"decimal without digits", &Instr{Op: CVTLP, Specs: []Specifier{
			{Mode: ModeRegister, Reg: 1, Index: -1},
			{Mode: ModeLiteral, Disp: 8, Index: -1},
			{Mode: ModeRegDeferred, Reg: 2, Index: -1},
		}}, "digit count"},
		{"pushr count range", &Instr{Op: PUSHR, RegCount: 20, Specs: []Specifier{
			{Mode: ModeLiteral, Disp: 1, Index: -1},
		}}, "register count"},
		{"string wider than a word", &Instr{Op: MOVC3, StrLen: 1 << 40, Specs: []Specifier{
			{Mode: ModeRegister, Reg: 1, Index: -1},
			{Mode: ModeRegDeferred, Reg: 1, Index: -1},
			{Mode: ModeRegDeferred, Reg: 2, Index: -1},
		}}, "exceeds a word"},
		{"too many digits", &Instr{Op: CVTLP, Digits: 32, Specs: []Specifier{
			{Mode: ModeRegister, Reg: 1, Index: -1},
			{Mode: ModeLiteral, Disp: 8, Index: -1},
			{Mode: ModeRegDeferred, Reg: 2, Index: -1},
		}}, "exceeds 31"},
		{"field wider than a longword", &Instr{Op: NOP, FieldLen: 33}, "exceeds 32"},
	}
	for _, c := range cases {
		err := Validate(c.in)
		if err == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q missing %q", c.name, err, c.want)
		}
	}
}
