// Package vax defines the subset of the VAX architecture exercised by the
// Emer & Clark characterization study: opcodes grouped as in Table 1 of the
// paper, operand specifier addressing modes as in Table 4, and the native
// byte encodings of instructions (opcode byte, specifier bytes, optional
// branch displacement).
//
// The package is purely architectural: nothing here depends on the 11/780
// implementation. Implementation-specific behaviour (microcode flows, the
// instruction buffer, caches) lives in the sibling packages.
package vax

import "fmt"

// Group is an opcode group as defined by Table 1 of the paper. The UPC
// histogram method cannot distinguish every opcode (microcode is shared
// between, e.g., integer add and subtract), so the paper — and this
// reproduction — report frequencies at group granularity.
type Group int

// Opcode groups, in the order Table 1 lists them.
const (
	GroupSimple Group = iota
	GroupField
	GroupFloat
	GroupCallRet
	GroupSystem
	GroupCharacter
	GroupDecimal
	NumGroups
)

var groupNames = [...]string{
	GroupSimple:    "SIMPLE",
	GroupField:     "FIELD",
	GroupFloat:     "FLOAT",
	GroupCallRet:   "CALL/RET",
	GroupSystem:    "SYSTEM",
	GroupCharacter: "CHARACTER",
	GroupDecimal:   "DECIMAL",
}

func (g Group) String() string {
	if g < 0 || int(g) >= len(groupNames) {
		return fmt.Sprintf("Group(%d)", int(g))
	}
	return groupNames[g]
}

// AddrMode is a VAX operand specifier addressing mode. The numeric values
// are chosen for readability; the on-the-wire encoding (mode nibble) is
// produced by the encoder. It is a signed byte so a Specifier stays
// small (see Specifier for why it is signed).
type AddrMode int8

// Addressing modes, named as in Table 4 of the paper.
const (
	ModeLiteral AddrMode = iota // short literal, 6 bits in the specifier byte
	ModeRegister
	ModeRegDeferred      // (Rn)
	ModeAutoDecrement    // -(Rn)
	ModeAutoIncrement    // (Rn)+
	ModeImmediate        // (PC)+  : I-stream constant
	ModeAutoIncDeferred  // @(Rn)+
	ModeAbsolute         // @#addr : (PC)+ deferred
	ModeByteDisp         // disp8(Rn)
	ModeByteDispDeferred // @disp8(Rn)
	ModeWordDisp         // disp16(Rn)
	ModeWordDispDeferred // @disp16(Rn)
	ModeLongDisp         // disp32(Rn)
	ModeLongDispDeferred // @disp32(Rn)
	NumAddrModes
)

var modeNames = [...]string{
	ModeLiteral:          "literal",
	ModeRegister:         "R",
	ModeRegDeferred:      "(R)",
	ModeAutoDecrement:    "-(R)",
	ModeAutoIncrement:    "(R)+",
	ModeImmediate:        "(PC)+",
	ModeAutoIncDeferred:  "@(R)+",
	ModeAbsolute:         "@#",
	ModeByteDisp:         "D8(R)",
	ModeByteDispDeferred: "@D8(R)",
	ModeWordDisp:         "D16(R)",
	ModeWordDispDeferred: "@D16(R)",
	ModeLongDisp:         "D32(R)",
	ModeLongDispDeferred: "@D32(R)",
}

func (m AddrMode) String() string {
	if m < 0 || int(m) >= len(modeNames) {
		return fmt.Sprintf("AddrMode(%d)", int(m))
	}
	return modeNames[m]
}

// IsMemory reports whether the mode references memory for its scalar
// operand. Register and literal/immediate-in-register-file modes do not.
func (m AddrMode) IsMemory() bool {
	switch m {
	case ModeLiteral, ModeRegister:
		return false
	}
	// Immediate data comes from the I-stream, not the D-stream, but the
	// specifier still consumes I-stream bytes; it performs no D-stream
	// reference for the datum itself.
	return m != ModeImmediate
}

// IsDeferred reports whether the mode performs an extra level of
// indirection (and therefore an extra D-stream read for the pointer).
func (m AddrMode) IsDeferred() bool {
	switch m {
	case ModeAutoIncDeferred, ModeAbsolute, ModeByteDispDeferred,
		ModeWordDispDeferred, ModeLongDispDeferred:
		return true
	}
	return false
}

// Access describes how an instruction uses an operand specifier, following
// the VAX architecture reference nomenclature.
type Access int

// Operand access types.
const (
	AccRead    Access = iota // r: operand is read
	AccWrite                 // w: operand is written
	AccModify                // m: operand is read then written
	AccAddress               // a: address of operand is computed, no data access
	AccVField                // v: bit-field base (address or register)
)

var accessNames = [...]string{"r", "w", "m", "a", "v"}

func (a Access) String() string {
	if a < 0 || int(a) >= len(accessNames) {
		return fmt.Sprintf("Access(%d)", int(a))
	}
	return accessNames[a]
}

// DataType is a VAX operand data type, determining operand width.
type DataType int

// Operand data types.
const (
	TypeByte DataType = iota
	TypeWord
	TypeLong
	TypeQuad
	TypeFFloat // 4-byte F_floating
	TypeDFloat // 8-byte D_floating
)

var typeSizes = [...]int{1, 2, 4, 8, 4, 8}

var typeNames = [...]string{"b", "w", "l", "q", "f", "d"}

// Size returns the operand width in bytes.
func (t DataType) Size() int { return typeSizes[t] }

func (t DataType) String() string {
	if t < 0 || int(t) >= len(typeNames) {
		return fmt.Sprintf("DataType(%d)", int(t))
	}
	return typeNames[t]
}

// PCClass classifies PC-changing instructions into the rows of Table 2 of
// the paper. PCNone marks instructions that never change the PC.
type PCClass int

// Table 2 rows.
const (
	PCNone       PCClass = iota
	PCSimpleCond         // simple conditional branches, plus BRB/BRW (microcode sharing)
	PCLoop               // SOBxxx, AOBxxx, ACBx
	PCLowBit             // BLBS, BLBC
	PCSubr               // BSBB, BSBW, JSB, RSB
	PCUncond             // JMP
	PCCase               // CASEB/W/L
	PCBitBranch          // BBS, BBC, BBxx (FIELD group)
	PCProc               // CALLG, CALLS, RET
	PCSystem             // CHMx, REI
	NumPCClasses
)

var pcClassNames = [...]string{
	PCNone:       "none",
	PCSimpleCond: "Simple cond. plus BRB, BRW",
	PCLoop:       "Loop branches",
	PCLowBit:     "Low-bit tests",
	PCSubr:       "Subroutine call and return",
	PCUncond:     "Unconditional (JMP)",
	PCCase:       "Case branch (CASEx)",
	PCBitBranch:  "Bit branches",
	PCProc:       "Procedure call and return",
	PCSystem:     "System branches (CHMx, REI)",
}

func (c PCClass) String() string {
	if c < 0 || int(c) >= len(pcClassNames) {
		return fmt.Sprintf("PCClass(%d)", int(c))
	}
	return pcClassNames[c]
}

// ExecFlow identifies the microcode execute flow an opcode dispatches to.
// Distinct opcodes sharing one flow models the paper's "microcode sharing"
// limitation: the UPC histogram cannot tell the sharers apart.
type ExecFlow int

// Execute flows. The urom package defines one microroutine per flow.
const (
	FlowMove     ExecFlow = iota
	FlowMoveAddr          // MOVAx/PUSHAx: address move
	FlowArith             // integer add/subtract/inc/dec (ALU op selected by hardware)
	FlowExtArith          // ADWC/SBWC/ASHL and friends
	FlowBool              // BIS/BIC/XOR/BIT/MCOM
	FlowCmpTst            // CMP/TST
	FlowCvt               // integer conversions, MOVZxx
	FlowPush              // PUSHL
	FlowCondBr            // conditional branches + BRB/BRW (shared)
	FlowLoopBr            // SOB/AOB/ACB
	FlowLowBitBr          // BLBS/BLBC
	FlowBsbRsb            // BSBB/BSBW/JSB/RSB
	FlowJmp               // JMP
	FlowCase              // CASEx
	FlowFieldExt          // EXTV/EXTZV/CMPV/CMPZV/FFS/FFC
	FlowFieldIns          // INSV
	FlowBitBr             // BBS/BBC/BBxx
	FlowFloatAdd          // ADDF/SUBF/CMPF/MOVF/TSTF (+D variants)
	FlowFloatMul          // MULF/DIVF (+D)
	FlowIntMul            // MULL/EMUL
	FlowIntDiv            // DIVL/EDIV
	FlowCall              // CALLG/CALLS
	FlowRet               // RET
	FlowPushr             // PUSHR
	FlowPopr              // POPR
	FlowChm               // CHMK/CHME/CHMS/CHMU
	FlowRei               // REI
	FlowSvpctx            // SVPCTX
	FlowLdpctx            // LDPCTX
	FlowProbe             // PROBER/PROBEW
	FlowQueue             // INSQUE/REMQUE
	FlowMxpr              // MTPR/MFPR
	FlowPsl               // MOVPSL/BISPSW/BICPSW
	FlowNop               // NOP/HALT
	FlowMovc              // MOVC3/MOVC5/MOVTC
	FlowCmpc              // CMPC3/CMPC5/MATCHC
	FlowLocc              // LOCC/SKPC/SCANC/SPANC
	FlowDecAdd            // ADDP4/ADDP6/SUBP4/SUBP6/CMPP3/CMPP4
	FlowDecMul            // MULP/DIVP
	FlowDecCvt            // CVTLP/CVTPL/CVTPT/CVTTP/MOVP/ASHP
	FlowDecEdit           // EDITPC
	NumExecFlows
)

// SpecTemplate describes one operand specifier slot of an opcode: how the
// operand is accessed and its data type.
type SpecTemplate struct {
	Access Access
	Type   DataType
}

// OpInfo is the static description of one opcode.
type OpInfo struct {
	Name  string
	Group Group
	// Specs lists the operand specifier slots, in I-stream order. Branch
	// displacements are NOT specifiers (paper §3.2) and are described by
	// BranchDispSize instead.
	Specs []SpecTemplate
	// BranchDispSize is 0 (no branch displacement), 1 or 2 bytes.
	BranchDispSize int
	PCClass        PCClass
	Flow           ExecFlow
}

// Opcode is a one-byte VAX opcode.
type Opcode byte

// Info returns the static description of the opcode, or nil if the opcode
// is not part of the modelled subset.
func (op Opcode) Info() *OpInfo {
	return opTable[op]
}

// Valid reports whether the opcode is part of the modelled subset.
func (op Opcode) Valid() bool { return opTable[op] != nil }

func (op Opcode) String() string {
	if info := opTable[op]; info != nil {
		return info.Name
	}
	return fmt.Sprintf("op%02X", byte(op))
}

// Specifier is the runtime form of one operand specifier in an executed
// instruction: the addressing mode plus everything the simulator needs to
// reproduce its memory behaviour. A generated trace holds millions of
// them, so the small fields are signed bytes, packed ahead of the words
// (16 bytes in all). They stay signed: gob will not decode a signed wire
// integer, which is how trace files written when they were ints carry
// them, into an unsigned field.
type Specifier struct {
	Mode      AddrMode
	Reg       int8  // base register, 0..14 (R15=PC is expressed via the PC modes)
	Index     int8  // index register if indexed addressing; -1 when not indexed
	Unaligned bool  // operand crosses a longword boundary
	Disp      int32 // displacement (disp modes), literal value, or immediate value
	// Addr is the effective virtual address for memory modes. For deferred
	// modes it is the FINAL operand address; the pointer fetched during
	// indirection lives at PtrAddr.
	Addr    uint32
	PtrAddr uint32 // address of the pointer for deferred modes
}

// Indexed reports whether the specifier uses index mode.
func (s *Specifier) Indexed() bool { return s.Index >= 0 }

// Instr is one executed instruction in a workload trace: the architectural
// instruction plus the runtime facts (branch outcome, operand sizes) that
// drive data-dependent microcode loops. The fields every dispatch reads
// come first and the record packs into 72 bytes.
type Instr struct {
	Specs []Specifier // runtime specifiers, matching Info().Specs

	PC uint32 // VA of the opcode byte

	// Branch displacement and outcome for PC-changing instructions.
	Target     uint32 // VA executed next if Taken
	BranchDisp int32

	Op    Opcode
	Taken bool // whether the PC actually changed

	// SIRR marks an MTPR whose destination is the software interrupt
	// request register; the microcode branches to a distinct location for
	// it, which is how the paper's Table 7 counts software-interrupt
	// requests.
	SIRR bool

	// Data-dependent loop drivers.
	RegCount int // registers moved by CALL/RET/PUSHR/POPR (mask popcount)
	StrLen   int // string length in bytes for CHARACTER instructions
	Digits   int // digit count for DECIMAL instructions
	FieldLen int // bit-field length for FIELD instructions
}

// Info returns the opcode's static description.
func (in *Instr) Info() *OpInfo { return in.Op.Info() }

// Size returns the encoded length of the instruction in bytes.
func (in *Instr) Size() int {
	n := 1 // opcode byte
	for i := range in.Specs {
		n += SpecSize(&in.Specs[i], in.specType(i))
	}
	n += in.Info().BranchDispSize
	return n
}

// specType returns the data type of specifier slot i.
func (in *Instr) specType(i int) DataType {
	info := in.Info()
	if i < len(info.Specs) {
		return info.Specs[i].Type
	}
	return TypeLong
}

// NextPC returns the VA of the next instruction executed after this one.
func (in *Instr) NextPC() uint32 {
	if in.Taken {
		return in.Target
	}
	return in.PC + uint32(in.Size())
}
