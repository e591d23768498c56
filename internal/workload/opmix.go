package workload

import (
	"math/rand"

	"vax780/internal/vax"
)

// ModeDist is an operand specifier addressing-mode distribution; the
// weights follow Table 4 of the paper (SPEC1 and SPEC2-6 differ).
type ModeDist struct {
	Register   float64
	Literal    float64
	Immediate  float64
	Disp       float64 // all displacement widths
	RegDef     float64
	AutoInc    float64
	AutoDec    float64
	DispDef    float64
	Absolute   float64
	AutoIncDef float64
}

// Spec1Table4 is the first-specifier mode distribution of Table 4.
func Spec1Table4() ModeDist {
	return ModeDist{
		Register: 28.7, Literal: 21.1, Immediate: 3.2, Disp: 25.0,
		RegDef: 9.5, AutoInc: 6.0, AutoDec: 2.0, DispDef: 3.0,
		Absolute: 1.0, AutoIncDef: 0.5,
	}
}

// SpecNTable4 is the specifier 2-6 mode distribution of Table 4.
func SpecNTable4() ModeDist {
	return ModeDist{
		Register: 52.6, Literal: 10.8, Immediate: 1.7, Disp: 12.6,
		RegDef: 8.5, AutoInc: 5.4, AutoDec: 2.4, DispDef: 3.4,
		Absolute: 2.2, AutoIncDef: 0.5,
	}
}

// dispWidths selects among byte/word/long displacements; reference [15]
// of the paper: byte most often, longword less often, word least.
var dispWidths = []struct {
	mode vax.AddrMode
	w    float64
}{
	{vax.ModeByteDisp, 0.55},
	{vax.ModeLongDisp, 0.27},
	{vax.ModeWordDisp, 0.18},
}

// modeOrder is the order a mode table lists (and draws) its entries:
// the ModeDist fields in declaration order. The displacement entries
// stand for all widths and are refined by sampleDispWidth.
var modeOrder = [...]vax.AddrMode{
	vax.ModeRegister,
	vax.ModeLiteral,
	vax.ModeImmediate,
	vax.ModeByteDisp,
	vax.ModeRegDeferred,
	vax.ModeAutoIncrement,
	vax.ModeAutoDecrement,
	vax.ModeByteDispDeferred,
	vax.ModeAbsolute,
	vax.ModeAutoIncDeferred,
}

// modeTable is a ModeDist with the constraints of one operand slot
// applied: a weight per modeOrder entry (zero where the slot forbids
// the mode) and their total.
type modeTable struct {
	w     [len(modeOrder)]float64
	total float64
}

// modeTables holds a ModeDist's table for every operand access and
// data type, by value, so a generator builds them once and carries no
// pointers to them.
type modeTables [vax.AccVField + 1][vax.TypeDFloat + 1]modeTable

// tables applies each operand slot's access constraints to the
// distribution: literals and immediates are read-only data; address
// operands must be in memory; wide immediates do not fit the IB. A
// table's total sums its entries in modeOrder, forbidden ones as zeros.
func (md *ModeDist) tables() (t modeTables) {
	w := [len(modeOrder)]float64{
		md.Register, md.Literal, md.Immediate, md.Disp, md.RegDef,
		md.AutoInc, md.AutoDec, md.DispDef, md.Absolute, md.AutoIncDef,
	}
	for acc := range t {
		writeLike := acc == int(vax.AccWrite) || acc == int(vax.AccModify)
		addrLike := acc == int(vax.AccAddress)
		noLit := writeLike || addrLike || acc == int(vax.AccVField)
		for typ := range t[acc] {
			wideImm := typ == int(vax.TypeQuad) || typ == int(vax.TypeDFloat)
			tab := &t[acc][typ]
			for i, m := range modeOrder {
				lit := m == vax.ModeLiteral || m == vax.ModeImmediate
				if !(noLit && lit || addrLike && m == vax.ModeRegister ||
					wideImm && m == vax.ModeImmediate) {
					tab.w[i] = w[i]
				}
				tab.total += tab.w[i]
			}
		}
	}
	return t
}

// sample draws an addressing mode from the table.
func (tab *modeTable) sample(rng *rand.Rand) vax.AddrMode {
	x := rng.Float64() * tab.total
	for i, w := range tab.w {
		x -= w
		if x <= 0 {
			switch m := modeOrder[i]; m {
			case vax.ModeByteDisp:
				return sampleDispWidth(rng, false)
			case vax.ModeByteDispDeferred:
				return sampleDispWidth(rng, true)
			default:
				return m
			}
		}
	}
	return vax.ModeRegister
}

func sampleDispWidth(rng *rand.Rand, deferred bool) vax.AddrMode {
	x := rng.Float64()
	for _, dw := range dispWidths {
		x -= dw.w
		if x <= 0 {
			if deferred {
				switch dw.mode {
				case vax.ModeByteDisp:
					return vax.ModeByteDispDeferred
				case vax.ModeWordDisp:
					return vax.ModeWordDispDeferred
				default:
					return vax.ModeLongDispDeferred
				}
			}
			return dw.mode
		}
	}
	if deferred {
		return vax.ModeByteDispDeferred
	}
	return vax.ModeByteDisp
}

// weightedOp is an opcode with a relative frequency weight.
type weightedOp struct {
	op vax.Opcode
	w  float64
}

// opSampler draws opcodes from a weighted set.
type opSampler struct {
	ops   []weightedOp
	total float64
}

func newOpSampler(ops []weightedOp) *opSampler {
	s := &opSampler{ops: ops}
	for _, o := range ops {
		s.total += o.w
	}
	return s
}

func (s *opSampler) sample(rng *rand.Rand) vax.Opcode {
	x := rng.Float64() * s.total
	for _, o := range s.ops {
		x -= o.w
		if x <= 0 {
			return o.op
		}
	}
	return s.ops[len(s.ops)-1].op
}

// Opcode samplers by category, built once. The weights within a
// category are arbitrary (the histogram cannot distinguish sharers
// anyway); the weights ACROSS categories are set per profile.
var (
	movesOps = newOpSampler([]weightedOp{
		{vax.MOVL, 55}, {vax.MOVB, 12}, {vax.MOVW, 8}, {vax.MOVQ, 2},
		{vax.CLRL, 12}, {vax.CLRB, 3}, {vax.CLRW, 2}, {vax.CLRQ, 0.5},
		{vax.MOVPSL, 0.3},
	})
	arithOps = newOpSampler([]weightedOp{
		{vax.ADDL2, 22}, {vax.ADDL3, 10}, {vax.SUBL2, 14}, {vax.SUBL3, 6},
		{vax.INCL, 16}, {vax.DECL, 10}, {vax.ADDB2, 3}, {vax.SUBB2, 2},
		{vax.ADDW2, 2}, {vax.SUBW2, 1}, {vax.INCW, 2}, {vax.DECW, 1},
		{vax.INCB, 2}, {vax.DECB, 1}, {vax.MNEGL, 2},
		{vax.ADWC, 0.5}, {vax.SBWC, 0.5}, {vax.ASHL, 3},
	})
	boolOps = newOpSampler([]weightedOp{
		{vax.BISL2, 8}, {vax.BISL3, 2}, {vax.BICL2, 6}, {vax.BICL3, 2},
		{vax.BICB2, 2}, {vax.XORL2, 2}, {vax.XORL3, 1}, {vax.MCOML, 1},
		{vax.BITL, 4}, {vax.BITB, 3},
	})
	cmpOps = newOpSampler([]weightedOp{
		{vax.CMPL, 16}, {vax.CMPB, 8}, {vax.CMPW, 4},
		{vax.TSTL, 14}, {vax.TSTB, 5}, {vax.TSTW, 2},
	})
	cvtOps = newOpSampler([]weightedOp{
		{vax.MOVZBL, 6}, {vax.MOVZWL, 4}, {vax.CVTBL, 2}, {vax.CVTWL, 2},
		{vax.CVTLB, 1}, {vax.CVTLW, 1}, {vax.CVTWB, 0.5},
	})
	pushOps     = newOpSampler([]weightedOp{{vax.PUSHL, 1}})
	moveAddrOps = newOpSampler([]weightedOp{
		{vax.MOVAL, 4}, {vax.MOVAB, 3}, {vax.PUSHAL, 2}, {vax.PUSHAB, 2},
	})
	condBrOps = newOpSampler([]weightedOp{
		{vax.BEQL, 24}, {vax.BNEQ, 22}, {vax.BGTR, 8}, {vax.BLEQ, 7},
		{vax.BGEQ, 9}, {vax.BLSS, 8}, {vax.BGTRU, 3}, {vax.BLEQU, 2},
		{vax.BVC, 0.5}, {vax.BVS, 0.5}, {vax.BCC, 3}, {vax.BCS, 3},
		{vax.BRB, 7}, {vax.BRW, 3},
	})
	loopBrOps = newOpSampler([]weightedOp{
		{vax.SOBGTR, 35}, {vax.SOBGEQ, 15}, {vax.AOBLSS, 30},
		{vax.AOBLEQ, 10}, {vax.ACBL, 8}, {vax.ACBW, 2},
	})
	fieldOps = newOpSampler([]weightedOp{
		{vax.EXTZV, 30}, {vax.EXTV, 20}, {vax.INSV, 20},
		{vax.FFS, 6}, {vax.FFC, 3}, {vax.CMPV, 3}, {vax.CMPZV, 3},
	})
	bitBrOps = newOpSampler([]weightedOp{
		{vax.BBS, 28}, {vax.BBC, 26}, {vax.BBSS, 18}, {vax.BBCC, 14},
		{vax.BBCS, 7}, {vax.BBSC, 7},
	})
	floatOps = newOpSampler([]weightedOp{
		{vax.ADDF2, 16}, {vax.ADDF3, 8}, {vax.SUBF2, 10}, {vax.SUBF3, 4},
		{vax.MOVF, 18}, {vax.CMPF, 8}, {vax.TSTF, 4},
		{vax.CVTLF, 5}, {vax.CVTFL, 5},
		{vax.ADDD2, 3}, {vax.SUBD2, 2}, {vax.MOVD, 3}, {vax.CMPD, 1},
	})
	floatMulOps = newOpSampler([]weightedOp{
		{vax.MULF2, 10}, {vax.MULF3, 6}, {vax.DIVF2, 4}, {vax.DIVF3, 2},
		{vax.MULD2, 2}, {vax.DIVD2, 1},
	})
	intMulDivOps = newOpSampler([]weightedOp{
		{vax.MULL2, 10}, {vax.MULL3, 6}, {vax.DIVL2, 4}, {vax.DIVL3, 3},
		{vax.EMUL, 1}, {vax.EDIV, 1},
	})
	charOps = newOpSampler([]weightedOp{
		{vax.MOVC3, 45}, {vax.MOVC5, 18}, {vax.CMPC3, 10}, {vax.CMPC5, 4},
		{vax.LOCC, 12}, {vax.SKPC, 4}, {vax.SCANC, 4}, {vax.SPANC, 2},
		{vax.MOVTC, 1},
	})
	decimalOps = newOpSampler([]weightedOp{
		{vax.ADDP4, 20}, {vax.ADDP6, 8}, {vax.SUBP4, 12}, {vax.SUBP6, 4},
		{vax.CMPP3, 8}, {vax.CMPP4, 4}, {vax.MOVP, 16},
		{vax.CVTLP, 8}, {vax.CVTPL, 8}, {vax.CVTPT, 3}, {vax.CVTTP, 2},
		{vax.MULP, 3}, {vax.DIVP, 2}, {vax.ASHP, 2}, {vax.EDITPC, 1},
	})
	kernelOps = newOpSampler([]weightedOp{
		{vax.MTPR, 20}, {vax.MFPR, 14}, {vax.INSQUE, 8}, {vax.REMQUE, 7},
		{vax.PROBER, 6}, {vax.PROBEW, 3},
	})
)
