package vax

import "fmt"

// Specifier byte encodings use a mode nibble (high) and register nibble
// (low), per the VAX Architecture Reference Manual. PC is register 15;
// autoincrement on PC is immediate mode and autoincrement-deferred on PC is
// absolute mode.
const pcReg = 15

// SpecSize returns the encoded length in bytes of a runtime specifier of
// data type t, including the index prefix byte when present: exactly the
// bytes Encode emits for it. Instr.Size and the EBOX's specifier dispatch
// both measure specifiers with it.
func SpecSize(s *Specifier, t DataType) int {
	n := 0
	if s.Indexed() {
		n++ // index prefix byte
	}
	switch s.Mode {
	case ModeLiteral, ModeRegister, ModeRegDeferred, ModeAutoDecrement,
		ModeAutoIncrement, ModeAutoIncDeferred:
		n++
	case ModeImmediate:
		n += 1 + t.Size()
	case ModeAbsolute:
		n += 1 + 4
	case ModeByteDisp, ModeByteDispDeferred:
		n += 2
	case ModeWordDisp, ModeWordDispDeferred:
		n += 3
	case ModeLongDisp, ModeLongDispDeferred:
		n += 5
	default:
		panic(fmt.Sprintf("vax: SpecSize: bad mode %v", s.Mode))
	}
	return n
}

// Encode appends the native byte encoding of in to dst and returns the
// extended slice. The encoding is: opcode byte, one encoded specifier per
// runtime specifier, then the branch displacement if the opcode has one.
func Encode(dst []byte, in *Instr) []byte {
	info := in.Info()
	if info == nil {
		panic(fmt.Sprintf("vax: Encode: invalid opcode %02X", byte(in.Op)))
	}
	dst = append(dst, byte(in.Op))
	for i := range in.Specs {
		dst = encodeSpec(dst, &in.Specs[i], in.specType(i))
	}
	switch info.BranchDispSize {
	case 1:
		dst = append(dst, byte(int8(in.BranchDisp)))
	case 2:
		dst = append(dst, byte(in.BranchDisp), byte(in.BranchDisp>>8))
	}
	return dst
}

func encodeSpec(dst []byte, s *Specifier, t DataType) []byte {
	if s.Indexed() {
		if s.Mode == ModeLiteral || s.Mode == ModeRegister || s.Mode == ModeImmediate {
			panic("vax: encodeSpec: mode cannot be indexed: " + s.Mode.String())
		}
		dst = append(dst, 0x40|byte(s.Index&0xF))
	}
	reg := byte(s.Reg & 0xF)
	switch s.Mode {
	case ModeLiteral:
		dst = append(dst, byte(s.Disp&0x3F))
	case ModeRegister:
		dst = append(dst, 0x50|reg)
	case ModeRegDeferred:
		dst = append(dst, 0x60|reg)
	case ModeAutoDecrement:
		dst = append(dst, 0x70|reg)
	case ModeAutoIncrement:
		dst = append(dst, 0x80|reg)
	case ModeImmediate:
		dst = append(dst, 0x80|pcReg)
		v := uint32(s.Disp)
		for i := 0; i < t.Size(); i++ {
			if i < 4 {
				dst = append(dst, byte(v>>(8*i)))
			} else {
				dst = append(dst, 0)
			}
		}
	case ModeAutoIncDeferred:
		dst = append(dst, 0x90|reg)
	case ModeAbsolute:
		dst = append(dst, 0x90|pcReg)
		v := s.Addr
		dst = append(dst, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	case ModeByteDisp:
		dst = append(dst, 0xA0|reg, byte(int8(s.Disp)))
	case ModeByteDispDeferred:
		dst = append(dst, 0xB0|reg, byte(int8(s.Disp)))
	case ModeWordDisp:
		dst = append(dst, 0xC0|reg, byte(s.Disp), byte(s.Disp>>8))
	case ModeWordDispDeferred:
		dst = append(dst, 0xD0|reg, byte(s.Disp), byte(s.Disp>>8))
	case ModeLongDisp:
		dst = append(dst, 0xE0|reg, byte(s.Disp), byte(s.Disp>>8), byte(s.Disp>>16), byte(s.Disp>>24))
	case ModeLongDispDeferred:
		dst = append(dst, 0xF0|reg, byte(s.Disp), byte(s.Disp>>8), byte(s.Disp>>16), byte(s.Disp>>24))
	default:
		panic(fmt.Sprintf("vax: encodeSpec: bad mode %v", s.Mode))
	}
	return dst
}

// DispSize returns the number of displacement bytes a specifier of the
// given mode carries in the I-stream (0 for modes without displacement;
// immediate/absolute data bytes count as displacement bytes here because
// they are I-stream bytes consumed during specifier evaluation).
func DispSize(m AddrMode, t DataType) int {
	switch m {
	case ModeImmediate:
		return t.Size()
	case ModeAbsolute, ModeLongDisp, ModeLongDispDeferred:
		return 4
	case ModeWordDisp, ModeWordDispDeferred:
		return 2
	case ModeByteDisp, ModeByteDispDeferred:
		return 1
	}
	return 0
}
