package vax

import "errors"

// ErrShort is returned by the incremental decoders when the supplied bytes
// do not contain a complete opcode/specifier/displacement. The I-Decode
// stage turns this condition into an IB-stall dispatch.
var ErrShort = errors.New("vax: insufficient bytes to decode")

// ErrBadOpcode is returned when the first byte is not a modelled opcode.
var ErrBadOpcode = errors.New("vax: unknown opcode")

// errIllegalIndexBase marks an index prefix whose base mode is a reserved
// addressing mode fault on the real machine (literal, register or
// immediate bases cannot be indexed).
var errIllegalIndexBase = errors.New("vax: illegal indexed base mode")

// errWideImmediate marks an immediate operand wider than a longword,
// which is outside the modelled subset (it would not fit the IB).
var errWideImmediate = errors.New("vax: immediate wider than a longword unsupported")

// DecodedSpec is the result of decoding one operand specifier from the
// I-stream.
type DecodedSpec struct {
	Mode  AddrMode
	Reg   int
	Index int   // -1 when not indexed
	Disp  int32 // displacement, short literal value, or immediate value
	Len   int   // total I-stream bytes consumed, including index prefix
}

// DecodeOpcode decodes the opcode at buf[0]. It returns ErrShort for an
// empty buffer and ErrBadOpcode for bytes outside the modelled subset.
func DecodeOpcode(buf []byte) (Opcode, error) {
	if len(buf) < 1 {
		return 0, ErrShort
	}
	op := Opcode(buf[0])
	if !op.Valid() {
		return op, ErrBadOpcode
	}
	return op, nil
}

// DecodeSpec decodes one operand specifier of data type t from the front
// of buf. It returns ErrShort when buf is too short — the caller (the
// I-Decode stage) treats that as insufficient bytes in the IB.
func DecodeSpec(buf []byte, t DataType) (DecodedSpec, error) {
	ds := DecodedSpec{Index: -1}
	if len(buf) < 1 {
		return ds, ErrShort
	}
	b := buf[0]
	n := 1
	if b>>4 == 0x4 { // index prefix
		ds.Index = int(b & 0xF)
		if len(buf) < 2 {
			return ds, ErrShort
		}
		b = buf[1]
		n = 2
		// The base of an indexed specifier must itself reference memory:
		// literal (0x0-0x3), register (0x5), immediate (0x8F) and a
		// second index prefix (0x4) are reserved addressing mode faults.
		switch {
		case b>>4 <= 0x3:
			return ds, errIllegalIndexBase
		case b>>4 == 0x5:
			return ds, errIllegalIndexBase
		case b == 0x8F:
			return ds, errIllegalIndexBase
		}
	}
	reg := int(b & 0xF)
	switch b >> 4 {
	case 0x0, 0x1, 0x2, 0x3: // short literal
		ds.Mode = ModeLiteral
		ds.Disp = int32(b & 0x3F)
	case 0x4:
		return ds, errors.New("vax: double index prefix")
	case 0x5:
		ds.Mode, ds.Reg = ModeRegister, reg
	case 0x6:
		ds.Mode, ds.Reg = ModeRegDeferred, reg
	case 0x7:
		ds.Mode, ds.Reg = ModeAutoDecrement, reg
	case 0x8:
		if reg == pcReg {
			ds.Mode = ModeImmediate
			sz := t.Size()
			if sz > 4 {
				// A quad/double immediate is a 9-byte specifier — wider
				// than the 8-byte IB, so the 11/780 model cannot decode
				// it in one request; the subset excludes it.
				return ds, errWideImmediate
			}
			if len(buf) < n+sz {
				return ds, ErrShort
			}
			var v uint32
			for i := 0; i < sz; i++ {
				v |= uint32(buf[n+i]) << (8 * i)
			}
			ds.Disp = int32(v)
			n += sz
		} else {
			ds.Mode, ds.Reg = ModeAutoIncrement, reg
		}
	case 0x9:
		if reg == pcReg {
			ds.Mode = ModeAbsolute
			if len(buf) < n+4 {
				return ds, ErrShort
			}
			ds.Disp = int32(uint32(buf[n]) | uint32(buf[n+1])<<8 |
				uint32(buf[n+2])<<16 | uint32(buf[n+3])<<24)
			n += 4
		} else {
			ds.Mode, ds.Reg = ModeAutoIncDeferred, reg
		}
	case 0xA, 0xB:
		if b>>4 == 0xA {
			ds.Mode = ModeByteDisp
		} else {
			ds.Mode = ModeByteDispDeferred
		}
		ds.Reg = reg
		if len(buf) < n+1 {
			return ds, ErrShort
		}
		ds.Disp = int32(int8(buf[n]))
		n++
	case 0xC, 0xD:
		if b>>4 == 0xC {
			ds.Mode = ModeWordDisp
		} else {
			ds.Mode = ModeWordDispDeferred
		}
		ds.Reg = reg
		if len(buf) < n+2 {
			return ds, ErrShort
		}
		ds.Disp = int32(int16(uint16(buf[n]) | uint16(buf[n+1])<<8))
		n += 2
	case 0xE, 0xF:
		if b>>4 == 0xE {
			ds.Mode = ModeLongDisp
		} else {
			ds.Mode = ModeLongDispDeferred
		}
		ds.Reg = reg
		if len(buf) < n+4 {
			return ds, ErrShort
		}
		ds.Disp = int32(uint32(buf[n]) | uint32(buf[n+1])<<8 |
			uint32(buf[n+2])<<16 | uint32(buf[n+3])<<24)
		n += 4
	}
	ds.Len = n
	return ds, nil
}

// DecodeBranchDisp decodes a branch displacement of size 1 or 2 bytes.
func DecodeBranchDisp(buf []byte, size int) (int32, error) {
	if len(buf) < size {
		return 0, ErrShort
	}
	switch size {
	case 1:
		return int32(int8(buf[0])), nil
	case 2:
		return int32(int16(uint16(buf[0]) | uint16(buf[1])<<8)), nil
	}
	return 0, errors.New("vax: bad branch displacement size")
}

// Decode decodes a complete instruction from the front of buf, returning
// the reconstructed Instr (without runtime-only fields such as effective
// addresses) and the number of bytes consumed. It is the offline
// counterpart of the incremental IBox path and is used by tests and the
// trace-driven baseline.
func Decode(buf []byte) (*Instr, int, error) {
	op, err := DecodeOpcode(buf)
	if err != nil {
		return nil, 0, err
	}
	info := op.Info()
	in := &Instr{Op: op}
	n := 1
	for i := range info.Specs {
		ds, err := DecodeSpec(buf[n:], info.Specs[i].Type)
		if err != nil {
			return nil, n, err
		}
		sp := Specifier{
			Mode:  ds.Mode,
			Reg:   int8(ds.Reg),
			Index: int8(ds.Index),
			Disp:  ds.Disp,
		}
		if ds.Mode == ModeAbsolute {
			// The I-stream longword of an absolute specifier IS the
			// operand address; mirror the encoder's source field.
			sp.Addr = uint32(ds.Disp)
		}
		in.Specs = append(in.Specs, sp)
		n += ds.Len
	}
	if info.BranchDispSize > 0 {
		d, err := DecodeBranchDisp(buf[n:], info.BranchDispSize)
		if err != nil {
			return nil, n, err
		}
		in.BranchDisp = d
		n += info.BranchDispSize
	}
	return in, n, nil
}
