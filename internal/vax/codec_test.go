package vax

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	cases := []*Instr{
		{Op: NOP},
		{Op: RSB},
		{Op: MOVL, Specs: []Specifier{
			{Mode: ModeRegister, Reg: 1, Index: -1},
			{Mode: ModeRegister, Reg: 2, Index: -1},
		}},
		{Op: MOVL, Specs: []Specifier{
			{Mode: ModeLiteral, Disp: 42, Index: -1},
			{Mode: ModeByteDisp, Reg: 3, Disp: -8, Index: -1},
		}},
		{Op: ADDL3, Specs: []Specifier{
			{Mode: ModeWordDisp, Reg: 4, Disp: 1024, Index: -1},
			{Mode: ModeLongDisp, Reg: 5, Disp: -100000, Index: -1},
			{Mode: ModeRegister, Reg: 6, Index: -1},
		}},
		{Op: MOVL, Specs: []Specifier{
			{Mode: ModeImmediate, Disp: -7, Index: -1},
			{Mode: ModeAutoIncrement, Reg: 7, Index: -1},
		}},
		{Op: MOVB, Specs: []Specifier{
			{Mode: ModeAbsolute, Addr: 0x8000_1234, Index: -1},
			{Mode: ModeAutoDecrement, Reg: 8, Index: -1},
		}},
		{Op: MOVL, Specs: []Specifier{
			{Mode: ModeByteDispDeferred, Reg: 9, Disp: 12, Index: 2},
			{Mode: ModeRegister, Reg: 0, Index: -1},
		}},
		{Op: BEQL, BranchDisp: -14},
		{Op: BRW, BranchDisp: 4000},
		{Op: SOBGTR, Specs: []Specifier{
			{Mode: ModeRegister, Reg: 10, Index: -1},
		}, BranchDisp: -20},
		{Op: CALLS, Specs: []Specifier{
			{Mode: ModeLiteral, Disp: 3, Index: -1},
			{Mode: ModeLongDisp, Reg: 11, Disp: 0x4000, Index: -1},
		}},
		{Op: MOVC3, Specs: []Specifier{
			{Mode: ModeLiteral, Disp: 40, Index: -1},
			{Mode: ModeRegDeferred, Reg: 1, Index: -1},
			{Mode: ModeRegDeferred, Reg: 2, Index: -1},
		}},
	}
	for _, in := range cases {
		buf := Encode(nil, in)
		if len(buf) != in.Size() {
			t.Errorf("%s: Encode produced %d bytes, Size() says %d", in.Op, len(buf), in.Size())
		}
		out, n, err := Decode(buf)
		if err != nil {
			t.Errorf("%s: Decode error: %v", in.Op, err)
			continue
		}
		if n != len(buf) {
			t.Errorf("%s: Decode consumed %d of %d bytes", in.Op, n, len(buf))
		}
		if out.Op != in.Op {
			t.Errorf("opcode mismatch: got %s want %s", out.Op, in.Op)
		}
		if out.BranchDisp != in.BranchDisp {
			t.Errorf("%s: branch disp %d, want %d", in.Op, out.BranchDisp, in.BranchDisp)
		}
		for i := range in.Specs {
			got, want := out.Specs[i], in.Specs[i]
			if got.Mode != want.Mode || got.Reg != want.Reg || got.Index != want.Index {
				t.Errorf("%s spec %d: got %+v want %+v", in.Op, i, got, want)
			}
			if want.Mode != ModeAbsolute && got.Disp != want.Disp {
				t.Errorf("%s spec %d: disp %d want %d", in.Op, i, got.Disp, want.Disp)
			}
			if want.Mode == ModeAbsolute && got.Addr != want.Addr {
				t.Errorf("%s spec %d: addr %#x want %#x", in.Op, i, got.Addr, want.Addr)
			}
		}
	}
}

func TestDecodeShortBuffers(t *testing.T) {
	in := &Instr{Op: ADDL3, Specs: []Specifier{
		{Mode: ModeWordDisp, Reg: 4, Disp: 1024, Index: -1},
		{Mode: ModeLongDisp, Reg: 5, Disp: -100000, Index: -1},
		{Mode: ModeRegister, Reg: 6, Index: -1},
	}}
	buf := Encode(nil, in)
	// Every strict prefix must fail with ErrShort, never panic.
	for i := 0; i < len(buf); i++ {
		if _, _, err := Decode(buf[:i]); err == nil {
			t.Errorf("Decode of %d-byte prefix succeeded; want error", i)
		}
	}
	if _, err := DecodeOpcode(nil); err != ErrShort {
		t.Errorf("DecodeOpcode(nil) = %v, want ErrShort", err)
	}
}

func TestDecodeBadOpcode(t *testing.T) {
	if _, _, err := Decode([]byte{0xFF}); err != ErrBadOpcode {
		t.Errorf("Decode(FF) err = %v, want ErrBadOpcode", err)
	}
}

func TestDecodeSpecIndexed(t *testing.T) {
	// 8(R3)[R4] for a longword operand.
	buf := []byte{0x44, 0xA3, 0x08}
	ds, err := DecodeSpec(buf, TypeLong)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Mode != ModeByteDisp || ds.Reg != 3 || ds.Index != 4 || ds.Disp != 8 || ds.Len != 3 {
		t.Errorf("got %+v", ds)
	}
}

func TestDecodeSpecDoubleIndexRejected(t *testing.T) {
	if _, err := DecodeSpec([]byte{0x44, 0x45, 0x50}, TypeLong); err == nil {
		t.Error("double index prefix should fail")
	}
}

func TestDecodeBranchDisp(t *testing.T) {
	if d, err := DecodeBranchDisp([]byte{0xF2}, 1); err != nil || d != -14 {
		t.Errorf("byte disp: %d, %v", d, err)
	}
	if d, err := DecodeBranchDisp([]byte{0xA0, 0x0F}, 2); err != nil || d != 0x0FA0 {
		t.Errorf("word disp: %d, %v", d, err)
	}
	if _, err := DecodeBranchDisp([]byte{1}, 2); err != ErrShort {
		t.Errorf("short word disp err = %v", err)
	}
	if _, err := DecodeBranchDisp([]byte{1, 2}, 3); err == nil {
		t.Error("size 3 should fail")
	}
}

// randomInstr builds a random but valid instruction for property testing.
func randomInstr(r *rand.Rand) *Instr {
	ops := Opcodes()
	op := ops[r.Intn(len(ops))]
	info := op.Info()
	in := &Instr{Op: op}
	for i := range info.Specs {
		in.Specs = append(in.Specs, randomSpec(r, i, info.Specs[i]))
	}
	if info.BranchDispSize == 1 {
		in.BranchDisp = int32(int8(r.Intn(256)))
	} else if info.BranchDispSize == 2 {
		in.BranchDisp = int32(int16(r.Intn(65536)))
	}
	return in
}

func randomSpec(r *rand.Rand, slot int, tmpl SpecTemplate) Specifier {
	modes := []AddrMode{
		ModeLiteral, ModeRegister, ModeRegDeferred, ModeAutoDecrement,
		ModeAutoIncrement, ModeImmediate, ModeAutoIncDeferred, ModeAbsolute,
		ModeByteDisp, ModeByteDispDeferred, ModeWordDisp,
		ModeWordDispDeferred, ModeLongDisp, ModeLongDispDeferred,
	}
	m := modes[r.Intn(len(modes))]
	// Write/modify/address operands cannot be literals or immediates, and
	// immediates wider than a longword are outside the subset.
	if tmpl.Access != AccRead && (m == ModeLiteral || m == ModeImmediate) {
		m = ModeRegister
	}
	if m == ModeImmediate && tmpl.Type.Size() > 4 {
		m = ModeRegister
	}
	s := Specifier{Mode: m, Reg: int8(r.Intn(15)), Index: -1}
	switch m {
	case ModeLiteral:
		s.Disp = int32(r.Intn(64))
	case ModeImmediate:
		s.Disp = r.Int31() - r.Int31()
	case ModeAbsolute:
		s.Addr = r.Uint32()
	case ModeByteDisp, ModeByteDispDeferred:
		s.Disp = int32(int8(r.Intn(256)))
	case ModeWordDisp, ModeWordDispDeferred:
		s.Disp = int32(int16(r.Intn(65536)))
	case ModeLongDisp, ModeLongDispDeferred:
		s.Disp = r.Int31() - r.Int31()
	}
	// Occasionally index a memory mode.
	if s.Mode.IsMemory() && s.Mode != ModeAbsolute && r.Intn(8) == 0 {
		s.Index = int8(r.Intn(15))
	}
	return s
}

// TestQuickRoundTrip is the core property test: for any valid instruction,
// Decode(Encode(x)) reconstructs the architectural fields and Size() equals
// the encoded length.
func TestQuickRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	f := func() bool {
		in := randomInstr(r)
		buf := Encode(nil, in)
		if len(buf) != in.Size() {
			t.Logf("%s: len=%d size=%d", in.Op, len(buf), in.Size())
			return false
		}
		out, n, err := Decode(buf)
		if err != nil || n != len(buf) {
			t.Logf("%s: decode err=%v n=%d len=%d", in.Op, err, n, len(buf))
			return false
		}
		if out.Op != in.Op || out.BranchDisp != in.BranchDisp {
			return false
		}
		for i := range in.Specs {
			g, w := out.Specs[i], in.Specs[i]
			if g.Mode != w.Mode || g.Reg != w.Reg && w.Mode != ModeLiteral && w.Mode != ModeImmediate && w.Mode != ModeAbsolute {
				t.Logf("%s spec %d: got %+v want %+v", in.Op, i, g, w)
				return false
			}
			if g.Index != w.Index {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestQuickDecodeNeverPanics feeds random garbage to the decoder.
func TestQuickDecodeNeverPanics(t *testing.T) {
	f := func(data []byte) bool {
		defer func() {
			if p := recover(); p != nil {
				t.Errorf("Decode panicked on %x: %v", data, p)
			}
		}()
		Decode(data)
		if len(data) > 0 {
			DecodeSpec(data, TypeLong)
			DecodeSpec(data, TypeByte)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestQuickSizeMatchesEncoding verifies Instr.Size against the encoder for
// random instructions (this is what Table 6 is computed from).
func TestQuickSizeMatchesEncoding(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 5000; i++ {
		in := randomInstr(r)
		if got, want := in.Size(), len(Encode(nil, in)); got != want {
			t.Fatalf("%s: Size=%d encoded=%d specs=%+v", in.Op, got, want, in.Specs)
		}
	}
}

func TestDispSize(t *testing.T) {
	cases := []struct {
		m    AddrMode
		t    DataType
		want int
	}{
		{ModeRegister, TypeLong, 0},
		{ModeLiteral, TypeLong, 0},
		{ModeByteDisp, TypeLong, 1},
		{ModeWordDisp, TypeLong, 2},
		{ModeLongDisp, TypeLong, 4},
		{ModeAbsolute, TypeByte, 4},
		{ModeImmediate, TypeByte, 1},
		{ModeImmediate, TypeLong, 4},
		{ModeImmediate, TypeDFloat, 8},
	}
	for _, c := range cases {
		if got := DispSize(c.m, c.t); got != c.want {
			t.Errorf("DispSize(%v,%v) = %d, want %d", c.m, c.t, got, c.want)
		}
	}
}
