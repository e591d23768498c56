package ufuse

// Compile/verify/audit coverage over the shipped control store: the
// plan must fuse exactly the ulint-proven segments, reject anything
// touching a scheduling word, and the audit must catch a tampered
// table (the property the vaxlint gate relies on).

import (
	"strings"
	"testing"

	"vax780/internal/ucode"
	"vax780/internal/ulint"
	"vax780/internal/urom"
)

// shipped returns the shipped ROM and its ulint-proven fusible
// segments in the compiler's plain form.
func shipped(t *testing.T) (*urom.ROM, []Segment) {
	t.Helper()
	rom := urom.Build()
	var segs []Segment
	for _, f := range ulint.NewFlowIndex(rom).Flows() {
		for _, s := range f.Segments {
			if s.Fusible {
				segs = append(segs, Segment{Start: s.Start, Len: s.Len})
			}
		}
	}
	if len(segs) == 0 {
		t.Fatal("shipped ROM proves no fusible segments")
	}
	return rom, segs
}

func TestCompileShippedROM(t *testing.T) {
	rom, segs := shipped(t)
	p, err := Compile(rom, segs)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if p.Superwords() == 0 {
		t.Fatal("plan has no superwords")
	}
	if p.FusedWords() < 2*p.Superwords() {
		t.Fatalf("FusedWords %d < 2×Superwords %d; every superword spans ≥ 2 words",
			p.FusedWords(), p.Superwords())
	}
	// Every table entry round-trips through Len, and addresses past the
	// image single-step.
	for a, l := range p.run {
		if got := p.Len(uint16(a)); got != int(l) {
			t.Fatalf("Len(%05o) = %d, want %d", a, got, l)
		}
	}
	if p.Len(uint16(rom.Image.Size())) != 0 {
		t.Error("Len past the control store must be 0")
	}
	if err := Audit(p, rom, segs); err != nil {
		t.Fatalf("Audit of the honest plan: %v", err)
	}
}

// TestVerifyRejects drives Compile with illegal segments built from
// real control-store words.
func TestVerifyRejects(t *testing.T) {
	rom, segs := shipped(t)
	img := rom.Image

	find := func(pred func(*ucode.MicroInst) bool) uint16 {
		for a := 0; a < img.Size(); a++ {
			if pred(img.At(uint16(a))) {
				return uint16(a)
			}
		}
		t.Fatal("no control-store word matches the predicate")
		return 0
	}

	cases := []struct {
		name string
		seg  Segment
		want string
	}{
		{"too short", Segment{Start: segs[0].Start, Len: 1}, "at least 2"},
		{"past the image", Segment{Start: uint16(img.Size() - 1), Len: 3}, "past the control store"},
		{"memory word", Segment{
			Start: find(func(mi *ucode.MicroInst) bool { return mi.Mem != ucode.MemNone }),
			Len:   2,
		}, "scheduling point"},
		{"branching interior", Segment{
			Start: find(func(mi *ucode.MicroInst) bool {
				return mi.Seq != ucode.SeqNext && mi.Mem == ucode.MemNone &&
					mi.Loop == ucode.LoopNone && !mi.IBStall
			}),
			Len: 2,
		}, "sequences"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Compile(rom, []Segment{tc.seg})
			if err == nil {
				t.Fatalf("Compile accepted illegal segment %+v", tc.seg)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestAuditCatchesTamper: a plan whose table was altered after compile
// — a length the analyzer never proved, or a superword rooted on a
// scheduling word — fails the audit.
func TestAuditCatchesTamper(t *testing.T) {
	rom, segs := shipped(t)
	p, err := Compile(rom, segs)
	if err != nil {
		t.Fatal(err)
	}

	// Stretch one proven superword a word past its proven length.
	var victim uint16
	for a, l := range p.run {
		if l != 0 {
			victim = uint16(a)
			break
		}
	}
	saved := p.run[victim]
	p.run[victim] = saved + 1
	if err := Audit(p, rom, segs); err == nil {
		t.Error("Audit accepted a stretched superword")
	}
	p.run[victim] = saved

	// Root a fake superword on a memory word.
	for a := 0; a < rom.Image.Size(); a++ {
		if rom.Image.At(uint16(a)).Mem != ucode.MemNone {
			if p.run[a] != 0 {
				t.Fatalf("plan fused a memory word at %05o", a)
			}
			p.run[a] = 2
			if err := Audit(p, rom, segs); err == nil {
				t.Error("Audit accepted a superword rooted on a memory word")
			}
			p.run[a] = 0
			break
		}
	}

	if err := Audit(p, rom, segs); err != nil {
		t.Fatalf("restored plan fails audit: %v", err)
	}
}

// TestReturnIntoSuperwordInterior: a conditional branch whose uret
// return site (mid.x) lands inside another flow's superword. The landing
// is legal without any return-site proof: the EBOX re-reads Len at
// every landing, and Len at mid.x is the shorter run the branch's own
// flow segments from there, verified word by word like every other.
// So Compile and Audit accept the store, exec.a keeps its 4-word
// superword, and a return to mid.x executes the verified 3-word run.
func TestReturnIntoSuperwordInterior(t *testing.T) {
	a := ucode.NewAssembler()
	a.Region(ucode.RegDecode)
	a.Label("ird").DecodeInstr("decode")
	a.Region(ucode.RegExecSimple)
	a.Label("exec.a").Compute(1, "w0")
	a.Label("mid.x").Compute(1, "w1: the foreign return site")
	a.Compute(1, "w2")
	a.End("w3")
	a.Label("exec.b").CondTaken("mid.x", "returns mid-segment")
	img, err := a.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	rom := &urom.ROM{Image: img, IRD: img.Addr("ird")}
	for op, entry := range []uint16{img.Addr("exec.a"), img.Addr("exec.b")} {
		rom.HasExecFlow[op] = true
		rom.ExecEntry[op] = entry
	}

	var segs []Segment
	for _, f := range ulint.NewFlowIndex(rom).Flows() {
		for _, s := range f.Segments {
			if s.Fusible {
				segs = append(segs, Segment{Start: s.Start, Len: s.Len})
			}
		}
	}
	p, err := Compile(rom, segs)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if err := Audit(p, rom, segs); err != nil {
		t.Fatalf("Audit: %v", err)
	}
	mid := img.Addr("mid.x")
	if err := verify(img, mid, 3); err != nil {
		t.Fatalf("the 3-word run from mid.x: %v", err)
	}
	if got := p.Len(mid); got != 3 {
		t.Errorf("Len(mid.x) = %d, want the verified 3-word run", got)
	}
	if got := p.Len(img.Addr("exec.a")); got != 4 {
		t.Errorf("Len(exec.a) = %d, want 4", got)
	}
}
