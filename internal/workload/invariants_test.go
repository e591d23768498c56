package workload

import (
	"fmt"
	"math/rand"
	"testing"

	"vax780/internal/vax"
)

// checkPCChain verifies the fundamental trace invariant: every executed
// instruction begins exactly where the previous control transfer said it
// would. This is the property that lets the machine run the trace with
// zero resyncs.
func checkPCChain(t *testing.T, tr *Trace) {
	t.Helper()
	expect := uint32(0)
	have := false
	violations := 0
	for i, it := range tr.Items {
		switch it.Kind {
		case KindInterrupt:
			expect = it.HandlerPC
			have = true
		case KindInstr:
			if have && it.In.PC != expect {
				violations++
				if violations <= 3 {
					t.Errorf("item %d: %s at %#x, expected PC %#x",
						i, it.In.Op, it.In.PC, expect)
				}
			}
			expect = it.In.NextPC()
			have = true
		}
	}
	if violations > 0 {
		t.Fatalf("%d PC-chain violations", violations)
	}
}

func TestPCChainInvariantAllProfiles(t *testing.T) {
	for _, p := range AllProfiles(8000) {
		tr, err := Generate(p)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		checkPCChain(t, tr)
	}
}

// TestPCChainInvariantRandomCustomProfiles fuzzes the generator's knob
// space: any custom profile must yield a consistent trace.
func TestPCChainInvariantRandomCustomProfiles(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for i := 0; i < 12; i++ {
		c := CustomConfig{
			Name:         "FUZZ",
			Seed:         int64(i * 7919),
			Instructions: 4000,
			Users:        1 + r.Intn(40),
			FloatScale:   r.Float64() * 4,
			CharScale:    r.Float64() * 8,
			DecimalScale: r.Float64() * 20,
			ProcScale:    r.Float64() * 3,
			SyscallScale: r.Float64() * 3,
			LoopScale:    r.Float64() * 2,
			IdleFraction: r.Float64() * 0.5,
			HotPages:     1 + r.Intn(32),
			ColdPages:    1 + r.Intn(600),
			ColdFrac:     r.Float64() * 0.4,
		}
		tr, err := Generate(Custom(c))
		if err != nil {
			t.Fatalf("fuzz %d (%+v): %v", i, c, err)
		}
		checkPCChain(t, tr)
		if tr.Instructions() < c.Instructions {
			t.Errorf("fuzz %d: only %d instructions", i, tr.Instructions())
		}
	}
}

// TestEncodingMatchesImageEverywhere re-verifies every single executed
// instruction's bytes against the materialized image (the strict
// machine's decode check, applied exhaustively offline).
func TestEncodingMatchesImageEverywhere(t *testing.T) {
	tr, err := Generate(TimesharingB(15000))
	if err != nil {
		t.Fatal(err)
	}
	for i, it := range tr.Items {
		if it.Kind != KindInstr {
			continue
		}
		enc := vax.Encode(nil, it.In)
		for j, want := range enc {
			got, ok := tr.Program.Byte(it.In.PC + uint32(j))
			if !ok || got != want {
				t.Fatalf("item %d (%s at %#x): byte %d = %#x,%v want %#x",
					i, it.In.Op, it.In.PC, j, got, ok, want)
			}
		}
	}
}

// TestTakenBranchesCarryTargets: every taken PC-changer must have a
// nonzero target the IB can redirect to.
func TestTakenBranchesCarryTargets(t *testing.T) {
	tr, err := Generate(RTECommercial(10000))
	if err != nil {
		t.Fatal(err)
	}
	for i, it := range tr.Items {
		if it.Kind != KindInstr || !it.In.Taken {
			continue
		}
		if it.In.Target == 0 {
			t.Fatalf("item %d: taken %s with zero target", i, it.In.Op)
		}
		if it.In.Info().PCClass == vax.PCNone {
			t.Fatalf("item %d: %s marked taken but not PC-changing", i, it.In.Op)
		}
	}
}

// TestLDPCTXAlwaysCarriesSwitchTarget: context switches must name the
// next process or the machine would switch to ASID 0.
func TestLDPCTXAlwaysCarriesSwitchTarget(t *testing.T) {
	p := TimesharingB(40000)
	p.CtxSwitchHeadway = 1500 // force plenty of switches
	tr, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	switches := 0
	for _, it := range tr.Items {
		if it.Kind == KindInstr && it.In.Op == vax.LDPCTX {
			switches++
			if it.SwitchTo == 0 {
				t.Fatal("LDPCTX without SwitchTo")
			}
		}
	}
	if switches < 5 {
		t.Fatalf("only %d context switches at a 1500-instruction headway", switches)
	}
}

// TestSeedRobustness guards the calibration against seed overfitting: the
// headline mix statistics must hold across seeds the calibration never
// saw.
func TestSeedRobustness(t *testing.T) {
	for _, seed := range []int64{111, 2222, 33333} {
		p := TimesharingA(30000)
		p.Seed = seed
		tr, err := Generate(p)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		checkPCChain(t, tr)
		var simple, total, pcChanging int
		sizeSum := 0
		for _, it := range tr.Items {
			if it.Kind != KindInstr {
				continue
			}
			total++
			sizeSum += it.In.Size()
			if it.In.Info().Group == vax.GroupSimple {
				simple++
			}
			if it.In.Info().PCClass != vax.PCNone {
				pcChanging++
			}
		}
		simplePct := 100 * float64(simple) / float64(total)
		if simplePct < 76 || simplePct > 90 {
			t.Errorf("seed %d: SIMPLE = %.1f%%", seed, simplePct)
		}
		pcPct := 100 * float64(pcChanging) / float64(total)
		if pcPct < 30 || pcPct > 50 {
			t.Errorf("seed %d: PC-changing = %.1f%%", seed, pcPct)
		}
		avgSize := float64(sizeSum) / float64(total)
		if avgSize < 3.2 || avgSize > 4.6 {
			t.Errorf("seed %d: avg size = %.2f bytes", seed, avgSize)
		}
	}
}

// TestEveryGeneratedInstructionValidates runs the architectural validator
// over every executed instruction of a composite-scale trace.
func TestEveryGeneratedInstructionValidates(t *testing.T) {
	for _, p := range AllProfiles(6000) {
		tr, err := Generate(p)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		for i, it := range tr.Items {
			if it.Kind != KindInstr {
				continue
			}
			if err := vax.Validate(it.In); err != nil {
				t.Fatalf("%s item %d: %v", p.Name, i, err)
			}
		}
	}
}

// TestPredecodeMatchesIBDecode holds the trace record the EBOX dispatches
// from to the code image the IB fetches: for every executed instruction
// of the five composite traces and the custom profile, decoding the image
// bytes at its PC gives the record's opcode, each specifier's mode, index
// and vax.SpecSize, and its branch displacement.
func TestPredecodeMatchesIBDecode(t *testing.T) {
	for _, p := range append(AllProfiles(20_000), customProfile(20_000)) {
		tr, err := Generate(p)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		var buf []byte
		checked := 0
		for i := range tr.Items {
			it := &tr.Items[i]
			if it.Kind != KindInstr {
				continue
			}
			in := it.In
			buf = buf[:0]
			for va := in.PC; len(buf) < 64; va++ {
				b, ok := tr.Program.Byte(va)
				if !ok {
					break
				}
				buf = append(buf, b)
			}
			if err := matchIBDecode(buf, in); err != nil {
				t.Fatalf("%s item %d (%s at %#x): %v", p.Name, i, in.Op, in.PC, err)
			}
			checked++
		}
		if checked < 20_000 {
			t.Errorf("%s: checked only %d instructions", p.Name, checked)
		}
	}
}

// matchIBDecode decodes buf the way the I-Decode stage does, one field at
// a time, and compares each field with the record.
func matchIBDecode(buf []byte, in *vax.Instr) error {
	op, err := vax.DecodeOpcode(buf)
	if err != nil {
		return err
	}
	if op != in.Op {
		return fmt.Errorf("image opcode %s", op)
	}
	info := op.Info()
	n := 1
	for j := range in.Specs {
		sp, typ := &in.Specs[j], info.Specs[j].Type
		ds, err := vax.DecodeSpec(buf[n:], typ)
		if err != nil {
			return fmt.Errorf("specifier %d: %v", j, err)
		}
		if size := vax.SpecSize(sp, typ); ds.Mode != sp.Mode || ds.Index != sp.Index || ds.Len != size {
			return fmt.Errorf("specifier %d: image %v[idx %d] in %d bytes, record %v[idx %d] in %d",
				j, ds.Mode, ds.Index, ds.Len, sp.Mode, sp.Index, size)
		}
		n += ds.Len
	}
	if size := info.BranchDispSize; size > 0 {
		d, err := vax.DecodeBranchDisp(buf[n:], size)
		if err != nil {
			return fmt.Errorf("branch displacement: %v", err)
		}
		if d != in.BranchDisp {
			return fmt.Errorf("image displacement %d, record %d", d, in.BranchDisp)
		}
	}
	return nil
}
