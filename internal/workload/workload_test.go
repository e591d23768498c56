package workload

import (
	"testing"

	"vax780/internal/vax"
)

func TestProgramPutAndRead(t *testing.T) {
	p := NewProgram()
	if err := p.Put(0x1000, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if b, ok := p.Byte(0x1001); !ok || b != 2 {
		t.Errorf("Byte(0x1001) = %d,%v", b, ok)
	}
	if _, ok := p.Byte(0x2000); ok {
		t.Error("unmaterialized address reported ok")
	}
	// Idempotent re-put is fine.
	if err := p.Put(0x1000, []byte{1, 2, 3}); err != nil {
		t.Errorf("identical re-put failed: %v", err)
	}
	// Conflicting re-put is an error.
	if err := p.Put(0x1001, []byte{9}); err == nil {
		t.Error("conflicting put should fail")
	}
	if p.Bytes() != 3 {
		t.Errorf("Bytes = %d, want 3", p.Bytes())
	}
}

func TestProgramCrossesPages(t *testing.T) {
	p := NewProgram()
	if err := p.Put(510, []byte{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	for i, want := range []byte{1, 2, 3, 4} {
		if b, ok := p.Byte(uint32(510 + i)); !ok || b != want {
			t.Errorf("byte %d = %d,%v want %d", i, b, ok, want)
		}
	}
}

func TestSliceStream(t *testing.T) {
	items := []Item{{Kind: KindInstr}, {Kind: KindInterrupt}}
	s := NewSliceStream(items)
	if s.Len() != 2 {
		t.Errorf("Len = %d", s.Len())
	}
	a, ok := s.Next()
	if !ok || a != &items[0] {
		t.Error("first item wrong")
	}
	s.Next()
	if _, ok := s.Next(); ok {
		t.Error("stream did not end")
	}
	s.Reset()
	if _, ok := s.Next(); !ok {
		t.Error("reset failed")
	}
}

func TestDataSpaceLocality(t *testing.T) {
	g := Generator{}
	_ = g
	d := NewDataSpace(newTestRand(), DataConfig{
		Base: 0x10000, HotPages: 4, ColdPages: 100, ColdFrac: 0.3,
	})
	hotHits := 0
	const n = 10000
	for i := 0; i < n; i++ {
		a, _ := d.Scalar(4)
		if a >= 0x10000 && a < 0x10000+4*512 {
			hotHits++
		}
	}
	frac := float64(hotHits) / n
	if frac < 0.6 || frac > 0.8 {
		t.Errorf("hot fraction = %.2f, want ≈0.7", frac)
	}
}

func TestDataSpaceUnaligned(t *testing.T) {
	d := NewDataSpace(newTestRand(), DataConfig{
		Base: 0x10000, HotPages: 4, ColdPages: 10, UnalignedProb: 0.1,
	})
	unaligned := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if _, u := d.Scalar(4); u {
			unaligned++
		}
	}
	frac := float64(unaligned) / n
	if frac < 0.07 || frac > 0.13 {
		t.Errorf("unaligned fraction = %.3f, want ≈0.10", frac)
	}
	// Byte operands are never unaligned.
	for i := 0; i < 1000; i++ {
		if _, u := d.Scalar(1); u {
			t.Fatal("byte operand marked unaligned")
		}
	}
}

func TestDataSpaceStringsAdvance(t *testing.T) {
	d := NewDataSpace(newTestRand(), DataConfig{Base: 0x10000, HotPages: 4, ColdPages: 10})
	a := d.String(40)
	b := d.String(40)
	if b <= a {
		t.Errorf("string region did not advance: %#x then %#x", a, b)
	}
}

func TestGenerateSmallTrace(t *testing.T) {
	p := TimesharingA(3000)
	tr, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.Instructions(); got < 3000 {
		t.Errorf("generated %d instructions, want ≥3000", got)
	}
	if tr.Program.Bytes() == 0 {
		t.Error("no code materialized")
	}
	// Every instruction item must be decodable from the program image at
	// its PC and match its own encoding.
	checked := 0
	for _, it := range tr.Items {
		if it.Kind != KindInstr {
			continue
		}
		in := it.In
		enc := vax.Encode(nil, in)
		for i, want := range enc {
			got, ok := tr.Program.Byte(in.PC + uint32(i))
			if !ok || got != want {
				t.Fatalf("%s at %#x: image byte %d = %#x,%v want %#x",
					in.Op, in.PC, i, got, ok, want)
			}
		}
		checked++
		if checked > 500 {
			break
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(TimesharingA(2000))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(TimesharingA(2000))
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Items) != len(b.Items) {
		t.Fatalf("non-deterministic: %d vs %d items", len(a.Items), len(b.Items))
	}
	for i := range a.Items {
		if a.Items[i].Kind != b.Items[i].Kind {
			t.Fatalf("item %d kind differs", i)
		}
		if a.Items[i].Kind == KindInstr &&
			(a.Items[i].In.Op != b.Items[i].In.Op || a.Items[i].In.PC != b.Items[i].In.PC) {
			t.Fatalf("item %d differs", i)
		}
	}
}

func TestGenerateGroupMix(t *testing.T) {
	tr, err := Generate(TimesharingA(60000))
	if err != nil {
		t.Fatal(err)
	}
	var counts [vax.NumGroups]int
	total := 0
	for _, it := range tr.Items {
		if it.Kind != KindInstr {
			continue
		}
		counts[it.In.Info().Group]++
		total++
	}
	pct := func(g vax.Group) float64 { return 100 * float64(counts[g]) / float64(total) }

	// Paper Table 1 targets with generous tolerances (the calibration
	// test in the analysis package is stricter on the composite).
	checks := []struct {
		g      vax.Group
		lo, hi float64
	}{
		{vax.GroupSimple, 76, 90},
		{vax.GroupField, 4, 10},
		{vax.GroupFloat, 1.5, 7},
		{vax.GroupCallRet, 1.5, 6},
		{vax.GroupSystem, 1, 5},
		{vax.GroupCharacter, 0.1, 1.5},
		{vax.GroupDecimal, 0.005, 0.3},
	}
	for _, c := range checks {
		if p := pct(c.g); p < c.lo || p > c.hi {
			t.Errorf("%v = %.2f%%, want [%.1f, %.1f]", c.g, p, c.lo, c.hi)
		}
	}
}

func TestGeneratePCChanging(t *testing.T) {
	tr, err := Generate(TimesharingA(60000))
	if err != nil {
		t.Fatal(err)
	}
	pcChanging, taken, total := 0, 0, 0
	loopBr, loopTaken := 0, 0
	for _, it := range tr.Items {
		if it.Kind != KindInstr {
			continue
		}
		total++
		cls := it.In.Info().PCClass
		if cls == vax.PCNone {
			continue
		}
		pcChanging++
		if it.In.Taken {
			taken++
		}
		if cls == vax.PCLoop {
			loopBr++
			if it.In.Taken {
				loopTaken++
			}
		}
	}
	pcFrac := 100 * float64(pcChanging) / float64(total)
	if pcFrac < 30 || pcFrac > 48 {
		t.Errorf("PC-changing = %.1f%%, paper says 38.5%%", pcFrac)
	}
	takenFrac := 100 * float64(taken) / float64(pcChanging)
	if takenFrac < 55 || takenFrac > 80 {
		t.Errorf("taken fraction = %.1f%%, paper says 67%%", takenFrac)
	}
	if loopBr > 0 {
		lt := 100 * float64(loopTaken) / float64(loopBr)
		if lt < 82 || lt > 97 {
			t.Errorf("loop taken = %.1f%%, paper says 91%%", lt)
		}
	}
}

func TestGenerateSpecifierStats(t *testing.T) {
	tr, err := Generate(TimesharingA(60000))
	if err != nil {
		t.Fatal(err)
	}
	specs, disps, instrs := 0, 0, 0
	sizeSum := 0
	for _, it := range tr.Items {
		if it.Kind != KindInstr {
			continue
		}
		instrs++
		specs += len(it.In.Specs)
		if it.In.Info().BranchDispSize > 0 {
			disps++
		}
		sizeSum += it.In.Size()
	}
	perInstr := float64(specs) / float64(instrs)
	if perInstr < 1.2 || perInstr > 1.8 {
		t.Errorf("specifiers/instruction = %.2f, paper says 1.48", perInstr)
	}
	dispPer := float64(disps) / float64(instrs)
	if dispPer < 0.22 || dispPer > 0.42 {
		t.Errorf("branch displacements/instruction = %.2f, paper says 0.31", dispPer)
	}
	avgSize := float64(sizeSum) / float64(instrs)
	if avgSize < 3.2 || avgSize > 4.6 {
		t.Errorf("average instruction size = %.2f bytes, paper says 3.8", avgSize)
	}
}

func TestGenerateEventHeadways(t *testing.T) {
	tr, err := Generate(TimesharingA(80000))
	if err != nil {
		t.Fatal(err)
	}
	instrs, ints, switches, sirr := 0, 0, 0, 0
	for _, it := range tr.Items {
		switch it.Kind {
		case workItemInstr:
			instrs++
			if it.In.Op == vax.LDPCTX {
				switches++
			}
			if it.In.SIRR {
				sirr++
			}
		case KindInterrupt:
			ints++
		}
	}
	if ints == 0 || switches == 0 || sirr == 0 {
		t.Fatalf("events missing: int=%d switch=%d sirr=%d", ints, switches, sirr)
	}
	intHeadway := float64(instrs) / float64(ints)
	if intHeadway < 400 || intHeadway > 900 {
		t.Errorf("interrupt headway = %.0f, paper says 637", intHeadway)
	}
	swHeadway := float64(instrs) / float64(switches)
	if swHeadway < 3500 || swHeadway > 12000 {
		t.Errorf("context switch headway = %.0f, paper says 6418", swHeadway)
	}
}

const workItemInstr = KindInstr

func TestAllProfilesGenerate(t *testing.T) {
	for _, p := range AllProfiles(2500) {
		tr, err := Generate(p)
		if err != nil {
			t.Errorf("%s: %v", p.Name, err)
			continue
		}
		if tr.Instructions() < 2500 {
			t.Errorf("%s: only %d instructions", p.Name, tr.Instructions())
		}
	}
}
