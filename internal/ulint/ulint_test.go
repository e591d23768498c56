package ulint

import (
	"testing"

	"vax780/internal/analysis"
	"vax780/internal/paper"
	"vax780/internal/ucode"
	"vax780/internal/upc"
	"vax780/internal/urom"
)

// TestShippedROMProven is the analyzer's reason to exist: the shipped
// control store passes every pass with zero findings, every word is
// reachable from the dispatch tables, and every tickable bucket is
// attributed to a Table 8 cell — the attribution-completeness proof.
func TestShippedROMProven(t *testing.T) {
	rep := AnalyzeROM(urom.Build())
	if !rep.Clean() {
		for _, f := range rep.Findings {
			t.Errorf("finding: %v", f)
		}
		t.Fatalf("shipped ROM has %d findings", len(rep.Findings))
	}
	if !rep.Proven() {
		t.Fatalf("attribution incomplete: %d/%d buckets",
			rep.AttributedBuckets, rep.TickableBuckets)
	}
	if rep.Reachable != rep.Words {
		t.Errorf("reachable %d of %d words: dead microcode in the shipped store",
			rep.Reachable, rep.Words)
	}
	if len(rep.Bounds) == 0 {
		t.Error("no flow bounds computed")
	}
	for _, b := range rep.Bounds {
		if b.Straight < 1 || b.Worst < b.Straight {
			t.Errorf("flow %s: nonsensical bound %+v", b.Name, b)
		}
		for _, l := range b.Loops {
			if l.Cap < 1 || l.Body < 1 {
				t.Errorf("flow %s: nonsensical loop bound %+v", b.Name, l)
			}
		}
	}
}

// TestStaticAttributionMatchesDynamic cross-checks the static proof
// against the dynamic reduction bucket for bucket: planting one count in
// every tickable bucket the analyzer saw must land every single count in
// a CPI cell — the matrix total equals the analyzer's bucket count, so
// neither side attributes a bucket the other drops.
func TestStaticAttributionMatchesDynamic(t *testing.T) {
	rom := urom.Build()
	rep := AnalyzeROM(rom)
	if !rep.Proven() {
		t.Fatal("precondition: shipped ROM must prove complete")
	}

	img := rom.Image
	h := &upc.Histogram{}
	planted := 0
	for addr := 1; addr < img.Size(); addr++ {
		mi := img.At(uint16(addr))
		if analysis.BucketTickable(mi, false) {
			h.Normal[addr] = 1
			planted++
		}
		if analysis.BucketTickable(mi, true) {
			h.Stalled[addr] = 1
			planted++
		}
	}
	if planted != rep.TickableBuckets {
		t.Fatalf("planted %d buckets, analyzer counted %d", planted, rep.TickableBuckets)
	}

	m := analysis.New(rom, h).CPIMatrix()
	var total float64
	for r := paper.Table8Row(0); r < paper.NumT8Rows; r++ {
		for c := paper.Table8Col(0); c < paper.NumT8Cols; c++ {
			total += m.Cells[r][c]
		}
	}
	if int(total) != rep.AttributedBuckets {
		t.Errorf("dynamic reduction attributed %v counts, static proof %d buckets",
			total, rep.AttributedBuckets)
	}
}

// --- golden broken control stores ---

// brokenStore assembles a minimal image around a decode word and returns
// it with matching roots. mutate adds the flows under test.
func brokenStore(t *testing.T, mutate func(a *ucode.Assembler)) (*ucode.Image, Roots) {
	t.Helper()
	a := ucode.NewAssembler()
	a.Region(ucode.RegDecode)
	a.Label("ird").DecodeInstr("decode")
	mutate(a)
	img, err := a.Assemble()
	if err != nil {
		t.Fatalf("assembling golden store: %v", err)
	}
	roots := Roots{IRD: img.Addr("ird")}
	for _, name := range img.SortedLabels() {
		if len(name) > 5 && name[:5] == "exec." {
			roots.Exec = append(roots.Exec, img.Addr(name))
		}
	}
	return img, roots
}

func kindCount(rep *Report, k Kind) int { return len(rep.ByKind(k)) }

// TestGoldenDeadFlow: a fully labelled flow that no dispatch table
// points at. ucode.Verify's label-rooted walk considers it alive — only
// the dispatch-rooted analyzer can see it is dead.
func TestGoldenDeadFlow(t *testing.T) {
	img, roots := brokenStore(t, func(a *ucode.Assembler) {
		a.Region(ucode.RegExecSimple)
		a.Label("exec.live").End("dispatched")
		a.Label("orphan").Compute(1, "never dispatched").End("done")
	})
	rep := Analyze(img, roots)

	dead := rep.ByKind(KindDeadWord)
	if len(dead) != 2 {
		t.Fatalf("want 2 dead words (the orphan flow), got %v", rep.Findings)
	}
	for _, f := range dead {
		if f.Severity != ucode.SevWarning {
			t.Errorf("dead word should be a warning: %v", f)
		}
	}
	// The per-word verifier must NOT have seen it: that is the point.
	for _, f := range rep.ByKind(KindVerify) {
		if f.VerifyKind == ucode.IssueUnreachable {
			t.Errorf("label-rooted verifier unexpectedly flagged the orphan: %v", f)
		}
	}
}

// TestGoldenNonTerminatingFlow: a jump cycle with no loop counter. Every
// per-word check passes — both jumps are in range with labelled targets —
// yet no execution of the flow can ever reach IRD.
func TestGoldenNonTerminatingFlow(t *testing.T) {
	img, roots := brokenStore(t, func(a *ucode.Assembler) {
		a.Region(ucode.RegExecSimple)
		a.Label("exec.spin").Jump("exec.spin.b", "to b")
		a.Label("exec.spin.b").Jump("exec.spin", "back to a")
	})
	rep := Analyze(img, roots)
	if kindCount(rep, KindNonTerminating) == 0 {
		t.Fatalf("jump cycle not reported: %v", rep.Findings)
	}
	if kindCount(rep, KindVerify) != 0 {
		t.Errorf("per-word verifier should be blind to this: %v", rep.ByKind(KindVerify))
	}
	// The broken flow must be excluded from the bounds table.
	for _, b := range rep.Bounds {
		if b.Name == "exec.spin" {
			t.Errorf("non-terminating flow got a bound: %v", b)
		}
	}
}

// TestGoldenCounterReloadInLoop: a loop whose head reloads the loop
// counter restarts itself every iteration. The loop closer itself is
// legal (backward, in range); only body analysis catches the reload.
func TestGoldenCounterReloadInLoop(t *testing.T) {
	img, roots := brokenStore(t, func(a *ucode.Assembler) {
		a.Region(ucode.RegExecSimple)
		a.Label("exec.reload").LoopLoad(ucode.LoopImm, 4, "init count")
		a.Label("exec.reload.head").LoopLoad(ucode.LoopImm, 4, "reload every pass")
		a.Compute(1, "body")
		a.LoopBack("exec.reload.head", ucode.MemNone, "again")
		a.End("done")
	})
	rep := Analyze(img, roots)
	found := false
	for _, f := range rep.ByKind(KindNonTerminating) {
		if f.Addr == img.Addr("exec.reload.head") {
			found = true
		}
	}
	if !found {
		t.Fatalf("counter reload inside loop body not reported: %v", rep.Findings)
	}
}

// TestGoldenUnattributedBucket: a reachable word outside every region is
// invisible to the Table 8 decomposition — its cycles would be counted
// by the monitor and dropped by the reduction. The second store splices
// the regionless word into the interior of a straight-line run:
// attribution is proven per word, wherever in a run the word sits.
func TestGoldenUnattributedBucket(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func(a *ucode.Assembler)
		entry string // the flow entry; the regionless word is the next one
	}{
		{"regionless-tail", func(a *ucode.Assembler) {
			a.Region(ucode.RegExecSimple)
			a.Label("exec.ok").Compute(1, "fine")
			a.Region(ucode.RegNone)
			a.End("regionless tail, reachable by fall-through")
		}, "exec.ok"},
		{"regionless-interior", func(a *ucode.Assembler) {
			a.Region(ucode.RegExecSimple)
			a.Label("exec.fx").Compute(1, "head")
			a.Region(ucode.RegNone)
			a.Compute(1, "regionless interior")
			a.Region(ucode.RegExecSimple)
			a.Compute(1, "third")
			a.End("done")
		}, "exec.fx"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			img, roots := brokenStore(t, tc.build)
			rep := Analyze(img, roots)
			bad := img.Addr(tc.entry) + 1
			un := rep.ByKind(KindUnattributed)
			if len(un) != 1 {
				t.Fatalf("unattributed bucket not reported exactly once: %v", rep.Findings)
			}
			if un[0].Addr != bad {
				t.Errorf("unattributed at %05o, want the regionless word %05o", un[0].Addr, bad)
			}
			if rep.Proven() {
				t.Error("Proven() must be false with an unattributed bucket")
			}
			// The per-word region check fires too; both views of the same rot.
			hasNoRegion := false
			for _, f := range rep.ByKind(KindVerify) {
				if f.VerifyKind == ucode.IssueNoRegion && f.Addr == bad {
					hasNoRegion = true
				}
			}
			if !hasNoRegion {
				t.Error("expected the wrapped no-region verify issue alongside")
			}
		})
	}
}

// TestGoldenIllegalStallEntry: an IB-stall wait word reached by
// fall-through would count phantom IB-stall cycles. Per-word checks see
// a perfectly well-formed stall word; only the edge view catches it.
func TestGoldenIllegalStallEntry(t *testing.T) {
	var stall uint16
	img, roots := brokenStore(t, func(a *ucode.Assembler) {
		a.Region(ucode.RegExecSimple)
		a.Label("exec.f").Compute(1, "falls into the stall word")
		a.Region(ucode.RegDecode)
		a.Label("stall.bad").IBStallLoc(ucode.IBDecodeSpec, "stall")
	})
	stall = img.Addr("stall.bad")
	roots.StallSpecN = stall
	rep := Analyze(img, roots)
	if kindCount(rep, KindIllegalStall) != 1 {
		t.Fatalf("illegal stall entry not reported: %v", rep.Findings)
	}
	if f := rep.ByKind(KindIllegalStall)[0]; f.Addr != stall {
		t.Errorf("finding at %05o, want %05o", f.Addr, stall)
	}
}

// TestGoldenTrapIllegalFlow: the EBOX trap loop executes only
// next/jump/rfi and no I-stream functions; a dispatch inside a trap
// service flow would error at the first TB miss in the field.
func TestGoldenTrapIllegalFlow(t *testing.T) {
	img, roots := brokenStore(t, func(a *ucode.Assembler) {
		a.Region(ucode.RegMemMgmt)
		a.Label("tbmiss").
			Compute(1, "classify").
			DecodeSpec("dispatch inside a trap flow")
	})
	roots.Trap = []uint16{img.Addr("tbmiss")}
	rep := Analyze(img, roots)
	if kindCount(rep, KindTrapIllegalSeq) != 1 {
		t.Fatalf("illegal trap sequencer not reported: %v", rep.Findings)
	}
	if kindCount(rep, KindTrapIllegalIB) != 1 {
		t.Fatalf("I-stream function in trap flow not reported: %v", rep.Findings)
	}
}

// TestGoldenPTEOutsideTrap: a physical PTE read in an execute flow
// bypasses translation on a path where no fault is being serviced.
func TestGoldenPTEOutsideTrap(t *testing.T) {
	img, roots := brokenStore(t, func(a *ucode.Assembler) {
		a.Region(ucode.RegExecSimple)
		a.Label("exec.pte").
			Mem(ucode.MemReadPTE, "PTE read in an execute flow").
			End("done")
	})
	rep := Analyze(img, roots)
	if kindCount(rep, KindPTEOutsideTrap) != 1 {
		t.Fatalf("PTE read outside trap flows not reported: %v", rep.Findings)
	}
}

// TestGoldenBadRoot: a dispatch table pointing outside the image stops
// the graph passes instead of panicking on an out-of-range access.
func TestGoldenBadRoot(t *testing.T) {
	img, roots := brokenStore(t, func(a *ucode.Assembler) {
		a.Region(ucode.RegExecSimple)
		a.Label("exec.x").End("fine")
	})
	roots.Exec = append(roots.Exec, uint16(img.Size()+100))
	rep := Analyze(img, roots)
	if kindCount(rep, KindBadRoot) != 1 {
		t.Fatalf("out-of-range root not reported: %v", rep.Findings)
	}
	if rep.TickableBuckets != 0 {
		t.Error("graph passes should not run on a structurally broken store")
	}
}

// TestGoldenURetBadTarget: conditional branches whose taken-path return
// sites are an IB-stall wait word and a trap-service word — locations a
// B-DISP return must never land on. Both words are structurally
// well-formed; only the return-site pass sees the illegal landing.
func TestGoldenURetBadTarget(t *testing.T) {
	img, roots := brokenStore(t, func(a *ucode.Assembler) {
		a.Region(ucode.RegExecSimple)
		a.Label("exec.br1").CondTaken("stall.bad", "returns to a stall word")
		a.Label("exec.br2").CondTaken("trap.bad", "returns into trap service")
		a.Region(ucode.RegDecode)
		a.Label("stall.bad").IBStallLoc(ucode.IBDecodeSpec, "stall")
		a.Region(ucode.RegMemMgmt)
		a.Label("trap.bad").Compute(1, "trap work").TrapRet("rfi")
	})
	roots.Trap = []uint16{img.Addr("trap.bad")}
	rep := Analyze(img, roots)

	bad := rep.ByKind(KindURetBadTarget)
	if len(bad) != 2 {
		t.Fatalf("want two bad return sites (stall + trap), got %v", rep.Findings)
	}
	want := map[uint16]bool{img.Addr("stall.bad"): true, img.Addr("trap.bad"): true}
	for _, f := range bad {
		if !want[f.Addr] {
			t.Errorf("unexpected bad-target finding at %05o", f.Addr)
		}
		if f.Severity != ucode.SevError {
			t.Errorf("bad return site must be an error: %v", f)
		}
	}
}

// TestGoldenLoopBound pins the bound arithmetic on a known shape: a
// 2-word body looped up to 5 times plus entry and exit words.
func TestGoldenLoopBound(t *testing.T) {
	img, roots := brokenStore(t, func(a *ucode.Assembler) {
		a.Region(ucode.RegExecSimple)
		a.Label("exec.loop").LoopLoad(ucode.LoopImm, 5, "count = 5")
		a.Label("exec.loop.head").Compute(1, "body work")
		a.LoopBack("exec.loop.head", ucode.MemNone, "close")
		a.End("done")
	})
	rep := Analyze(img, roots)
	var fb *FlowBound
	for i := range rep.Bounds {
		if rep.Bounds[i].Name == "exec.loop" {
			fb = &rep.Bounds[i]
		}
	}
	if fb == nil {
		t.Fatalf("no bound for exec.loop: %+v", rep.Bounds)
	}
	// Straight: load + body + closer + end = 4; worst adds 4 extra
	// 2-cycle iterations.
	if fb.Straight != 4 || fb.Worst != 4+4*2 {
		t.Errorf("bound = straight %d worst %d, want 4 and 12", fb.Straight, fb.Worst)
	}
	if len(fb.Loops) != 1 || fb.Loops[0].Cap != 5 || fb.Loops[0].Body != 2 {
		t.Errorf("loop bound %+v, want cap 5 body 2", fb.Loops)
	}
}

// TestFindingString pins the report line format.
func TestFindingString(t *testing.T) {
	f := Finding{Kind: KindDeadWord, Severity: ucode.SevWarning, Addr: 8, Flow: "exec.x", Msg: "m"}
	if got := f.String(); got != "00010 (exec.x): warning: [dead-word] m" {
		t.Errorf("Finding.String = %q", got)
	}
}

// TestKindNamesDistinct: every finding kind renders a distinct name.
func TestKindNamesDistinct(t *testing.T) {
	seen := make(map[string]Kind)
	for k := Kind(0); k < NumKinds; k++ {
		s := k.String()
		if prev, dup := seen[s]; dup {
			t.Errorf("kinds %d and %d share the name %q", prev, k, s)
		}
		seen[s] = k
	}
}
