package ulint

import (
	"testing"

	"vax780/internal/ucode"
)

// FuzzCFGBuild drives the CFG builder and every graph pass over
// mutated control stores: random rewrites of sequencer fields, targets,
// IB functions, memory/loop fields, and dispatch roots. Neither Analyze
// nor the flow walk behind the flow index may panic on any mutation: a
// corrupt image produces findings, not a crash (vaxlint runs on stores
// that are broken by definition).
func FuzzCFGBuild(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{1, 0, 1, 7, 2, 0, 3, 0o377})
	f.Add([]byte{5, 0, 0, 200, 6, 0, 4, 1, 7, 0, 2, 2})
	f.Add([]byte{9, 0, 5, 0, 10, 0, 1, 255, 11, 0, 6, 6, 12, 0, 7, 13})

	f.Fuzz(func(t *testing.T, data []byte) {
		img, roots := fuzzBaseStore(t)

		// Each 4-byte record mutates one word: [addr-lo, addr-hi, field, value].
		for i := 0; i+4 <= len(data); i += 4 {
			addr := uint16(int(data[i]) | int(data[i+1])<<8)
			if int(addr) >= img.Size() {
				addr = uint16(int(addr) % img.Size())
			}
			mi := img.At(addr)
			v := data[i+3]
			switch data[i+2] % 8 {
			case 0:
				mi.Seq = ucode.SeqFunc(v % 12) // includes out-of-enum values
			case 1:
				mi.Target = uint16(v) // in- and out-of-image targets
			case 2:
				mi.IB = ucode.IBFunc(v % 6)
			case 3:
				mi.IBStall = v&1 != 0
			case 4:
				mi.Mem = ucode.MemFunc(v % 14)
			case 5:
				mi.Loop = ucode.LoopSrc(v % 8)
			case 6:
				mi.Region = ucode.Region(v % 12)
			case 7:
				// Root mutation: retarget an exec entry anywhere, including
				// out of range (checkRoots must catch it, not a panic).
				if len(roots.Exec) > 0 {
					roots.Exec[int(v)%len(roots.Exec)] = uint16(v) * 3
				}
			}
		}

		// No panic, whatever the mutations did. The flow walk does not
		// need the CFG, so it runs even on structurally broken stores.
		rep := Analyze(img, roots)
		_ = rep.Summary()
		a := &analyzer{img: img, roots: roots}
		for _, entry := range a.flowEntries() {
			_ = a.flowWords(entry)
		}
	})
}

// fuzzBaseStore assembles a small valid store with the flow shapes the
// mutations get to corrupt: straight-line runs, a loop, a branch with
// its B-DISP subroutine, a stall word, and a trap flow.
func fuzzBaseStore(t *testing.T) (*ucode.Image, Roots) {
	t.Helper()
	a := ucode.NewAssembler()
	a.Region(ucode.RegDecode)
	a.Label("ird").DecodeInstr("decode")
	a.Label("stall.spec").IBStallLoc(ucode.IBDecodeSpec, "wait")
	a.Region(ucode.RegExecSimple)
	a.Label("exec.line").Compute(1, "w0").Compute(1, "w1").Compute(1, "w2").End("done")
	a.Label("exec.loop").LoopLoad(ucode.LoopImm, 3, "count")
	a.Label("exec.loop.head").Compute(1, "body")
	a.LoopBack("exec.loop.head", ucode.MemNone, "again")
	a.End("done")
	a.Label("exec.br").CondTaken("exec.cont", "taken branch")
	a.Label("exec.cont").Compute(1, "c0").Compute(1, "c1").End("done")
	a.Label("bdisp").Compute(1, "disp add").URet("return")
	a.Region(ucode.RegMemMgmt)
	a.Label("tbmiss").Compute(1, "classify").TrapRet("rfi")
	img, err := a.Assemble()
	if err != nil {
		t.Fatalf("assembling fuzz base store: %v", err)
	}
	roots := Roots{
		IRD:        img.Addr("ird"),
		StallSpecN: img.Addr("stall.spec"),
		BDisp:      img.Addr("bdisp"),
		Trap:       []uint16{img.Addr("tbmiss")},
	}
	for _, name := range img.SortedLabels() {
		if len(name) > 5 && name[:5] == "exec." {
			roots.Exec = append(roots.Exec, img.Addr(name))
		}
	}
	return img, roots
}
