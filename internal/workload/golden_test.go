package workload

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"encoding/hex"
	"hash"
	"os"
	"slices"
	"testing"
)

// canonicalHash returns the sha256 of a canonical encoding of a trace:
// its name, every item and every record field in a fixed order, then
// the code pages in ascending page order with their used bytes. Fields
// are named one by one and widened to 64 bits, so the hash does not
// depend on the records' field order or field widths, and the pages are
// read back through the gob wire form, not from a map whose iteration
// order varies.
func canonicalHash(tb testing.TB, tr *Trace) string {
	tb.Helper()
	h := sha256.New()
	put := func(vs ...int64) {
		for _, v := range vs {
			binary.Write(h, binary.LittleEndian, v)
		}
	}
	b2i := func(b bool) int64 {
		if b {
			return 1
		}
		return 0
	}
	h.Write([]byte(tr.Name))
	put(int64(len(tr.Items)))
	for _, it := range tr.Items {
		put(int64(it.Kind), int64(it.HandlerPC), int64(it.SwitchTo), b2i(it.In != nil))
		if in := it.In; in != nil {
			put(int64(in.Op), int64(len(in.Specs)))
			for _, sp := range in.Specs {
				put(int64(sp.Mode), int64(sp.Reg), int64(sp.Index), int64(sp.Disp),
					int64(sp.Addr), int64(sp.PtrAddr), b2i(sp.Unaligned))
			}
			put(int64(in.BranchDisp), b2i(in.Taken), int64(in.Target), int64(in.PC),
				int64(in.RegCount), int64(in.StrLen), int64(in.Digits), int64(in.FieldLen),
				b2i(in.SIRR))
		}
	}
	hashPages(tb, h, tr.Program)
	return hex.EncodeToString(h.Sum(nil))
}

// hashPages feeds the code image to h page by page in ascending order.
func hashPages(tb testing.TB, h hash.Hash, p *Program) {
	tb.Helper()
	wire, err := p.GobEncode()
	if err != nil {
		tb.Fatal(err)
	}
	var pg struct {
		Pages map[uint32][]byte
		Used  map[uint32][]bool
	}
	if err := gob.NewDecoder(bytes.NewReader(wire)).Decode(&pg); err != nil {
		tb.Fatal(err)
	}
	keys := make([]uint32, 0, len(pg.Pages))
	for k := range pg.Pages {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	binary.Write(h, binary.LittleEndian, int64(len(keys)))
	for _, k := range keys {
		binary.Write(h, binary.LittleEndian, int64(k))
		h.Write(pg.Pages[k])
		for _, u := range pg.Used[k] {
			b := byte(0)
			if u {
				b = 1
			}
			h.Write([]byte{b})
		}
	}
}

// goldenProfiles are the generated traces TestGeneratedTraceGolden pins:
// the five experiments, the custom workload, a scripted custom workload
// with an idle share, and a single-user workload.
func goldenProfiles() []Profile {
	ps := AllProfiles(50_000)
	ps = append(ps, Custom(CustomConfig{Name: "custom", Seed: 1, Instructions: 50_000}))
	scripted := Custom(CustomConfig{Name: "scripted-idle", Seed: 3, Instructions: 50_000, IdleFraction: 0.1})
	scripted.Activities = SessionScript()
	ps = append(ps, scripted)
	ps = append(ps, Custom(CustomConfig{Name: "one-user", Seed: 5, Instructions: 50_000, Users: 1}))
	return ps
}

// TestGeneratedTraceGolden pins every generated trace bit for bit: the
// items, every record field and the code image. Any change to the
// generator's draws, their order or the record contents moves a hash.
func TestGeneratedTraceGolden(t *testing.T) {
	want := map[string]string{
		"TIMESHARING-A": "12c63bfcdd47ad80c6f669205d8f0c9e7ea80a24f28901338ae58a5ed7475852",
		"TIMESHARING-B": "86dc3ddd39ce6e46e038d5468f0b7d2cb4699897effeb72b3d9ca9c29b48ee93",
		"RTE-EDU":       "d528dc96ed00757091dc4a3bd0787cb5ea4aa865704bffff75dc68eeeb23bbe4",
		"RTE-SCI":       "738c20897494bfac5ebc0ee21d15109fd8ab177f94b34d703efa7a7969fed66e",
		"RTE-COM":       "775628358c29b948947ae2a6cab7017f51d6b654604b2612e96b4f92bc702b54",
		"custom":        "418daa7eba163a06b0d5995598b27b6ebc6ff5cceba8db62c1618eaff4b23940",
		"scripted-idle": "0a76b72ff53e1502006399dd50dce5eb70cacfbfc59f84e426f79e227399ceb2",
		"one-user":      "da50c1cf42bf9383af6598e154c63a9597a3e404e17c0d3347a1fb285d617740",
	}
	for _, p := range goldenProfiles() {
		tr, err := Generate(p)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		if got := canonicalHash(t, tr); got != want[p.Name] {
			t.Errorf("%s: trace hash %s, want %s", p.Name, got, want[p.Name])
		}
	}
}

// TestReadTraceOfCommittedFile: testdata/parent-2k.trace was written by
// WriteTo before the records were narrowed (40-byte specifiers with int
// mode, register and index fields). Reading it must still give the
// trace it was written from, which is the one Generate builds today.
func TestReadTraceOfCommittedFile(t *testing.T) {
	const want = "f9ce96a74dee10c34a2ca567d204dd73f204c7ec35dbc22edd0d32bb636e4825"
	f, err := os.Open("testdata/parent-2k.trace")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tr, err := ReadTrace(f)
	if err != nil {
		t.Fatal(err)
	}
	if got := canonicalHash(t, tr); got != want {
		t.Errorf("read trace hash %s, want %s", got, want)
	}
	gen, err := Generate(Custom(CustomConfig{Name: "parent-2k", Seed: 11, Instructions: 2000, Users: 2, IdleFraction: 0.05}))
	if err != nil {
		t.Fatal(err)
	}
	if got := canonicalHash(t, gen); got != want {
		t.Errorf("generated trace hash %s, want %s", got, want)
	}
}
