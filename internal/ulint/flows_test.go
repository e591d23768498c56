package ulint

import (
	"testing"

	"vax780/internal/urom"
)

func TestFlowIndexShippedROM(t *testing.T) {
	rom := urom.Build()
	ix := NewFlowIndex(rom)
	flows := ix.Flows()
	if len(flows) == 0 {
		t.Fatal("shipped ROM produced no flows")
	}

	for _, f := range flows {
		if len(f.Words) == 0 {
			t.Fatalf("flow %s has no words", f.Name)
		}
		// The entry is owned by a flow with the same entry address
		// (shared tails may assign a word to an earlier flow, but the
		// entry word of the lowest flow claiming it must resolve).
		if owner, ok := ix.FlowOf(f.Entry); !ok {
			t.Fatalf("flow %s: entry %05o unowned", f.Name, f.Entry)
		} else if flows[owner].Entry > f.Entry {
			t.Fatalf("flow %s: entry owned by later flow %s", f.Name, flows[owner].Name)
		}
	}
}

func TestFlowIndexBoundsAttached(t *testing.T) {
	rom := urom.Build()
	ix := NewFlowIndex(rom)
	rep := AnalyzeROM(rom)
	if !rep.Clean() {
		t.Skip("shipped ROM not clean; bounds coverage not expected")
	}
	for _, f := range ix.Flows() {
		if f.Straight <= 0 || f.Worst < f.Straight {
			t.Fatalf("flow %s: bounds straight=%d worst=%d", f.Name, f.Straight, f.Worst)
		}
	}
}

func TestFlowIndexDeterministic(t *testing.T) {
	rom := urom.Build()
	a, b := NewFlowIndex(rom), NewFlowIndex(rom)
	fa, fb := a.Flows(), b.Flows()
	if len(fa) != len(fb) {
		t.Fatalf("flow counts differ: %d vs %d", len(fa), len(fb))
	}
	for i := range fa {
		if fa[i].Name != fb[i].Name || fa[i].Entry != fb[i].Entry ||
			len(fa[i].Words) != len(fb[i].Words) {
			t.Fatalf("flow %d differs between identical builds", i)
		}
	}
	for addr := 0; addr < rom.Image.Size(); addr++ {
		oa, oka := a.FlowOf(uint16(addr))
		ob, okb := b.FlowOf(uint16(addr))
		if oa != ob || oka != okb {
			t.Fatalf("owner of %05o differs between identical builds", addr)
		}
	}
}

func TestFlowOfOutOfRange(t *testing.T) {
	ix := NewFlowIndex(urom.Build())
	if _, ok := ix.FlowOf(0); ok {
		t.Fatal("reset word must be unowned")
	}
}
