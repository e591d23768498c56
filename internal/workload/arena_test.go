package workload

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"testing"
	"unsafe"

	"vax780/internal/vax"
)

// customProfile is the custom workload at n instructions, the shape the
// custom-seeds benchmark generates on every op.
func customProfile(n int) Profile {
	return Custom(CustomConfig{Name: "bench", Seed: 1, Instructions: n})
}

// BenchmarkGenerate prices trace generation alone: one 50k-instruction
// custom trace per op, with allocs/op, B/op and allocs per generated
// instruction as the host-independent proxies.
func BenchmarkGenerate(b *testing.B) {
	p := customProfile(50_000)
	b.ReportAllocs()
	instrs := 0
	for i := 0; i < b.N; i++ {
		tr, err := Generate(p)
		if err != nil {
			b.Fatal(err)
		}
		instrs = tr.Instructions()
	}
	b.StopTimer()
	allocs := testing.AllocsPerRun(1, func() { Generate(p) })
	b.ReportMetric(allocs/float64(instrs), "allocs/instr")
}

// TestGenerateAllocsPerInstruction gates the allocation-lean generator:
// records and specifiers come from chunked arenas and encoding reuses
// one buffer, so allocations grow with chunks, pages and routines, not
// with executed instructions.
func TestGenerateAllocsPerInstruction(t *testing.T) {
	p := customProfile(50_000)
	tr, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(2, func() {
		if _, err := Generate(p); err != nil {
			t.Fatal(err)
		}
	})
	if per := allocs / float64(tr.Instructions()); per > 0.1 {
		t.Fatalf("Generate(50k): %.0f allocs = %.3f per instruction, want ≤ 0.1", allocs, per)
	}
}

// TestExecutedRecordsHaveExactSpecs: every executed record's specifier
// slice is carved at exact capacity, so no append on one record can
// overwrite the specifiers of the record next to it in the arena.
func TestExecutedRecordsHaveExactSpecs(t *testing.T) {
	for _, p := range AllProfiles(6000) {
		tr, err := Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		for i, it := range tr.Items {
			if it.Kind == KindInstr && cap(it.In.Specs) != len(it.In.Specs) {
				t.Fatalf("%s item %d (%s): cap(Specs) %d != len %d",
					p.Name, i, it.In.Op, cap(it.In.Specs), len(it.In.Specs))
			}
		}
	}
}

// TestLDPCTXCarriesSwitchTo: the scheduler's LDPCTX item is edited after
// it is appended; the edit must land on the trace's value item.
func TestLDPCTXCarriesSwitchTo(t *testing.T) {
	tr, err := Generate(TimesharingA(40_000))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for i, it := range tr.Items {
		if it.Kind != KindInstr || it.In.Op != vax.LDPCTX {
			continue
		}
		n++
		if it.SwitchTo == 0 {
			t.Fatalf("item %d: LDPCTX without a SwitchTo", i)
		}
	}
	if n == 0 {
		t.Fatal("no context switch in a 40k TIMESHARING-A trace")
	}
}

// TestReplaySharesRecords: a replayed execution is the same record as
// the one it repeats — no copy of the instruction per replay.
func TestReplaySharesRecords(t *testing.T) {
	tr, err := Generate(customProfile(20_000))
	if err != nil {
		t.Fatal(err)
	}
	first := map[*vax.Instr]int{}
	shared := 0
	for i, it := range tr.Items {
		if it.Kind != KindInstr {
			continue
		}
		j, seen := first[it.In]
		if !seen {
			first[it.In] = i
			continue
		}
		shared++
		if tr.Items[j] != it {
			t.Fatalf("item %d repeats item %d's record but differs: %+v vs %+v", i, j, it, tr.Items[j])
		}
	}
	if instrs := tr.Instructions(); shared*4 < instrs {
		t.Fatalf("only %d of %d instruction items replay a shared record", shared, instrs)
	}
}

// legacyTrace is the wire shape of a trace whose items were pointers.
type legacyTrace struct {
	Name    string
	Program *Program
	Items   []*Item
}

// TestGobPointerAndValueItemsInterchange: gob flattens pointers, so a
// trace written with []*Item items decodes into []Item and back.
func TestGobPointerAndValueItemsInterchange(t *testing.T) {
	tr, err := Generate(TimesharingA(3000))
	if err != nil {
		t.Fatal(err)
	}
	legacy := legacyTrace{Name: tr.Name, Program: tr.Program}
	for i := range tr.Items {
		legacy.Items = append(legacy.Items, &tr.Items[i])
	}

	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(legacy); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTrace(&buf)
	if err != nil {
		t.Fatalf("legacy trace: %v", err)
	}
	sameItems(t, "legacy → value", tr.Items, got.Items)

	buf.Reset()
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	var back legacyTrace
	if err := gob.NewDecoder(&buf).Decode(&back); err != nil {
		t.Fatalf("value trace into legacy shape: %v", err)
	}
	vals := make([]Item, len(back.Items))
	for i, it := range back.Items {
		vals[i] = *it
	}
	sameItems(t, "value → legacy", tr.Items, vals)
}

func sameItems(t *testing.T, what string, want, got []Item) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d items, want %d", what, len(got), len(want))
	}
	for i := range want {
		a, b := want[i], got[i]
		if a.Kind != b.Kind || a.HandlerPC != b.HandlerPC || a.SwitchTo != b.SwitchTo ||
			(a.In == nil) != (b.In == nil) {
			t.Fatalf("%s: item %d: %+v vs %+v", what, i, b, a)
		}
		if a.In != nil && !reflect.DeepEqual(*a.In, *b.In) {
			t.Fatalf("%s: item %d: %+v vs %+v", what, i, *b.In, *a.In)
		}
	}
}

// TestRecordSizes pins the trace records' footprint: a cached trace
// holds one Item per executed instruction and one Instr and its
// Specifiers per distinct record.
func TestRecordSizes(t *testing.T) {
	for _, c := range []struct {
		name      string
		got, want uintptr
	}{
		{"vax.Instr", unsafe.Sizeof(vax.Instr{}), 72},
		{"vax.Specifier", unsafe.Sizeof(vax.Specifier{}), 16},
		{"workload.Item", unsafe.Sizeof(Item{}), 24},
	} {
		if c.got > c.want {
			t.Errorf("%s is %d bytes, want ≤ %d", c.name, c.got, c.want)
		}
	}
}
