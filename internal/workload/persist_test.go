package workload

import (
	"bytes"
	"testing"

	"vax780/internal/vax"
)

func TestTraceRoundTrip(t *testing.T) {
	orig, err := Generate(TimesharingA(4000))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	n, err := orig.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Errorf("WriteTo reported %d, wrote %d", n, buf.Len())
	}
	got, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != orig.Name {
		t.Errorf("name %q != %q", got.Name, orig.Name)
	}
	if len(got.Items) != len(orig.Items) {
		t.Fatalf("items %d != %d", len(got.Items), len(orig.Items))
	}
	for i := range orig.Items {
		a, b := orig.Items[i], got.Items[i]
		if a.Kind != b.Kind {
			t.Fatalf("item %d kind", i)
		}
		if a.Kind != KindInstr {
			if a.HandlerPC != b.HandlerPC {
				t.Fatalf("item %d handler", i)
			}
			continue
		}
		if a.In.Op != b.In.Op || a.In.PC != b.In.PC || a.In.Taken != b.In.Taken ||
			a.In.Target != b.In.Target || len(a.In.Specs) != len(b.In.Specs) {
			t.Fatalf("item %d instruction differs", i)
		}
	}
	if got.Program.Bytes() != orig.Program.Bytes() {
		t.Errorf("program bytes %d != %d", got.Program.Bytes(), orig.Program.Bytes())
	}
	// Every materialized byte must survive.
	checked := 0
	for _, it := range orig.Items {
		if it.Kind != KindInstr {
			continue
		}
		for off := 0; off < it.In.Size(); off++ {
			va := it.In.PC + uint32(off)
			ob, _ := orig.Program.Byte(va)
			gb, ok := got.Program.Byte(va)
			if !ok || gb != ob {
				t.Fatalf("byte %#x differs", va)
			}
		}
		if checked++; checked > 300 {
			break
		}
	}
	checkPCChain(t, got)
}

func TestReadTraceErrors(t *testing.T) {
	if _, err := ReadTrace(bytes.NewReader(nil)); err == nil {
		t.Error("empty trace accepted")
	}
	if _, err := ReadTrace(bytes.NewReader([]byte("garbage"))); err == nil {
		t.Error("garbage trace accepted")
	}
}

// TestReadTraceRejectsPageWithoutUsedMap: ReadTrace reads the code image
// byte by byte to check it against the records, so a file whose page has
// no used map must be an error, not a nil dereference.
func TestReadTraceRejectsPageWithoutUsedMap(t *testing.T) {
	in := &vax.Instr{Op: vax.NOP, PC: 0x1000}
	tr := &Trace{Program: NewProgram(), Items: []Item{{Kind: KindInstr, In: in}}}
	if err := tr.Program.PutInstr(in); err != nil {
		t.Fatal(err)
	}
	delete(tr.Program.used, in.PC/pageSize)
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadTrace(&buf); err == nil {
		t.Error("ReadTrace accepted a page without a used map")
	}
}
