package workload

import (
	"bytes"
	"encoding/gob"
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

// rawProgram writes a hand-made code image in Program's wire form.
type rawProgram programGob

func (r rawProgram) GobEncode() ([]byte, error) {
	var buf writerBuffer
	err := gob.NewEncoder(&buf).Encode(programGob(r))
	return buf.b, err
}

// TestReadTraceRejectsPageWithoutUsedMap: ReadTrace reads the code image
// byte by byte to check it against the records, so a file whose page has
// no used map (or whose used map has no page) must be an error, not a
// nil dereference.
func TestReadTraceRejectsPageWithoutUsedMap(t *testing.T) {
	in := &vax.Instr{Op: vax.NOP, PC: 0x1000}
	prog := NewProgram()
	if err := prog.PutInstr(in); err != nil {
		t.Fatal(err)
	}
	pg := in.PC / pageSize
	page := prog.Page(in.PC)[:]
	used := make([]bool, pageSize)
	used[in.PC%pageSize] = true
	for name, img := range map[string]programGob{
		"page without used map": {Pages: map[uint32][]byte{pg: page}},
		"used map without page": {
			Pages: map[uint32][]byte{pg: page},
			Used:  map[uint32][]bool{pg: used, pg + 1: used},
		},
	} {
		file := struct {
			Name    string
			Program rawProgram
			Items   []Item
		}{name, rawProgram(img), []Item{{Kind: KindInstr, In: in}}}
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(file); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadTrace(&buf); err == nil {
			t.Errorf("ReadTrace accepted a trace file with a %s", name)
		}
	}
}
