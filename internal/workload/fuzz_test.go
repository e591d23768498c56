package workload_test

import (
	"bytes"
	"encoding/gob"
	"errors"
	"strings"
	"testing"

	"vax780/internal/ebox"
	"vax780/internal/machine"
	"vax780/internal/upc"
	"vax780/internal/vax"
	"vax780/internal/workload"
)

// encodeTrace returns a trace's wire bytes.
func encodeTrace(tb testing.TB, tr *workload.Trace) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// unrunnable returns traces that decode cleanly but that no machine can
// execute: each holds one item the machine would dereference, index or
// loop on without bound, or whose code image disagrees with the record
// the EBOX dispatches from.
func unrunnable() []*workload.Trace {
	one := func(name string, it workload.Item) *workload.Trace {
		return &workload.Trace{Name: name, Program: workload.NewProgram(), Items: []workload.Item{it}}
	}
	instr := func(name string, in *vax.Instr) *workload.Trace {
		return one(name, workload.Item{Kind: workload.KindInstr, In: in})
	}
	// One flipped code byte: the image holds an index prefix where the
	// record's first specifier is register mode.
	flipped := &vax.Instr{Op: vax.MOVL, PC: 0x1000, Specs: []vax.Specifier{
		{Mode: vax.ModeRegister, Reg: 1, Index: -1},
		{Mode: vax.ModeRegister, Reg: 2, Index: -1},
	}}
	code := vax.Encode(nil, flipped)
	code[1] ^= 0x10
	flippedTrace := instr("flipped code byte", flipped)
	if err := flippedTrace.Program.Put(flipped.PC, code); err != nil {
		panic(err)
	}
	return []*workload.Trace{
		flippedTrace,
		one("nil instruction", workload.Item{Kind: workload.KindInstr}),
		instr("undefined opcode", &vax.Instr{Op: 0xFF}),
		instr("missing specifier", &vax.Instr{Op: vax.MOVL}),
		one("unknown kind", workload.Item{Kind: 7}),
		instr("unbounded string", &vax.Instr{Op: vax.MOVC3, StrLen: 1 << 40, Specs: []vax.Specifier{
			{Mode: vax.ModeRegister, Reg: 1, Index: -1},
			{Mode: vax.ModeRegDeferred, Reg: 2, Index: -1},
			{Mode: vax.ModeRegDeferred, Reg: 3, Index: -1},
		}}),
	}
}

// Wire shapes of trace files written when a specifier's mode, register
// and index were ints: gob matches fields by name, so these encode what
// such a file holds.
type (
	wideSpec struct {
		Mode, Reg, Index int
		Disp             int32
	}
	wideInstr struct {
		Op    vax.Opcode
		Specs []wideSpec
		PC    uint32
	}
	wideItem struct {
		Kind workload.Kind
		In   *wideInstr
	}
	wideTrace struct {
		Name    string
		Program *workload.Program
		Items   []wideItem
	}
)

// wideRegisterTraces returns trace files, in the wire form of int
// specifier fields, whose register, index or mode does not fit the
// signed byte a Specifier now holds it in.
func wideRegisterTraces(tb testing.TB) (names []string, files [][]byte) {
	tb.Helper()
	reg := func(r int) wideSpec { return wideSpec{Mode: int(vax.ModeRegister), Reg: r, Index: -1} }
	for _, c := range []struct {
		name string
		spec wideSpec
	}{
		{"register 300", reg(300)},
		{"register -200", reg(-200)},
		{"index 200", wideSpec{Mode: int(vax.ModeRegDeferred), Reg: 1, Index: 200}},
		{"mode 1000", wideSpec{Mode: 1000, Reg: 1, Index: -1}},
	} {
		tr := wideTrace{Name: c.name, Program: workload.NewProgram(), Items: []wideItem{{
			Kind: workload.KindInstr,
			In:   &wideInstr{Op: vax.MOVL, PC: 0x1000, Specs: []wideSpec{c.spec, reg(2)}},
		}}}
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(tr); err != nil {
			tb.Fatal(err)
		}
		names = append(names, c.name)
		files = append(files, buf.Bytes())
	}
	return names, files
}

// TestReadTraceRejectsWideRegisters: narrowing the specifier fields must
// not let an out-of-range register, index or mode through by wrapping
// it; the decode itself refuses the value.
func TestReadTraceRejectsWideRegisters(t *testing.T) {
	names, files := wideRegisterTraces(t)
	for i, data := range files {
		_, err := workload.ReadTrace(bytes.NewReader(data))
		if err == nil || !strings.Contains(err.Error(), "out of range") {
			t.Errorf("%s: ReadTrace = %v, want an out-of-range decode error", names[i], err)
		}
	}
}

func TestReadTraceRejectsUnrunnableItems(t *testing.T) {
	for _, tr := range unrunnable() {
		if _, err := workload.ReadTrace(bytes.NewReader(encodeTrace(t, tr))); err == nil {
			t.Errorf("%s: ReadTrace accepted it", tr.Name)
		}
	}
}

// FuzzReadTrace: whatever ReadTrace accepts must run on a Strict machine
// without panicking, and without the IB decode disagreeing with the
// record the EBOX dispatched from (any other error is fine). The seeds
// are a small generated trace, the unrunnable traces ReadTrace must
// reject and trace files whose registers do not fit a Specifier.
func FuzzReadTrace(f *testing.F) {
	tr, err := workload.Generate(workload.TimesharingA(300))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(encodeTrace(f, tr))
	for _, bad := range unrunnable() {
		f.Add(encodeTrace(f, bad))
	}
	_, wide := wideRegisterTraces(f)
	for _, data := range wide {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := workload.ReadTrace(bytes.NewReader(data))
		if err != nil {
			return
		}
		mon := upc.New()
		mon.Start()
		m := machine.New(machine.Config{Monitor: mon, Strict: true}, tr.Program)
		if err := m.Run(tr.Stream()); errors.Is(err, ebox.ErrDecodeMismatch) {
			t.Fatalf("ReadTrace accepted a trace the IB decodes differently: %v", err)
		}
	})
}
