package telemetry

// The reference Chrome trace encoder: the reflective encoding/json
// exporter WriteTrace replaced, kept so the streaming encoder can be
// held to its exact bytes (it resolves the interned names back to
// strings before encoding). MatchOracle exposes the comparison to the
// external tests, which drive real runs; FuzzWriteTrace feeds both
// encoders synthetic events no run produces, and a metadata map that
// cannot be marshaled checks the encoder's first-error contract.

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"
)

// args materializes the event's argument map for the JSON exporter.
func (ev *traceEvent) args(tr *Tracer) map[string]any {
	switch ev.AK {
	case argsMap:
		return tr.metaArgs[ev.A]
	case argsEntry:
		return map[string]any{"entry": tr.names.strs[ev.AS]}
	case argsPC:
		return map[string]any{"pc": ev.A}
	case argsHandlerPC:
		return map[string]any{"handler_pc": ev.A}
	case argsFromTo:
		return map[string]any{"from": ev.A, "to": ev.B}
	case argsVA:
		return map[string]any{"va": ev.A}
	}
	return nil
}

// wireEvent is the trace_event JSON record (the subset Perfetto
// consumes).
type wireEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Cat  string         `json:"cat,omitempty"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// traceFile is the JSON object format of the trace_event spec.
type traceFile struct {
	TraceEvents     []wireEvent    `json:"traceEvents"`
	DisplayTimeUnit string         `json:"displayTimeUnit"`
	OtherData       map[string]any `json:"otherData,omitempty"`
}

// oracleWriteTrace writes the collected timeline as trace_event JSON
// through encoding/json reflection.
func oracleWriteTrace(tr *Tracer, w io.Writer) error {
	evs := make([]wireEvent, len(tr.events))
	for i, ev := range tr.events {
		we := wireEvent{
			Name: tr.names.strs[ev.Name], Ph: string(rune(ev.Ph)), Pid: int(ev.Pid), Tid: int(ev.Tid),
			Args: ev.args(tr),
		}
		if ev.S != 0 {
			we.S = string(rune(ev.S))
		}
		if we.Ph != "M" {
			we.Ts = cycleMicros(ev.Start)
		}
		if we.Ph == "X" {
			we.Dur = cycleMicros(ev.End) - cycleMicros(ev.Start)
		}
		evs[i] = we
	}
	f := traceFile{
		TraceEvents:     evs,
		DisplayTimeUnit: "ns",
		OtherData: map[string]any{
			"source":      "vax780 telemetry layer",
			"cycle_ns":    200,
			"truncated":   tr.truncated,
			"event_count": len(tr.events),
		},
	}
	enc := json.NewEncoder(w)
	return enc.Encode(f)
}

// MatchOracle requires t's Chrome trace export to be byte-identical to
// the reference encoder's.
func MatchOracle(tb testing.TB, t *Telemetry) {
	tb.Helper()
	if t.tr == nil {
		tb.Fatal("tracing disabled")
	}
	t.Finish()
	matchOracle(tb, t.tr)
}

// newTestTracer builds an empty uncapped tracer over a table holding
// only the fixed names.
func newTestTracer() *Tracer {
	return &Tracer{max: -1, names: newNameTable()}
}

// FuzzWriteTrace builds a tracer from synthetic events — names and
// labels with HTML metacharacters, line separators and invalid UTF-8,
// cycles up to MaxUint64, extreme argument values, every argument kind,
// phase and scope — and requires the streaming encoder to reproduce the
// reference encoder's bytes.
func FuzzWriteTrace(f *testing.F) {
	f.Add("ADDL3", "exec.addl", uint64(0), uint64(1), uint32(0x200), uint32(0), uint8(0), false)
	f.Add("<a&b>", "  ", uint64(5), uint64(5), uint32(math.MaxUint32), uint32(1), uint8(3), true)
	f.Add("bad\xff\xfeutf8", "tab\tquote\"slash\\", uint64(math.MaxUint64), uint64(math.MaxUint64), uint32(0), uint32(math.MaxUint32), uint8(6), false)
	f.Add("line\u2028para\u2029", "", uint64(1)<<60, uint64(1)<<60+1, uint32(7), uint32(9), uint8(255), true)
	f.Fuzz(func(t *testing.T, name, label string, start, end uint64, a, b uint32, kind uint8, truncated bool) {
		tr := newTestTracer()
		tr.meta()
		n, l := tr.names.intern(name), tr.names.intern(label)
		ak := argKind(kind) % (argsVA + 1)
		if ak == argsMap {
			ak = argsNone
		}
		tr.slice(n, tidRegion, start, end, ak, l, a, b)
		tr.emit(traceEvent{Name: l, Ph: 'X', Pid: 1, Tid: tidInstr, Start: start, End: end, AK: argsEntry, AS: n})
		tr.instant(n, tidEvents, start, argsFromTo, a, b)
		tr.instant(l, tidEvents, end, argsVA, b, a)
		tr.instant(nameInterrupt, tidEvents, start^end, argsHandlerPC, a^b, 0)
		tr.emit(traceEvent{Name: n, Ph: 'i', S: "gpt"[kind%3], Pid: 1, Tid: tidEvents, Start: end, AK: ak, AS: l, A: a, B: b})
		tr.phase(start, label)
		tr.slice(nameStall, tidStall, end, start, argsNone, 0, 0, 0)
		tr.emit(traceEvent{Name: n, Ph: 'M', Pid: a, Tid: int32(b), Start: start,
			AK: argsMap, A: uint32(len(tr.metaArgs))})
		tr.metaArgs = append(tr.metaArgs, map[string]any{label: name, "sort_index": int(b)})
		tr.truncated = truncated
		matchOracle(t, tr)
	})
}

// TestWriteTraceMetadataMarshalError: a metadata map that cannot be
// marshaled fails the export with the marshal error, and none of the
// trace reaches the writer — also when the failing event is the one
// that fills the buffer, so a flush follows it.
func TestWriteTraceMetadataMarshalError(t *testing.T) {
	tr := newTestTracer()
	filler := traceEvent{Name: tr.names.intern(""), Ph: 'i', Pid: 1, Tid: tidEvents}
	recordLen := func(ev traceEvent) int {
		tw := tr.newWriter(nil)
		tw.event(&ev)
		return len(tw.buf)
	}
	// The filler's name leaves exactly traceEventRoom bytes free, so the
	// failing event after it triggers the flush.
	filler.Name = tr.names.intern(strings.Repeat("x", traceBufSize-traceEventRoom-len(`{"traceEvents":[`)-recordLen(filler)))
	tr.emit(filler)
	tr.metadata("bad", 0, map[string]any{"ch": make(chan int)})
	tr.instant(nameInterrupt, tidEvents, 1, argsHandlerPC, 0x200, 0)
	var w bytes.Buffer
	err := tr.WriteTrace(&w)
	var ute *json.UnsupportedTypeError
	if !errors.As(err, &ute) {
		t.Fatalf("WriteTrace returned %v, want the metadata marshal error", err)
	}
	if w.Len() != 0 {
		t.Errorf("%d bytes written after the marshal error, want none", w.Len())
	}
}

// matchOracle requires WriteTrace to emit exactly the reference
// encoder's bytes for tr.
func matchOracle(tb testing.TB, tr *Tracer) {
	tb.Helper()
	var got, want bytes.Buffer
	if err := oracleWriteTrace(tr, &want); err != nil {
		tb.Fatalf("reference encoder: %v", err)
	}
	if err := tr.WriteTrace(&got); err != nil {
		tb.Fatalf("WriteTrace: %v", err)
	}
	g, w := got.Bytes(), want.Bytes()
	if bytes.Equal(g, w) {
		return
	}
	i := 0
	for i < len(g) && i < len(w) && g[i] == w[i] {
		i++
	}
	from := max(i-80, 0)
	tb.Fatalf("WriteTrace differs from the reference encoder at byte %d of %d (want %d)\n got …%.160q\nwant …%.160q",
		i, len(g), len(w), g[from:], w[from:])
}

// TestTraceEventHoldsNoPointer: a trace record is a flat value of at
// most 48 bytes with no pointer anywhere in it, so a 50 000-event buffer
// is a few megabytes the garbage collector never scans.
func TestTraceEventHoldsNoPointer(t *testing.T) {
	typ := reflect.TypeOf(traceEvent{})
	if typ.Size() > 48 {
		t.Errorf("traceEvent is %d bytes, want at most 48", typ.Size())
	}
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				f := typ.Field(i)
				walk(path+"."+f.Name, f.Type)
			}
		case reflect.Array:
			walk(path+"[]", typ.Elem())
		case reflect.Pointer, reflect.UnsafePointer, reflect.Map, reflect.Slice,
			reflect.String, reflect.Interface, reflect.Chan, reflect.Func:
			t.Errorf("%s is a %s: it holds a pointer", path, typ.Kind())
		}
	}
	walk(typ.Name(), typ)
}
