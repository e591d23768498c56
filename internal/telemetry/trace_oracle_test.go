package telemetry

// The reference Chrome trace encoder: the reflective encoding/json
// exporter WriteTrace replaced, kept verbatim so the streaming encoder
// can be held to its exact bytes. MatchOracle exposes the comparison to
// the external tests, which drive real runs; FuzzWriteTrace feeds both
// encoders synthetic events no run produces, and a metadata map that
// cannot be marshaled checks the encoder's first-error contract.

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"strings"
	"testing"
)

// args materializes the event's argument map for the JSON exporter.
func (ev *traceEvent) args() map[string]any {
	switch ev.AK {
	case argsMap:
		return ev.M
	case argsEntry:
		return map[string]any{"entry": ev.AS}
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
			Name: ev.Name, Ph: ev.Ph, Pid: ev.Pid, Tid: ev.Tid,
			S: ev.S, Args: ev.args(),
		}
		if ev.Ph != "M" {
			we.Ts = cycleMicros(ev.Start)
		}
		if ev.Ph == "X" {
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

// FuzzWriteTrace builds a tracer from synthetic events — names and
// labels with HTML metacharacters, line separators and invalid UTF-8,
// cycles up to MaxUint64, extreme argument values, every argument kind
// and phase — and requires the streaming encoder to reproduce the
// reference encoder's bytes.
func FuzzWriteTrace(f *testing.F) {
	f.Add("ADDL3", "exec.addl", uint64(0), uint64(1), uint32(0x200), uint32(0), uint8(0), false)
	f.Add("<a&b>", "  ", uint64(5), uint64(5), uint32(math.MaxUint32), uint32(1), uint8(3), true)
	f.Add("bad\xff\xfeutf8", "tab\tquote\"slash\\", uint64(math.MaxUint64), uint64(math.MaxUint64), uint32(0), uint32(math.MaxUint32), uint8(6), false)
	f.Add("line\u2028para\u2029", "", uint64(1)<<60, uint64(1)<<60+1, uint32(7), uint32(9), uint8(255), true)
	f.Fuzz(func(t *testing.T, name, label string, start, end uint64, a, b uint32, kind uint8, truncated bool) {
		tr := &Tracer{max: -1, truncated: truncated}
		tr.meta()
		ak := argKind(kind) % (argsVA + 1)
		if ak == argsMap {
			ak = argsNone
		}
		tr.slice(name, tidRegion, start, end, ak, label, a, b)
		tr.emit(traceEvent{Name: label, Ph: "X", Pid: 1, Tid: tidInstr, Start: start, End: end, AK: argsEntry, AS: name})
		tr.instant(name, tidEvents, start, argsFromTo, a, b)
		tr.instant(label, tidEvents, end, argsVA, b, a)
		tr.instant("interrupt", tidEvents, start^end, argsHandlerPC, a^b, 0)
		tr.emit(traceEvent{Name: name, Ph: "i", S: label, Pid: 1, Tid: tidEvents, Start: end, AK: ak, AS: label, A: a, B: b})
		tr.phase(start, label)
		tr.slice("stall", tidStall, end, start, argsNone, "", 0, 0)
		tr.emit(traceEvent{Name: name, Ph: "M", Pid: int(a), Tid: int(int32(b)), Start: start,
			AK: argsMap, M: map[string]any{label: name, "sort_index": int(b)}})
		matchOracle(t, tr)
	})
}

// TestWriteTraceMetadataMarshalError: a metadata map that cannot be
// marshaled fails the export with the marshal error, and none of the
// trace reaches the writer — also when the failing event is the one
// that fills the buffer, so a flush follows it.
func TestWriteTraceMetadataMarshalError(t *testing.T) {
	bad := traceEvent{Name: "bad", Ph: "M", Pid: 1, AK: argsMap, M: map[string]any{"ch": make(chan int)}}
	filler := traceEvent{Name: "", Ph: "i", Pid: 1, Tid: tidEvents}
	recordLen := func(ev traceEvent) int {
		tw := traceWriter{quoted: make(map[string][]byte)}
		tw.event(&ev)
		return len(tw.buf)
	}
	// The filler's name leaves exactly traceEventRoom bytes free, so the
	// failing event after it triggers the flush.
	filler.Name = strings.Repeat("x", traceBufSize-traceEventRoom-len(`{"traceEvents":[`)-recordLen(filler))
	tr := &Tracer{max: -1}
	tr.emit(filler)
	tr.emit(bad)
	tr.instant("interrupt", tidEvents, 1, argsHandlerPC, 0x200, 0)
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
