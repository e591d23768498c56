// Chrome trace-event exporter: renders the simulated machine's per-cycle
// activity — microcode flows by control-store region, read/write stalls,
// instruction decode slices, interrupts, and context switches — as a
// trace_event JSON timeline loadable in chrome://tracing or Perfetto.
// One EBOX cycle is 200 ns = 0.2 µs of trace time.

package telemetry

import (
	"encoding/json"
	"io"
	"strconv"

	"vax780/internal/ucode"
	"vax780/internal/urom"
	"vax780/internal/vax"
)

// Trace track (tid) assignment within the single simulated process.
const (
	tidInstr  = 1 // instruction decode slices
	tidRegion = 2 // microcode flow slices by control-store region
	tidStall  = 3 // read/write stall slices
	tidEvents = 4 // interrupts, context switches, TB misses
)

// cycleMicros converts an absolute cycle number to trace microseconds.
func cycleMicros(cycle uint64) float64 { return float64(cycle) * 0.2 }

// argKind tags the typed argument payload of a hot-path trace event.
// The collector is on the simulation hot path (one call per EBOX cycle
// with tracing enabled), so events carry their arguments as plain
// fields, and WriteTrace encodes those fields straight into the JSON
// args object: no map is built per event, at collection or at export.
// Only the cold metadata events (emitted at construction) carry a
// prebuilt map.
type argKind uint8

const (
	argsNone      argKind = iota
	argsMap               // cold path: prebuilt map in M
	argsEntry             // {"entry": AS}
	argsPC                // {"pc": A}
	argsHandlerPC         // {"handler_pc": A}
	argsFromTo            // {"from": A, "to": B}
	argsVA                // {"va": A}
)

// traceEvent is one collected trace record. Timestamps are kept in
// integer cycles (not float microseconds) so a child tracer's events
// can be shifted onto the parent timeline bit-exactly at merge; the
// float conversion happens once, at write time.
type traceEvent struct {
	Name  string
	Ph    string
	Start uint64 // cycle (unused by metadata events)
	End   uint64 // cycle, exclusive (complete "X" events only)
	Pid   int
	Tid   int
	S     string

	// Typed argument payload (see argKind).
	AK   argKind
	AS   string
	A, B uint32
	M    map[string]any
}

// Tracer collects trace events from the probe stream. It coalesces
// consecutive cycles of the same control-store region into one slice,
// and consecutive stalled cycles into stall slices, so the event volume
// scales with activity changes rather than raw cycles.
type Tracer struct {
	max    int // retained-event cap (<0: unlimited)
	events []traceEvent

	region []ucode.Region // control-store address -> region
	label  []string       // control-store address -> flow entry label

	// open slices
	curRegion   ucode.Region
	regionStart uint64
	regionLabel string
	haveRegion  bool

	stallStart uint64
	inStall    bool

	instrName  string
	instrPC    uint32
	instrStart uint64
	haveInstr  bool

	truncated bool
	finished  bool
}

func newTracer(rom *urom.ROM, maxEvents int) *Tracer {
	size := rom.Image.Size()
	tr := &Tracer{
		max:    maxEvents,
		events: make([]traceEvent, 0, eventPrealloc(maxEvents)),
		region: make([]ucode.Region, size),
		label:  make([]string, size),
	}
	var lastLabel string
	for addr := 0; addr < size; addr++ {
		mi := rom.Image.At(uint16(addr))
		tr.region[addr] = mi.Region
		if mi.Label != "" {
			lastLabel = mi.Label
		}
		tr.label[addr] = lastLabel
	}
	tr.meta()
	return tr
}

// eventPrealloc sizes the collector's initial event buffer: enough to
// absorb a busy run's region and instruction slices without repeated
// geometric growth (each growth copies every collected event), bounded
// so a high retained-event cap does not commit tens of megabytes up
// front.
func eventPrealloc(maxEvents int) int {
	const bound = 1 << 16
	if maxEvents < 0 || maxEvents > bound {
		return bound
	}
	return maxEvents
}

// newChildTracer builds a per-workload tracer for a parallel composite
// run: it shares the parent's read-only address tables, carries the
// parent's full event cap (so the merge — which re-applies the cap in
// workload order — reproduces exactly the sequential truncation
// point), and emits no metadata events (the parent already has them).
func newChildTracer(parent *Tracer) *Tracer {
	return &Tracer{
		max:    parent.max,
		events: make([]traceEvent, 0, eventPrealloc(parent.max)),
		region: parent.region,
		label:  parent.label,
	}
}

// meta emits the process/thread naming metadata events.
func (tr *Tracer) meta() {
	names := []struct {
		tid  int
		name string
	}{
		{tidInstr, "VAX instructions"},
		{tidRegion, "microcode region"},
		{tidStall, "memory stalls"},
		{tidEvents, "system events"},
	}
	tr.events = append(tr.events, traceEvent{
		Name: "process_name", Ph: "M", Pid: 1,
		AK: argsMap, M: map[string]any{"name": "VAX-11/780 (simulated)"},
	})
	for _, n := range names {
		tr.events = append(tr.events, traceEvent{
			Name: "thread_name", Ph: "M", Pid: 1, Tid: n.tid,
			AK: argsMap, M: map[string]any{"name": n.name},
		})
		tr.events = append(tr.events, traceEvent{
			Name: "thread_sort_index", Ph: "M", Pid: 1, Tid: n.tid,
			AK: argsMap, M: map[string]any{"sort_index": n.tid},
		})
	}
}

// emit appends an event unless the cap is reached.
func (tr *Tracer) emit(ev traceEvent) {
	if tr.max >= 0 && len(tr.events) >= tr.max {
		tr.truncated = true
		return
	}
	tr.events = append(tr.events, ev)
}

// slice emits a complete ("X") event spanning [start, end) cycles.
func (tr *Tracer) slice(name string, tid int, start, end uint64, ak argKind, as string, a, b uint32) {
	if end <= start {
		end = start + 1
	}
	tr.emit(traceEvent{
		Name: name, Ph: "X", Pid: 1, Tid: tid,
		Start: start, End: end, AK: ak, AS: as, A: a, B: b,
	})
}

// instant emits an instant ("i") event at the given cycle.
func (tr *Tracer) instant(name string, tid int, at uint64, ak argKind, a, b uint32) {
	tr.emit(traceEvent{
		Name: name, Ph: "i", S: "t", Pid: 1, Tid: tid,
		Start: at, AK: ak, A: a, B: b,
	})
}

// cycle observes one EBOX cycle at the given control-store address.
func (tr *Tracer) cycle(abs uint64, addr uint16, stalled bool) {
	tr.finished = false
	r := ucode.RegNone
	lbl := ""
	if int(addr) < len(tr.region) {
		r = tr.region[addr]
		lbl = tr.label[addr]
	}
	if !tr.haveRegion {
		tr.curRegion, tr.regionStart, tr.regionLabel, tr.haveRegion = r, abs, lbl, true
	} else if r != tr.curRegion {
		tr.closeRegion(abs)
		tr.curRegion, tr.regionStart, tr.regionLabel = r, abs, lbl
	}

	if stalled && !tr.inStall {
		tr.inStall, tr.stallStart = true, abs
	} else if !stalled && tr.inStall {
		tr.slice("stall", tidStall, tr.stallStart, abs, argsNone, "", 0, 0)
		tr.inStall = false
	}
}

func (tr *Tracer) closeRegion(end uint64) {
	tr.slice(tr.curRegion.String(), tidRegion, tr.regionStart, end, argsEntry, tr.regionLabel, 0, 0)
}

// instr observes an instruction decode: the previous instruction's
// slice is closed and a new one opened.
func (tr *Tracer) instr(abs uint64, pc uint32, op vax.Opcode) {
	if tr.haveInstr {
		tr.slice(tr.instrName, tidInstr, tr.instrStart, abs, argsPC, "", tr.instrPC, 0)
	}
	tr.instrName, tr.instrPC, tr.instrStart, tr.haveInstr = op.String(), pc, abs, true
}

func (tr *Tracer) interrupt(abs uint64, handler uint32) {
	tr.instant("interrupt", tidEvents, abs, argsHandlerPC, handler, 0)
}

func (tr *Tracer) ctxSwitch(abs uint64, from, to uint32) {
	tr.instant("context switch", tidEvents, abs, argsFromTo, from, to)
}

func (tr *Tracer) tbMiss(abs uint64, istream bool, va uint32) {
	name := "TB miss (D)"
	if istream {
		name = "TB miss (I)"
	}
	tr.instant(name, tidEvents, abs, argsVA, va, 0)
}

// phase marks a workload-experiment boundary.
func (tr *Tracer) phase(abs uint64, name string) {
	tr.emit(traceEvent{
		Name: "phase: " + name, Ph: "i", S: "g", Pid: 1, Tid: tidEvents,
		Start: abs,
	})
}

// finish closes every open slice at the given end cycle.
func (tr *Tracer) finish(end uint64) {
	if tr.finished {
		return
	}
	tr.finished = true
	if tr.haveRegion && end > tr.regionStart {
		tr.closeRegion(end)
		tr.haveRegion = false
	}
	if tr.inStall {
		tr.slice("stall", tidStall, tr.stallStart, end, argsNone, "", 0, 0)
		tr.inStall = false
	}
	if tr.haveInstr {
		tr.slice(tr.instrName, tidInstr, tr.instrStart, end, argsPC, "", tr.instrPC, 0)
		tr.haveInstr = false
	}
}

// absorb appends a finished child tracer's events, shifted onto the
// parent timeline. The cap is re-applied against the parent's running
// event count, so a merged trace truncates at exactly the byte the
// sequential trace would. Timestamps shift exactly because they are
// integer cycles; nothing is re-derived.
func (tr *Tracer) absorb(child *Tracer, shift uint64) {
	for _, ev := range child.events {
		ev.Start += shift
		if ev.Ph == "X" {
			ev.End += shift
		}
		tr.emit(ev)
	}
	// A child that hit its own cap dropped events the sequential trace
	// (which reaches the cap no later) would also have dropped.
	if child.truncated {
		tr.truncated = true
	}
}

// Truncated reports whether the event cap dropped events.
func (tr *Tracer) Truncated() bool { return tr.truncated }

// Events returns the number of collected events.
func (tr *Tracer) Events() int { return len(tr.events) }

// Export buffering: WriteTrace encodes into one buffer of traceBufSize
// bytes and hands it to the writer whenever fewer than traceEventRoom
// bytes remain, so export memory stays constant in the event count.
const (
	traceBufSize   = 64 << 10
	traceEventRoom = 1 << 10
)

// WriteTrace writes the collected timeline as trace_event JSON. The
// telemetry layer's Finish must have closed the open slices first
// (Telemetry.WriteTrace does this).
//
// The output is byte-for-byte what encoding/json emits for the
// trace_event object model: events carry the fields name, ph, ts, dur,
// pid, tid, s, args in that order, with dur, s and args left out when
// empty; object keys inside args and otherData are sorted; a newline
// ends the document.
func (tr *Tracer) WriteTrace(w io.Writer) error {
	tw := traceWriter{
		w:      w,
		buf:    make([]byte, 0, traceBufSize),
		quoted: make(map[string][]byte),
	}
	tw.buf = append(tw.buf, `{"traceEvents":[`...)
	for i := range tr.events {
		if i > 0 {
			tw.buf = append(tw.buf, ',')
		}
		tw.event(&tr.events[i])
		if cap(tw.buf)-len(tw.buf) < traceEventRoom {
			tw.flush()
		}
		if tw.err != nil {
			return tw.err
		}
	}
	b := append(tw.buf, `],"displayTimeUnit":"ns","otherData":{"cycle_ns":200,"event_count":`...)
	b = strconv.AppendInt(b, int64(len(tr.events)), 10)
	b = append(b, `,"source":"vax780 telemetry layer","truncated":`...)
	b = strconv.AppendBool(b, tr.truncated)
	tw.buf = append(b, "}}\n"...)
	tw.flush()
	return tw.err
}

// traceWriter is WriteTrace's append-based encoder: a reused output
// buffer, the first error the writer returned, and the JSON-quoted form
// of every distinct string seen so far.
type traceWriter struct {
	w      io.Writer
	buf    []byte
	err    error
	quoted map[string][]byte
}

// flush hands the buffered bytes to the writer unless an error has
// already occurred: the first error wins, and nothing is written after
// it.
func (tw *traceWriter) flush() {
	if tw.err != nil {
		return
	}
	_, tw.err = tw.w.Write(tw.buf)
	tw.buf = tw.buf[:0]
}

// quote returns s as a JSON string literal under encoding/json's
// escaping rules (HTML-safe, U+2028/U+2029 escaped, invalid UTF-8
// replaced by U+FFFD). Names, labels and opcodes come from small fixed
// sets, so each is marshaled once and reused.
func (tw *traceWriter) quote(s string) []byte {
	q, ok := tw.quoted[s]
	if !ok {
		q, _ = json.Marshal(s) // a string always marshals
		tw.quoted[s] = q
	}
	return q
}

// event appends one trace_event record; ts is 0 on metadata events.
// Times are AppendFloat's shortest 'f' form, which is encoding/json's
// float64 format for every value a trace holds: 0, or at least 0.2 µs
// and below 0.2 × 2^64 < 1e21.
func (tw *traceWriter) event(ev *traceEvent) {
	b := append(tw.buf, `{"name":`...)
	b = append(b, tw.quote(ev.Name)...)
	b = append(b, `,"ph":`...)
	b = append(b, tw.quote(ev.Ph)...)
	b = append(b, `,"ts":`...)
	if ev.Ph == "M" {
		b = append(b, '0')
	} else {
		b = strconv.AppendFloat(b, cycleMicros(ev.Start), 'f', -1, 64)
	}
	if ev.Ph == "X" {
		if dur := cycleMicros(ev.End) - cycleMicros(ev.Start); dur != 0 {
			b = append(b, `,"dur":`...)
			b = strconv.AppendFloat(b, dur, 'f', -1, 64)
		}
	}
	b = append(b, `,"pid":`...)
	b = strconv.AppendInt(b, int64(ev.Pid), 10)
	b = append(b, `,"tid":`...)
	b = strconv.AppendInt(b, int64(ev.Tid), 10)
	if ev.S != "" {
		b = append(b, `,"s":`...)
		b = append(b, tw.quote(ev.S)...)
	}
	switch ev.AK {
	case argsMap:
		if len(ev.M) > 0 {
			m, err := json.Marshal(ev.M) // cold path: metadata events only
			if err != nil {
				tw.err = err
			}
			b = append(b, `,"args":`...)
			b = append(b, m...)
		}
	case argsEntry:
		b = append(b, `,"args":{"entry":`...)
		b = append(b, tw.quote(ev.AS)...)
		b = append(b, '}')
	case argsPC:
		b = appendUintArg(b, `,"args":{"pc":`, ev.A)
	case argsHandlerPC:
		b = appendUintArg(b, `,"args":{"handler_pc":`, ev.A)
	case argsFromTo:
		b = strconv.AppendUint(append(b, `,"args":{"from":`...), uint64(ev.A), 10)
		b = appendUintArg(b, `,"to":`, ev.B)
	case argsVA:
		b = appendUintArg(b, `,"args":{"va":`, ev.A)
	}
	tw.buf = append(b, '}')
}

// appendUintArg appends key (with its leading punctuation), v, and the
// closing brace of the args object.
func appendUintArg(b []byte, key string, v uint32) []byte {
	b = strconv.AppendUint(append(b, key...), uint64(v), 10)
	return append(b, '}')
}

// WriteTrace exports the Chrome trace; it returns an error when tracing
// was not enabled.
func (t *Telemetry) WriteTrace(w io.Writer) error {
	if t.tr == nil {
		return errTraceDisabled
	}
	t.Finish()
	return t.tr.WriteTrace(w)
}
