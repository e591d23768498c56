// Chrome trace-event exporter: renders the simulated machine's per-cycle
// activity — microcode flows by control-store region, read/write stalls,
// instruction decode slices, interrupts, and context switches — as a
// trace_event JSON timeline loadable in chrome://tracing or Perfetto.
// One EBOX cycle is 200 ns = 0.2 µs of trace time.

package telemetry

import (
	"encoding/json"
	"io"
	"math"
	"slices"
	"strconv"
	"sync/atomic"

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

// argKind tags the typed argument payload of a trace event. The
// collector is on the simulation hot path (one call per EBOX cycle with
// tracing enabled), so events carry their arguments as plain fields,
// and WriteTrace encodes those fields straight into the JSON args
// object: no map is built per event, at collection or at export. Only
// the cold metadata events (emitted at construction) carry a map, kept
// in the tracer's side slice.
type argKind uint8

const (
	argsNone      argKind = iota
	argsMap               // cold path: Tracer.metaArgs[A]
	argsEntry             // {"entry": AS}
	argsPC                // {"pc": A}
	argsHandlerPC         // {"handler_pc": A}
	argsFromTo            // {"from": A, "to": B}
	argsVA                // {"va": A}
)

// traceEvent is one collected trace record: a fixed 40-byte value
// holding no pointer, so the event buffer is neither scanned by the
// garbage collector nor written through write barriers. Strings are ids
// into the tracer's name table, and Ph and S are ASCII letters.
// Timestamps are integer cycles (not float microseconds) so a child
// tracer's events can be shifted onto the parent timeline bit-exactly
// at merge; the float conversion happens once, at write time.
type traceEvent struct {
	Start uint64 // cycle (unused by metadata events)
	End   uint64 // cycle, exclusive (complete "X" events only)
	A, B  uint32 // typed argument payload (see argKind)
	Pid   uint32
	Tid   int32
	Name  uint16 // name id
	AS    uint16 // name id of the string argument (argsEntry)
	Ph    byte   // 'X' complete, 'i' instant, 'M' metadata
	S     byte   // instant scope letter; 0 leaves the field out
	AK    argKind
}

// Fixed name ids: newNameTable interns fixedNames first, in order.
const (
	nameStall = iota
	nameInterrupt
	nameCtxSwitch
	nameTBMissD
	nameTBMissI
)

var fixedNames = [...]string{
	nameStall:     "stall",
	nameInterrupt: "interrupt",
	nameCtxSwitch: "context switch",
	nameTBMissD:   "TB miss (D)",
	nameTBMissI:   "TB miss (I)",
}

// nameTable interns every string a trace event carries. newTracer fills
// it with the fixed and metadata names, every region name and
// control-store label, and all 256 opcode names; after that only the
// parent tracer interns, on the goroutine that merges (phase names).
// Children carry ids into the parent's table and have no table of their
// own.
type nameTable struct {
	strs []string
	ids  map[string]uint16
}

func newNameTable() *nameTable {
	n := &nameTable{ids: make(map[string]uint16)}
	for _, s := range fixedNames {
		n.intern(s)
	}
	return n
}

// intern returns s's id, adding s to the table on first sight.
func (n *nameTable) intern(s string) uint16 {
	if id, ok := n.ids[s]; ok {
		return id
	}
	if len(n.strs) > math.MaxUint16 {
		panic("telemetry: more than 65536 distinct trace names")
	}
	id := uint16(len(n.strs))
	n.strs = append(n.strs, s)
	n.ids[s] = id
	return id
}

// flowNames are the name ids of a control-store address: its region and
// the label of the flow entry it belongs to.
type flowNames struct{ region, label uint16 }

// traceTables map the probe stream onto name ids. newTracer builds them
// once; its children share them read-only.
type traceTables struct {
	addr   []flowNames // control-store address -> region and entry label
	none   flowNames   // an address outside the control store
	opcode [256]uint16 // opcode -> mnemonic
}

// Tracer collects trace events from the probe stream. It coalesces
// consecutive cycles of the same control-store region into one slice,
// and consecutive stalled cycles into stall slices, so the event volume
// scales with activity changes rather than raw cycles.
//
// A tracer that has dropped an event drops every later one too (the
// buffer only grows), so once truncated it collects nothing: the hooks
// skip it and emit returns at once.
type Tracer struct {
	max       int // retained-event cap (<0: unlimited)
	events    []traceEvent
	truncated bool

	// A child's stop rule (nil dead on a parent): idx is the child's
	// position in merge order, and dead, shared by one run's children,
	// is the first index whose events cannot survive the merge. A child
	// at or past it stops at its next decode; see newChildren.
	idx  int64
	dead *atomic.Int64

	names    *nameTable
	metaArgs []map[string]any // metadata args, indexed by an argsMap event's A
	tab      *traceTables

	// open slices
	curRegion   uint16
	regionStart uint64
	regionLabel uint16
	haveRegion  bool

	stallStart uint64
	inStall    bool

	instrName  uint16
	instrPC    uint32
	instrStart uint64
	haveInstr  bool

	finished bool

	// The pad keeps these per-cycle fields off the cache line of the
	// next tracer: newChildren allocates a run's children together, and
	// two of them collect at once on different cores. Without it the
	// line ping-pongs between them every cycle.
	_ [64]byte
}

func newTracer(rom *urom.ROM, maxEvents int) *Tracer {
	names := newNameTable()
	size := rom.Image.Size()
	tab := &traceTables{
		addr: make([]flowNames, size),
		none: flowNames{region: names.intern(ucode.RegNone.String()), label: names.intern("")},
	}
	label := tab.none.label
	for addr := range tab.addr {
		mi := rom.Image.At(uint16(addr))
		if mi.Label != "" {
			label = names.intern(mi.Label)
		}
		tab.addr[addr] = flowNames{region: names.intern(mi.Region.String()), label: label}
	}
	for op := range tab.opcode {
		tab.opcode[op] = names.intern(vax.Opcode(op).String())
	}
	tr := &Tracer{
		max:    maxEvents,
		events: make([]traceEvent, 0, eventPrealloc(maxEvents)),
		names:  names,
		tab:    tab,
	}
	tr.meta()
	return tr
}

// eventPrealloc sizes a collector's event buffer, allocated at its first
// event: enough to absorb a busy run's region and instruction slices
// without repeated geometric growth (each growth copies every collected
// event), bounded so a high retained-event cap does not commit tens of
// megabytes up front.
func eventPrealloc(maxEvents int) int {
	const bound = 1 << 16
	if maxEvents < 0 || maxEvents > bound {
		return bound
	}
	return maxEvents
}

// newChildren builds the n per-workload tracers of one parallel
// composite run, in merge order. Each shares the parent's read-only
// tables, carries the parent's full event cap (so the merge — which
// re-applies the cap in workload order — reproduces exactly the
// sequential truncation point), and emits no metadata events (the
// parent already has them). Its buffer is allocated at its first event.
//
// The children share one dead index, lowered and never raised. A child
// i that reaches its own cap makes the parent truncate while absorbing
// it, because the parent already holds its metadata events, so no
// event of a child j > i can survive: child i lowers dead to i+1 when
// it truncates, and the merger does the same for child i once the
// parent has truncated. The index is scoped to this set of children, so
// a child truncated in a failed run, which is never merged, cannot stop
// a later run's children; it starts at 0, all dead, if the parent has
// already truncated.
func (tr *Tracer) newChildren(n int) []*Tracer {
	dead := new(atomic.Int64)
	if !tr.truncated {
		dead.Store(int64(n))
	}
	cs := make([]*Tracer, n)
	for i := range cs {
		cs[i] = &Tracer{max: tr.max, idx: int64(i), dead: dead, tab: tr.tab}
	}
	return cs
}

// stopped reports whether the stop rule has reached this child.
func (tr *Tracer) stopped() bool {
	return tr.dead != nil && tr.idx >= tr.dead.Load()
}

// lowerDead lowers a child set's dead index to i unless it is already
// lower.
func lowerDead(dead *atomic.Int64, i int64) {
	for cur := dead.Load(); i < cur && !dead.CompareAndSwap(cur, i); cur = dead.Load() {
	}
}

// meta emits the process/thread naming metadata events.
func (tr *Tracer) meta() {
	names := []struct {
		tid  int32
		name string
	}{
		{tidInstr, "VAX instructions"},
		{tidRegion, "microcode region"},
		{tidStall, "memory stalls"},
		{tidEvents, "system events"},
	}
	tr.metadata("process_name", 0, map[string]any{"name": "VAX-11/780 (simulated)"})
	for _, n := range names {
		tr.metadata("thread_name", n.tid, map[string]any{"name": n.name})
		tr.metadata("thread_sort_index", n.tid, map[string]any{"sort_index": int(n.tid)})
	}
}

// metadata appends a metadata ("M") event of the simulated process
// whose args are m; the cap does not apply.
func (tr *Tracer) metadata(name string, tid int32, m map[string]any) {
	tr.events = append(tr.events, traceEvent{
		Name: tr.names.intern(name), Ph: 'M', Pid: 1, Tid: tid, AK: argsMap, A: uint32(len(tr.metaArgs)),
	})
	tr.metaArgs = append(tr.metaArgs, m)
}

// emit appends an event unless the tracer is, or now becomes, truncated.
func (tr *Tracer) emit(ev traceEvent) {
	if tr.truncated {
		return
	}
	if tr.max >= 0 && len(tr.events) >= tr.max {
		// Reached the cap: a cold path, taken once per tracer. A child
		// kills every child after it (see newChildren).
		tr.truncated = true
		if tr.dead != nil {
			lowerDead(tr.dead, tr.idx+1)
		}
		return
	}
	if tr.events == nil {
		// A child's first event: if its events cannot survive the
		// merge, stop here rather than allocate a buffer.
		if tr.stopped() {
			tr.truncated = true
			return
		}
		tr.events = make([]traceEvent, 0, eventPrealloc(tr.max))
	}
	tr.events = append(tr.events, ev)
}

// slice emits a complete ("X") event spanning [start, end) cycles.
func (tr *Tracer) slice(name uint16, tid int32, start, end uint64, ak argKind, as uint16, a, b uint32) {
	if end <= start {
		end = start + 1
	}
	tr.emit(traceEvent{
		Name: name, Ph: 'X', Pid: 1, Tid: tid,
		Start: start, End: end, AK: ak, AS: as, A: a, B: b,
	})
}

// instant emits an instant ("i") event at the given cycle.
func (tr *Tracer) instant(name uint16, tid int32, at uint64, ak argKind, a, b uint32) {
	tr.emit(traceEvent{
		Name: name, Ph: 'i', S: 't', Pid: 1, Tid: tid,
		Start: at, AK: ak, A: a, B: b,
	})
}

// cycle observes one EBOX cycle at the given control-store address.
func (tr *Tracer) cycle(abs uint64, addr uint16, stalled bool) {
	tr.finished = false
	f := tr.tab.none
	if int(addr) < len(tr.tab.addr) {
		f = tr.tab.addr[addr]
	}
	if !tr.haveRegion {
		tr.curRegion, tr.regionStart, tr.regionLabel, tr.haveRegion = f.region, abs, f.label, true
	} else if f.region != tr.curRegion {
		tr.closeRegion(abs)
		tr.curRegion, tr.regionStart, tr.regionLabel = f.region, abs, f.label
	}

	if stalled && !tr.inStall {
		tr.inStall, tr.stallStart = true, abs
	} else if !stalled && tr.inStall {
		tr.slice(nameStall, tidStall, tr.stallStart, abs, argsNone, 0, 0, 0)
		tr.inStall = false
	}
}

func (tr *Tracer) closeRegion(end uint64) {
	tr.slice(tr.curRegion, tidRegion, tr.regionStart, end, argsEntry, tr.regionLabel, 0, 0)
}

// instr observes an instruction decode: the previous instruction's
// slice is closed and a new one opened. A child the stop rule has
// reached stops here.
func (tr *Tracer) instr(abs uint64, pc uint32, op vax.Opcode) {
	if tr.stopped() {
		tr.truncated = true
		return
	}
	if tr.haveInstr {
		tr.slice(tr.instrName, tidInstr, tr.instrStart, abs, argsPC, 0, tr.instrPC, 0)
	}
	tr.instrName, tr.instrPC, tr.instrStart, tr.haveInstr = tr.tab.opcode[op], pc, abs, true
}

func (tr *Tracer) interrupt(abs uint64, handler uint32) {
	tr.instant(nameInterrupt, tidEvents, abs, argsHandlerPC, handler, 0)
}

func (tr *Tracer) ctxSwitch(abs uint64, from, to uint32) {
	tr.instant(nameCtxSwitch, tidEvents, abs, argsFromTo, from, to)
}

func (tr *Tracer) tbMiss(abs uint64, istream bool, va uint32) {
	name := uint16(nameTBMissD)
	if istream {
		name = nameTBMissI
	}
	tr.instant(name, tidEvents, abs, argsVA, va, 0)
}

// phase marks a workload-experiment boundary. Only a parent tracer
// receives phases, so interning the name here is safe.
func (tr *Tracer) phase(abs uint64, name string) {
	tr.emit(traceEvent{
		Name: tr.names.intern("phase: " + name), Ph: 'i', S: 'g', Pid: 1, Tid: tidEvents,
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
		tr.slice(nameStall, tidStall, tr.stallStart, end, argsNone, 0, 0, 0)
		tr.inStall = false
	}
	if tr.haveInstr {
		tr.slice(tr.instrName, tidInstr, tr.instrStart, end, argsPC, 0, tr.instrPC, 0)
		tr.haveInstr = false
	}
}

// absorb appends a finished child tracer's events, shifted onto the
// parent timeline, in one pass. The cap is re-applied against the
// parent's running event count by emit's rule, so a merged trace
// truncates at exactly the byte the sequential trace would: the parent
// keeps as many events as it has room for, and truncates only if the
// child holds more (a child that exactly fills the room does not
// truncate it). Timestamps shift exactly because they are integer
// cycles, and names need no remapping because a child's ids are the
// parent's; nothing is re-derived. Once the parent has truncated, every
// later child of the run is dead.
func (tr *Tracer) absorb(child *Tracer, shift uint64) {
	if !tr.truncated {
		evs := child.events
		if tr.max >= 0 {
			if room := max(tr.max-len(tr.events), 0); len(evs) > room {
				evs, tr.truncated = evs[:room], true
			}
		}
		tr.events = slices.Grow(tr.events, len(evs))
		for _, ev := range evs {
			ev.Start += shift
			if ev.Ph == 'X' {
				ev.End += shift
			}
			tr.events = append(tr.events, ev)
		}
		// A child that hit its own cap dropped events the sequential
		// trace (which reaches the cap no later) would also have
		// dropped; a child stopped by the rule dropped only events the
		// parent would drop.
		if child.truncated {
			tr.truncated = true
		}
	}
	if tr.truncated && child.dead != nil {
		lowerDead(child.dead, child.idx+1)
	}
}

// Truncated reports whether the event cap dropped events.
func (tr *Tracer) Truncated() bool { return tr.truncated }

// Events returns the number of collected events.
func (tr *Tracer) Events() int { return len(tr.events) }

// Export buffering: WriteTrace encodes into one buffer of traceBufSize
// bytes and hands it to the writer whenever fewer than traceEventRoom
// bytes remain, so export memory stays constant in the event count. A
// writer that can grow (a bytes.Buffer) is grown once, by
// traceEventBytes per event, instead of doubling as the chunks arrive:
// encoded events average 109 bytes on the observed traces, so the
// whole export lands in one allocation.
const (
	traceBufSize    = 64 << 10
	traceEventRoom  = 1 << 10
	traceEventBytes = 112
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
	if g, ok := w.(interface{ Grow(int) }); ok {
		g.Grow(len(tr.events)*traceEventBytes + traceEventRoom)
	}
	tw := tr.newWriter(w)
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
// buffer, the first error the writer returned, the tracer's names and
// metadata args, the JSON-quoted form of every name id used so far, and
// a cache of formatted durations.
type traceWriter struct {
	w      io.Writer
	buf    []byte
	err    error
	names  []string
	meta   []map[string]any
	quoted [][]byte // name id -> quoted form (nil until first use)
	durs   *durCache
}

func (tr *Tracer) newWriter(w io.Writer) traceWriter {
	return traceWriter{
		w:      w,
		buf:    make([]byte, 0, traceBufSize),
		names:  tr.names.strs,
		meta:   tr.metaArgs,
		quoted: make([][]byte, len(tr.names.strs)),
		durs:   new(durCache),
	}
}

// appendMicros appends cycle c's trace time, cycleMicros(c), in
// AppendFloat's shortest 'f' form, using integer arithmetic where that
// is provably the same string. Below 2^50 cycles, when the product
// equals the correctly rounded quotient float64(c)/5, the double is the
// nearest one to the one-decimal value c/5 < 2^48. Doubles there are at
// most 2^-5 apart, so the double's rounding interval holds no other
// decimal with one fractional digit and no integer (unless c/5 is one),
// and its shortest form is c/5 itself: the integer part, then "." and
// 2·(c mod 5) when that is not 0. Every other value is formatted by
// AppendFloat.
func appendMicros(b []byte, c uint64) []byte {
	f := cycleMicros(c)
	if c >= 1<<50 || f != float64(c)/5 {
		return strconv.AppendFloat(b, f, 'f', -1, 64)
	}
	b = strconv.AppendUint(b, c/5, 10)
	if r := c % 5; r != 0 {
		b = append(b, '.', byte('0'+2*r))
	}
	return b
}

// durCache holds the formatted forms of recently exported durations,
// direct-mapped by the float's bits: a trace has few distinct durations
// (hundreds among tens of thousands of slices), and the cache's fixed
// size keeps export memory constant in the event count.
type durCache [1 << durCacheBits]durEntry

const durCacheBits = 10

// durEntry is one cache slot: a duration's bits and its AppendFloat
// form; n is 0 in an empty slot (no form is empty).
type durEntry struct {
	bits uint64
	n    uint8
	s    [23]byte
}

// durSlot is the cache slot of a duration's bits (Fibonacci hashing,
// so durations that differ only in low mantissa bits spread out).
func durSlot(bits uint64) uint64 { return bits * 0x9e3779b97f4a7c15 >> (64 - durCacheBits) }

// appendDur appends dur in AppendFloat's shortest 'f' form, from the
// cache when its slot holds it. A form too long for a slot is formatted
// each time.
func (tw *traceWriter) appendDur(b []byte, dur float64) []byte {
	bits := math.Float64bits(dur)
	e := &tw.durs[durSlot(bits)]
	if e.n != 0 && e.bits == bits {
		return append(b, e.s[:e.n]...)
	}
	n := len(b)
	b = strconv.AppendFloat(b, dur, 'f', -1, 64)
	if s := b[n:]; len(s) <= len(e.s) {
		e.bits, e.n = bits, uint8(copy(e.s[:], s))
	}
	return b
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

// quote returns name id's string as a JSON string literal under
// encoding/json's escaping rules (HTML-safe, U+2028/U+2029 escaped,
// invalid UTF-8 replaced by U+FFFD). Each name is marshaled once, on
// first use, and reused.
func (tw *traceWriter) quote(id uint16) []byte {
	q := tw.quoted[id]
	if q == nil {
		q, _ = json.Marshal(tw.names[id]) // a string always marshals
		tw.quoted[id] = q
	}
	return q
}

// event appends one trace_event record; ts is 0 on metadata events.
// Times are AppendFloat's shortest 'f' form, which is encoding/json's
// float64 format for every value a trace holds: 0, or at least 0.2 µs
// and below 0.2 × 2^64 < 1e21. appendMicros writes that form of a
// timestamp with integers where it provably can, and appendDur caches
// the form of each duration; both produce AppendFloat's exact bytes.
func (tw *traceWriter) event(ev *traceEvent) {
	b := append(tw.buf, `{"name":`...)
	b = append(b, tw.quote(ev.Name)...)
	b = append(b, `,"ph":"`...)
	b = append(b, ev.Ph, '"')
	b = append(b, `,"ts":`...)
	if ev.Ph == 'M' {
		b = append(b, '0')
	} else {
		b = appendMicros(b, ev.Start)
	}
	if ev.Ph == 'X' {
		if dur := cycleMicros(ev.End) - cycleMicros(ev.Start); dur != 0 {
			b = append(b, `,"dur":`...)
			b = tw.appendDur(b, dur)
		}
	}
	b = append(b, `,"pid":`...)
	b = strconv.AppendInt(b, int64(ev.Pid), 10)
	b = append(b, `,"tid":`...)
	b = strconv.AppendInt(b, int64(ev.Tid), 10)
	if ev.S != 0 {
		b = append(b, `,"s":"`...)
		b = append(b, ev.S, '"')
	}
	switch ev.AK {
	case argsMap:
		if m := tw.meta[ev.A]; len(m) > 0 {
			js, err := json.Marshal(m) // cold path: metadata events only
			if err != nil {
				tw.err = err
			}
			b = append(b, `,"args":`...)
			b = append(b, js...)
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
