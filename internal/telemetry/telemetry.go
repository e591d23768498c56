// Package telemetry is the live observability layer of the simulated
// VAX-11/780. The paper's measurement instrument was itself a passive
// observer — a histogram board that attributed every 200 ns cycle to an
// activity without perturbing the measured system (§2.2). This package
// extends that discipline to the reproduction: a set of zero-allocation
// event probes threaded through the machine, ebox, ibox, and mem layers
// (nil-check fast path when disabled), feeding
//
//   - live atomic counters, exported as Prometheus text and expvar;
//   - an interval recorder that snapshots the UPC histogram and memory
//     counters every N cycles into a per-interval CPI-decomposition
//     time series (CSV/JSON);
//   - a Chrome trace-event exporter that renders microcode flows,
//     stalls, and interrupts on a per-cycle timeline loadable in
//     chrome://tracing or Perfetto;
//   - an HTTP monitor mirroring the board's Unibus start/stop/clear/read
//     registers as endpoints, alongside net/http/pprof.
//
// All hook methods are called from the single simulation goroutine; the
// HTTP side reads only atomics and immutable published snapshots, so a
// live run can be watched concurrently without locks on the hot path.
package telemetry

import (
	"fmt"
	"math"
	"sync/atomic"

	"vax780/internal/ebox"
	"vax780/internal/mem"
	"vax780/internal/runlog"
	"vax780/internal/upc"
	"vax780/internal/urom"
	"vax780/internal/vax"
)

// Options configures a Telemetry instance.
type Options struct {
	// ROM is the microprogram the machine runs; the tracer and the
	// interval decomposition need its region map. Required when
	// TraceMaxEvents != 0.
	ROM *urom.ROM

	// IntervalCycles enables the interval recorder with the given
	// snapshot period in EBOX cycles (0 disables it).
	IntervalCycles uint64

	// TraceMaxEvents enables the Chrome trace-event collector with a cap
	// on retained events (0 disables tracing; negative means unlimited).
	TraceMaxEvents int
}

// Counters are the live atomic event counters. They are safe to read
// from any goroutine while a run executes. Cycles and StallCycles are
// read off the bound machine's EBOX clock, and IBRefills is counted in
// a plain field on the simulation goroutine; all three are published
// here at each instruction decode (and at every interval roll, Attach,
// Finish and Absorb), so a live reader lags the machine by at most one
// instruction. The other counters move per event.
type Counters struct {
	Cycles      atomic.Uint64 // every EBOX cycle
	StallCycles atomic.Uint64 // read- and write-stalled cycles
	Instrs      atomic.Uint64 // instruction decode events
	CacheMissD  atomic.Uint64 // D-stream (incl. PTE) cache read misses
	CacheMissI  atomic.Uint64 // I-stream cache read misses
	TBMissD     atomic.Uint64 // D-stream translation-buffer misses
	TBMissI     atomic.Uint64 // I-stream translation-buffer misses
	IBRefills   atomic.Uint64 // IB refill references issued
	Interrupts  atomic.Uint64 // interrupt deliveries
	CtxSwitches atomic.Uint64 // context switches (LDPCTX)
	Intervals   atomic.Uint64 // interval records rolled
}

// CPI returns cycles per decoded instruction so far.
func (c *Counters) CPI() float64 {
	in := c.Instrs.Load()
	if in == 0 {
		return 0
	}
	return float64(c.Cycles.Load()) / float64(in)
}

// Pending board-command bits (the Unibus CSR writes of the HTTP monitor,
// applied by the simulation goroutine at the next decode cycle).
const (
	cmdStart = 1 << iota
	cmdStop
	cmdClear
)

// Status bits published for the HTTP CSR view.
const (
	StatusRunning = 1 << iota
	StatusSaturated
)

// Telemetry is the concrete event sink. It implements the probe
// interfaces of the ebox, ibox, and mem packages, and receives
// machine-level events (decode, interrupt, context switch) directly.
type Telemetry struct {
	C Counters

	rom *urom.ROM
	rec *Recorder
	tr  *Tracer

	// offset maps the current machine's cycle counter onto the
	// continuous telemetry timeline: a composite run executes several
	// machines in sequence, each starting at cycle 0.
	offset uint64
	maxAbs uint64 // one past the last observed absolute cycle

	// mon/stats/clk are the currently bound machine's monitor, hardware
	// counters and EBOX clock (simulation goroutine only; clk is nil
	// for a caller that drives Cycle by hand, see Attach).
	mon   *upc.Monitor
	stats *mem.Stats
	clk   *ebox.Clock

	// pubNow and pubStalls are the bound clock's counts already
	// published into C, and refills the IB refills not yet published
	// (simulation goroutine only; see publishCounts).
	pubNow, pubStalls, refills uint64

	cmd    atomic.Uint32                 // pending board commands
	status atomic.Uint32                 // published CSR status bits
	snap   atomic.Pointer[boardSnapshot] // latest published histogram

	// watched is set once Handler builds the HTTP view. Until then no
	// reader of published board snapshots exists, so the interval
	// recorder skips the per-roll full-board dump and publish (a
	// headless run pays one delta pass per interval instead of two
	// snapshot copies plus two saturation scans). Board commands imply
	// a watcher and always publish.
	watched atomic.Bool

	// Live feeds attached by the run (events.go): the ledger's event bus
	// behind /events and the fleet tracker's snapshot closure behind
	// /progress and the host gauges.
	evBus  atomic.Pointer[runlog.Bus]
	progFn atomic.Pointer[progressFunc]
	profFn atomic.Pointer[profFunc]

	finished bool

	// The pad keeps these per-decode fields off the cache line of the
	// next sink, as Tracer's does: NewChildren allocates a run's
	// children together, and they run at once on different cores.
	_ [64]byte
}

// boardSnapshot is an immutable published readout of the board.
type boardSnapshot struct {
	Cycle uint64 // absolute cycle at which the snapshot was taken
	Hist  *upc.Histogram
}

// New builds a telemetry sink from opts.
func New(opts Options) *Telemetry {
	t := &Telemetry{rom: opts.ROM}
	if opts.IntervalCycles > 0 {
		t.rec = newRecorder(opts.IntervalCycles)
	}
	if opts.TraceMaxEvents != 0 {
		if opts.ROM == nil {
			panic("telemetry: tracing requires Options.ROM")
		}
		t.tr = newTracer(opts.ROM, opts.TraceMaxEvents)
	}
	return t
}

// ROM returns the microprogram bound at construction (may be nil).
func (t *Telemetry) ROM() *urom.ROM { return t.rom }

// Attach binds the next machine: its UPC monitor, hardware counters
// and EBOX clock. A composite run attaches once per workload machine;
// the telemetry timeline continues across machines. The previous
// machine's last counts are published and any partial recorder
// interval of it is closed first.
func (t *Telemetry) Attach(mon *upc.Monitor, stats *mem.Stats, clk *ebox.Clock) {
	t.sync()
	if t.rec != nil {
		t.rec.flush(t, t.maxAbs)
		t.rec.rebind(mon, stats, t.maxAbs)
	}
	t.offset = t.maxAbs
	t.mon = mon
	t.stats = stats
	t.clk = clk
	t.pubNow, t.pubStalls = 0, 0
	if clk != nil {
		t.pubNow, t.pubStalls = clk.Now, clk.Stalls
		clk.Horizon = t.horizon(clk.Now)
	}
	t.publishStatus()
}

// Phase marks a named phase boundary (one per workload experiment) on
// the trace timeline. Any trace slices left open by the previous
// machine are closed first: a workload boundary ends its flows, it
// does not let them span into an unrelated experiment — and closing
// them here (rather than at Attach) makes the sequential event stream
// identical to a parallel run's per-workload streams spliced in order.
func (t *Telemetry) Phase(name string) {
	t.sync()
	if t.tr != nil {
		t.tr.finish(t.maxAbs)
		t.tr.phase(t.maxAbs, name)
	}
}

// NewChildren builds n detached telemetry sinks with this instance's
// configuration: the same recorder period and trace cap, sharing the
// read-only ROM tables. A parallel composite run gives each workload
// machine its own child (observing from cycle 0), then splices the
// children back with Absorb in the order NewChildren returns them,
// which is the workload order. The children's tracers share one stop
// rule: a child whose events the merge is certain to drop stops
// collecting. Children have no HTTP side: board commands and published
// snapshots stay on the parent.
func (t *Telemetry) NewChildren(n int) []*Telemetry {
	var trs []*Tracer
	if t.tr != nil {
		trs = t.tr.newChildren(n)
	}
	cs := make([]*Telemetry, n)
	for i := range cs {
		c := &Telemetry{rom: t.rom}
		if t.rec != nil {
			c.rec = newRecorder(t.rec.period)
		}
		if trs != nil {
			c.tr = trs[i]
		}
		cs[i] = c
	}
	return cs
}

// Absorb splices a child sink's observations onto this timeline:
// counters are summed, recorder intervals are appended with their
// cycles shifted by the parent's current end-of-timeline, and trace
// events likewise. Called in NewChildren order, the result is bit-exact
// with a sequential run observing the same machines in that order.
// The child must not be observing concurrently during the call.
func (t *Telemetry) Absorb(c *Telemetry) {
	c.Finish()
	t.sync()
	shift := t.maxAbs
	t.C.Cycles.Add(c.C.Cycles.Load())
	t.C.StallCycles.Add(c.C.StallCycles.Load())
	t.C.Instrs.Add(c.C.Instrs.Load())
	t.C.CacheMissD.Add(c.C.CacheMissD.Load())
	t.C.CacheMissI.Add(c.C.CacheMissI.Load())
	t.C.TBMissD.Add(c.C.TBMissD.Load())
	t.C.TBMissI.Add(c.C.TBMissI.Load())
	t.C.IBRefills.Add(c.C.IBRefills.Load())
	t.C.Interrupts.Add(c.C.Interrupts.Load())
	t.C.CtxSwitches.Add(c.C.CtxSwitches.Load())
	t.C.Intervals.Add(c.C.Intervals.Load())
	if t.rec != nil && c.rec != nil {
		t.rec.absorb(c.rec, shift)
	}
	if t.tr != nil && c.tr != nil {
		t.tr.absorb(c.tr, shift)
	}
	t.maxAbs = shift + c.maxAbs
	t.offset = t.maxAbs
	t.mon = c.mon
	t.stats = c.stats
	t.clk = nil
	t.finished = false
	if t.watched.Load() {
		t.publish(t.maxAbs)
	} else {
		t.publishStatus()
	}
}

// Finish closes the last partial recorder interval and any open trace
// slices. Exporters call it implicitly; calling it more than once is
// harmless. After Finish the recorded series and trace are complete up
// to the last observed cycle.
func (t *Telemetry) Finish() {
	t.sync()
	if t.finished {
		return
	}
	t.finished = true
	if t.rec != nil {
		t.rec.flush(t, t.maxAbs)
	}
	if t.tr != nil {
		t.tr.finish(t.maxAbs)
	}
	t.publishStatus()
}

// --- probe methods (simulation goroutine, hot path) ---

// Cycle runs the observer work due at cycle now — the same observation
// point as the UPC board's count pulse — and returns the next cycle at
// which there is more. Implements the ebox Probe: the EBOX calls it
// only at that horizon, so a run takes the inline cycle between
// interval rolls, and takes every cycle only while the tracer
// collects. A call at a cycle with no work due is harmless. It makes
// no atomic write: the command poll is its one atomic access, a load.
func (t *Telemetry) Cycle(now uint64, addr uint16, stalled bool) uint64 {
	abs := now + t.offset
	if cmd := t.cmd.Load(); cmd != 0 {
		t.applyCmd(cmd, abs)
	}
	if t.rec != nil {
		t.rec.cycle(t, now, abs)
	}
	if t.tr != nil && !t.tr.truncated {
		t.tr.cycle(abs, addr, stalled)
	}
	return t.horizon(now + 1)
}

// horizon is the first machine cycle from cycle from on at which Cycle
// has work: every cycle while the tracer collects, else the cycle whose
// end closes the current recorder interval, else none. A pending board
// command needs no horizon of its own: Instr moves the clock's horizon
// to the decode cycle.
func (t *Telemetry) horizon(from uint64) uint64 {
	switch {
	case t.tr != nil && !t.tr.truncated:
		return from
	case t.rec != nil:
		return t.rec.nextAt - 1 - t.offset
	}
	return math.MaxUint64
}

// untrace lifts the bound clock's horizon once the tracer has stopped
// collecting outside Cycle (at a decode, a TB miss or a system event),
// so that Cycle gets no further call for it.
func (t *Telemetry) untrace() {
	if t.tr.truncated && t.clk != nil {
		t.clk.Horizon = t.horizon(t.clk.Now)
	}
}

// sync publishes the bound clock's counts as of its current cycle.
func (t *Telemetry) sync() {
	if t.clk != nil {
		t.publishCounts(t.clk.Now)
	} else {
		t.publishCounts(t.pubNow)
	}
}

// publishCounts adds the cycles, stalls and IB refills gathered since
// the last publish to the live counters, with now cycles elapsed on
// the bound machine, and advances the timeline's end to match.
func (t *Telemetry) publishCounts(now uint64) {
	if now != t.pubNow {
		t.C.Cycles.Add(now - t.pubNow)
		t.pubNow = now
		t.maxAbs = now + t.offset
		t.finished = false
	}
	if t.clk != nil && t.clk.Stalls != t.pubStalls {
		t.C.StallCycles.Add(t.clk.Stalls - t.pubStalls)
		t.pubStalls = t.clk.Stalls
	}
	if t.refills != 0 {
		t.C.IBRefills.Add(t.refills)
		t.refills = 0
	}
}

// TBMiss observes a translation-buffer miss (shared by the ebox and
// ibox probes: the D-stream microtrap and the I-stream miss flag).
func (t *Telemetry) TBMiss(now uint64, istream bool, va uint32) {
	if istream {
		t.C.TBMissI.Add(1)
	} else {
		t.C.TBMissD.Add(1)
	}
	if t.tr != nil && !t.tr.truncated {
		t.tr.tbMiss(now+t.offset, istream, va)
		t.untrace()
	}
}

// CacheMiss observes a cache read miss. Implements the mem Probe.
func (t *Telemetry) CacheMiss(now uint64, istream bool, pa uint32, stall int) {
	if istream {
		t.C.CacheMissI.Add(1)
	} else {
		t.C.CacheMissD.Add(1)
	}
}

// Refill observes an IB refill reference. Implements the ibox Probe.
func (t *Telemetry) Refill(now uint64, va uint32, latency int, miss bool) {
	t.refills++
}

// Instr observes an instruction decode (machine-level event) and
// publishes the counts gathered since the previous decode. A pending
// board command moves the horizon to this decode's first cycle, where
// Cycle applies it after that cycle's count pulse.
func (t *Telemetry) Instr(now uint64, pc uint32, op vax.Opcode) {
	t.publishCounts(now)
	t.C.Instrs.Add(1)
	if t.tr != nil && !t.tr.truncated {
		t.tr.instr(now+t.offset, pc, op)
		t.untrace()
	}
	if t.clk != nil && t.cmd.Load() != 0 {
		t.clk.Horizon = now
	}
}

// Interrupt observes an interrupt delivery (machine-level event).
func (t *Telemetry) Interrupt(now uint64, handler uint32) {
	t.C.Interrupts.Add(1)
	if t.tr != nil {
		t.tr.interrupt(now+t.offset, handler)
		t.untrace()
	}
}

// CtxSwitch observes a context switch (machine-level event).
func (t *Telemetry) CtxSwitch(now uint64, from, to uint32) {
	t.C.CtxSwitches.Add(1)
	if t.tr != nil {
		t.tr.ctxSwitch(now+t.offset, from, to)
		t.untrace()
	}
}

// --- board control (HTTP side writes command bits; the simulation
// goroutine applies them at the next decode cycle, or at the next Cycle
// if that comes first, as Unibus register writes took effect
// asynchronously to the measured system) ---

// Command requests a board action: "start", "stop", or "clear".
func (t *Telemetry) Command(name string) error {
	switch name {
	case "start":
		t.orCmd(cmdStart)
	case "stop":
		t.orCmd(cmdStop)
	case "clear":
		t.orCmd(cmdClear)
	default:
		return fmt.Errorf("telemetry: unknown board command %q", name)
	}
	return nil
}

func (t *Telemetry) orCmd(bit uint32) {
	for {
		old := t.cmd.Load()
		if t.cmd.CompareAndSwap(old, old|bit) {
			return
		}
	}
}

func (t *Telemetry) applyCmd(cmd uint32, abs uint64) {
	t.cmd.Store(0)
	if t.mon == nil {
		return
	}
	if cmd&cmdClear != 0 {
		t.mon.Clear()
	}
	if cmd&cmdStop != 0 {
		t.mon.Stop()
	}
	if cmd&cmdStart != 0 {
		t.mon.Start()
	}
	t.publish(abs)
}

// publish stores an immutable board readout for the HTTP side.
func (t *Telemetry) publish(abs uint64) {
	if t.mon != nil {
		t.publishHist(abs, t.mon.Snapshot())
		return
	}
	t.publishStatus()
}

// publishHist publishes an already-dumped histogram (the interval
// recorder reuses its roll snapshot here). h must not be mutated after
// the call.
func (t *Telemetry) publishHist(abs uint64, h *upc.Histogram) {
	t.snap.Store(&boardSnapshot{Cycle: abs, Hist: h})
	t.publishStatus()
}

func (t *Telemetry) publishStatus() {
	var s uint32
	if t.mon != nil {
		if t.mon.Running() {
			s |= StatusRunning
		}
		if t.mon.Saturated() {
			s |= StatusSaturated
		}
	}
	t.status.Store(s)
}

// Status returns the published CSR status bits.
func (t *Telemetry) Status() uint32 { return t.status.Load() }

// Snapshot returns the latest published board readout (nil until the
// first interval boundary or board command).
func (t *Telemetry) Snapshot() (cycle uint64, h *upc.Histogram) {
	s := t.snap.Load()
	if s == nil {
		return 0, nil
	}
	return s.Cycle, s.Hist
}

// Recorder returns the interval recorder (nil when disabled).
func (t *Telemetry) Recorder() *Recorder { return t.rec }

// Tracer returns the Chrome trace collector (nil when disabled).
func (t *Telemetry) Tracer() *Tracer { return t.tr }

// DescribeProbes renders the probe-point map of the telemetry layer:
// which package emits which event, and what each feeds.
func DescribeProbes() string {
	return `telemetry probe points (all zero-allocation, nil-checked when detached):
  ebox.tick          -> Cycle(now, uPC, stalled)   at the EBOX clock's horizon only: every
                                                   cycle while the tracer collects, else the
                                                   cycle that closes a recorder interval
  ebox.Clock         <- Now, Stalls                read at each publish point (no call per cycle)
  ebox.doMem         -> TBMiss(now, d-stream, va)  TB-miss microtrap entry
  ibox.Tick          -> TBMiss(now, i-stream, va)  I-stream miss flag raised
  ibox.Tick          -> Refill(now, va, latency)   IB refill reference issued
  mem.DRead/PTERead  -> CacheMiss(now, d, pa)      D-stream cache read miss
  mem.IRead          -> CacheMiss(now, i, pa)      I-stream cache read miss
  machine.runInstr   -> Instr(now, pc, opcode)     instruction decode event (publishes the
                                                   counts; a pending board command lands
                                                   at this decode's first cycle)
  machine.deliverInterrupt -> Interrupt(now, pc)   interrupt delivery
  machine LDPCTX     -> CtxSwitch(now, from, to)   context switch
consumers:
  Counters           live atomics: /metrics, expvar (cycle and stall counts from
                     the EBOX clock, refill counts, published at each decode)
  Recorder           per-N-cycle UPC+mem snapshots -> interval CPI series (CSV/JSON)
  Tracer             Chrome trace_event JSON (chrome://tracing, Perfetto)
  board registers    /board/{start,stop,clear,read,csr} (Unibus CSR mirror)`
}
