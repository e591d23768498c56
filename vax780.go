package vax780

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"runtime"
	"sync"
	"time"

	"vax780/internal/analysis"
	"vax780/internal/faults"
	"vax780/internal/machine"
	"vax780/internal/mem"
	"vax780/internal/obs"
	"vax780/internal/prof"
	"vax780/internal/runlog"
	"vax780/internal/telemetry"
	"vax780/internal/tracesim"
	"vax780/internal/upc"
	"vax780/internal/workload"
)

// WorkloadID selects one of the paper's five measurement experiments.
type WorkloadID int

// The five experiments of §2.2.
const (
	TimesharingA   WorkloadID = iota // research-group machine, ~15 users
	TimesharingB                     // CPU-development machine, ~30 users
	RTEEducational                   // RTE script: program development, 40 users
	RTEScientific                    // RTE script: scientific computation, 40 users
	RTECommercial                    // RTE script: transaction processing, 32 users
	NumWorkloads
)

var workloadNames = [...]string{
	"TIMESHARING-A", "TIMESHARING-B", "RTE-EDU", "RTE-SCI", "RTE-COM",
}

func (w WorkloadID) String() string {
	if w < 0 || int(w) >= len(workloadNames) {
		return fmt.Sprintf("Workload(%d)", int(w))
	}
	return workloadNames[w]
}

// WorkloadByName resolves a workload name (as printed by String).
func WorkloadByName(name string) (WorkloadID, error) {
	for i, n := range workloadNames {
		if n == name {
			return WorkloadID(i), nil
		}
	}
	return 0, fmt.Errorf("vax780: unknown workload %q", name)
}

// AllWorkloads lists the five experiments in paper order.
func AllWorkloads() []WorkloadID {
	ids := make([]WorkloadID, NumWorkloads)
	for i := range ids {
		ids[i] = WorkloadID(i)
	}
	return ids
}

func (w WorkloadID) profile(instructions int) (workload.Profile, error) {
	switch w {
	case TimesharingA:
		return workload.TimesharingA(instructions), nil
	case TimesharingB:
		return workload.TimesharingB(instructions), nil
	case RTEEducational:
		return workload.RTEEducational(instructions), nil
	case RTEScientific:
		return workload.RTEScientific(instructions), nil
	case RTECommercial:
		return workload.RTECommercial(instructions), nil
	}
	return workload.Profile{}, fmt.Errorf("vax780: unknown workload %d", int(w))
}

// RunConfig configures a measurement run. The zero value runs all five
// experiments at a moderate length on the stock 11/780 configuration.
type RunConfig struct {
	// Instructions per experiment (default 50,000).
	Instructions int

	// Workloads to run and sum into the composite histogram (default:
	// all five, as the paper's composite).
	Workloads []WorkloadID

	// Hardware overrides; zero values select the 11/780 parameters.
	CacheBytes  int // data cache size (8 KB)
	CacheWays   int // associativity (2)
	TBEntries   int // translation buffer entries (128)
	MissLatency int // SBI read latency in cycles (6)
	WriteBusy   int // write-buffer occupancy per write (6)

	// CtxSwitchHeadway overrides the context-switch interval in
	// instructions (0 = the measured 6418); the TB flush-interval study
	// sweeps this.
	CtxSwitchHeadway int

	// Strict makes the IB byte decode the oracle of the trace record the
	// EBOX dispatches from: each opcode, specifier (mode, index, length)
	// and branch displacement is decoded from the IB and compared, and a
	// disagreement fails the run. The cycles counted are the same either
	// way; Strict only costs the decode (on in most tests, off here by
	// default).
	Strict bool

	// Telemetry, when non-nil, attaches the live telemetry layer to the
	// run: live counters and the HTTP monitor, and optionally the
	// interval recorder and Chrome trace collector (see Telemetry). The
	// same instance observes all configured workloads on one continuous
	// timeline, exactly as the board stayed attached across the paper's
	// five experiments.
	Telemetry *Telemetry

	// OverlapDecode enables the 11/750-style overlapped I-Decode cycle —
	// the improvement the paper names in §5 ("saving the non-overlapped
	// I-Decode cycle could save one cycle on each non-PC-changing
	// instruction. The later VAX model 11/750 did [this].") Note that the
	// histogram's IRD-based instruction count no longer sees overlapped
	// decodes; judge the effect by the per-workload CPI, which uses the
	// machine's own instruction counter.
	OverlapDecode bool

	// Faults, when non-nil, attaches a deterministic fault-injection
	// plan to the run (see FaultConfig). The supervisor retries
	// workloads that abort on transient machine checks; degradation the
	// run survives (saturated, corrupted, or dropped histogram counts)
	// is annotated by the analysis instead of failing the run.
	Faults *FaultConfig

	// Checkpoint, when non-empty, names a crash-safe progress file
	// written atomically after each completed workload. A run killed
	// mid-composite can be resumed from it with Resume.
	Checkpoint string

	// Resume loads an existing Checkpoint file before running and skips
	// the workloads it records, reusing their histograms bit-exactly. A
	// missing checkpoint file starts from scratch; one written under a
	// different measurement configuration is ErrCheckpointMismatch.
	Resume bool

	// Parallelism bounds how many workload machines of the composite
	// execute concurrently (default: GOMAXPROCS). 1 forces the
	// sequential path. The parallel composite is bit-exact with the
	// sequential one — histograms, tables, reports, telemetry series,
	// fault injections, and checkpoint bytes — because results merge in
	// workload order, each workload's fault plan derives independently
	// from the seed, and per-machine telemetry splices onto one
	// timeline at merge. Parallelism is excluded from the checkpoint
	// fingerprint: a sequential run may resume a parallel one and vice
	// versa.
	Parallelism int

	// Ledger, when non-nil, receives the run ledger: one JSONL event per
	// run action (run-start with the configuration hash, workload
	// start/done, checkpoint written/resumed, fault-injection tallies,
	// retries, machine faults with their flight-recorder snapshots, and
	// run-done with the Table 8 summary and a host self-profile). The
	// stream is byte-identical across Parallelism settings once
	// wall-clock fields are stripped (StripLedgerWallClock).
	Ledger io.Writer

	// Progress, when non-nil, receives periodic fleet snapshots:
	// per-worker current workload, instructions and simulated cycles,
	// instr/s, ETA, and fault/retry tallies. The callback runs on the
	// tracker's goroutine; it must not block for long.
	Progress func(Progress)

	// ProgressInterval is the snapshot period (default 1s, minimum
	// 10ms). It has no effect on the simulation — progress sampling
	// reads lock-free cells the machines update per trace item.
	ProgressInterval time.Duration

	// FlightDepth controls the micro-PC flight recorder, the ring of the
	// last N cycles the EBOX keeps for post-mortems: 0 (the default)
	// enables it at upc.DefaultFlightDepth when a fault plan is
	// attached and disables it otherwise; > 0 forces it on at that
	// depth; < 0 forces it off. On a MachineFault the recorder's
	// snapshot — final entry the faulting micro-PC — rides on the typed
	// fault and the ledger. A positive depth must be a power of two
	// (the ring is mask-indexed); Run rejects anything else.
	FlightDepth int

	// Events, when non-nil, is an externally owned live event bus the
	// run publishes its ledger events on, instead of allocating its own.
	// This is the per-job SSE plumbing of the vaxd service: the daemon
	// owns one bus per job and subscribes SSE clients to it before,
	// during, and after the job's run. Outside the repository the field
	// is unusable (runlog is an internal package) and should be left nil.
	Events *runlog.Bus

	// Trace, when non-nil, records the run as a causal span tree: a run
	// root, a resume span when a checkpoint was folded in, and per
	// workload a span carrying its cycles/CPI with retry, checkpoint,
	// and hot-flow children (exact bucket attribution via the profiler's
	// flow index, so the spans decompose the same way Table 8 does).
	// The recorder's JSONL export is byte-identical across Parallelism
	// settings; with a Profiler also attached, workload spans gain wall
	// placements (removed by obs.StripWall). This is how a vaxd job's
	// bundle gets its trace.jsonl and how /trace/{jobid} splices the
	// run onto the service spans. Like Events, the field is internal
	// plumbing (internal/obs) and unusable outside the repository.
	Trace *obs.Recorder

	// Profiler, when non-nil, attaches the host-time profiler: each
	// workload's board histogram is classified onto control-store flows
	// as it merges, its measured wall time is distributed by flow share,
	// and the result is published as a cumulative Profile — on the
	// telemetry /prof endpoint while the run executes, in the ledger's
	// prof event and run-done summary, and via Profiler.Profile after
	// Run returns. It adds nothing to the cycle loop. See Profiler for
	// the span-tree and trace exports.
	Profiler *Profiler

	// NoFusion once disabled the flow-fusion superword engine. The
	// engine is gone and every run interprets each microword, so the
	// field is kept only so that existing callers still compile.
	//
	// Deprecated: NoFusion has no effect.
	NoFusion bool

	// haltAfter is a test seam: when positive, the run stops with
	// errRunHalted once that many workloads (counting resumed ones)
	// have completed and checkpointed — a deterministic stand-in for a
	// measurement host killed mid-composite.
	haltAfter int

	// traces, when non-nil, substitutes generation with a shared
	// read-only trace cache (set by Sweep: design points that share a
	// workload shape reuse one generated trace).
	traces *traceCache

	// slot, when non-nil, is the worker slot this run reports progress
	// through (set by Sweep: the sweep-level fleet owns the slots and a
	// point's sequential run feeds its worker's slot).
	slot *workerSlot

	// ctx is the run's cancellation context (set by RunContext; nil
	// means context.Background()). Cancellation is observed at workload
	// boundaries — before each pending workload starts, and inside the
	// supervisor's retry backoff — never mid-simulation, so everything
	// that completed before the cancel is already merged and (when a
	// Checkpoint is configured) durably checkpointed.
	ctx context.Context
}

// errRunHalted reports a run stopped by the haltAfter test seam.
var errRunHalted = fmt.Errorf("vax780: run halted by test seam")

func (c *RunConfig) fill() {
	if c.Instructions <= 0 {
		c.Instructions = 50_000
	}
	if len(c.Workloads) == 0 {
		c.Workloads = AllWorkloads()
	}
}

// Upper bounds on the hardware overrides, each far above every in-repo
// sweep (at most 32 KB, 4-way, 256 TB entries, 12-cycle latencies). The
// sizes bound the cache and TB allocations, which overflow or exhaust
// memory long before a value near the int range; the latencies bound
// stalls the EBOX simulates one cycle at a time, so a latency near the
// int range would never return.
//
// maxInstructions bounds the per-experiment count, about 84× the
// largest in-repo run (vaxtables -n 200000). A generated trace retains
// about 90 B per instruction (4.48 MB for 50k, DESIGN.md §15.1), so the
// bound caps one trace near 1.5 GB. A count near the int range panics
// while the trace is sized, outside the per-workload recover.
const (
	maxCacheBytes   = 1 << 20
	maxCacheWays    = 1 << 8
	maxTBEntries    = 1 << 16
	maxLatency      = 1 << 16
	maxInstructions = 1 << 24
)

// Validate rejects configurations Run cannot honor. Run checks it
// before any work starts, so a bad configuration fails fast with a
// clear error instead of panicking or producing a meaningless CPI
// mid-run; services call it to reject a request before admission.
func (c *RunConfig) Validate() error {
	if d := c.FlightDepth; d > 0 && d&(d-1) != 0 {
		return fmt.Errorf("vax780: FlightDepth %d is not a power of two "+
			"(the flight recorder ring is mask-indexed; use the next power of two, "+
			"0 for the default, or a negative depth to disable the recorder)", d)
	}
	if c.Instructions > maxInstructions {
		return fmt.Errorf("vax780: Instructions %d exceeds the supported maximum %d", c.Instructions, maxInstructions)
	}
	for _, f := range []struct {
		name string
		v    int
		max  int // 0: unbounded
	}{
		{"CacheBytes", c.CacheBytes, maxCacheBytes},
		{"CacheWays", c.CacheWays, maxCacheWays},
		{"TBEntries", c.TBEntries, maxTBEntries},
		{"MissLatency", c.MissLatency, maxLatency},
		{"WriteBusy", c.WriteBusy, maxLatency},
		{"CtxSwitchHeadway", c.CtxSwitchHeadway, 0},
	} {
		if f.v < 0 {
			return fmt.Errorf("vax780: %s %d is negative (0 selects the 11/780 default)", f.name, f.v)
		}
		if f.max > 0 && f.v > f.max {
			return fmt.Errorf("vax780: %s %d exceeds the supported maximum %d", f.name, f.v, f.max)
		}
	}
	// The cache is built as sets × ways × blocks and the TB as 2 halves
	// × sets × ways, at least one set each. Any other size would run a
	// rounded geometry while the block diagram and the checkpoint hash
	// named the requested one.
	hw := c.memConfig().WithDefaults()
	if hw.CacheBytes%(hw.CacheWays*hw.CacheBlock) != 0 {
		return fmt.Errorf("vax780: CacheBytes %d is not a multiple of CacheWays %d × %d-byte blocks",
			hw.CacheBytes, hw.CacheWays, hw.CacheBlock)
	}
	if hw.TBEntries%(2*hw.TBWays) != 0 {
		return fmt.Errorf("vax780: TBEntries %d is not a multiple of 2 halves × %d ways",
			hw.TBEntries, hw.TBWays)
	}
	return nil
}

func (c *RunConfig) memConfig() mem.Config {
	return mem.Config{
		CacheBytes:  c.CacheBytes,
		CacheWays:   c.CacheWays,
		TBEntries:   c.TBEntries,
		MissLatency: c.MissLatency,
		WriteBusy:   c.WriteBusy,
	}
}

// parallelism resolves the effective worker count.
func (c *RunConfig) parallelism() int {
	if c.Parallelism > 0 {
		return c.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// observed reports whether the run carries any observability consumer
// (ledger, progress callback, telemetry, or an external event bus) —
// only then does Run pay for the event plumbing; an unobserved run
// allocates none of it.
func (c *RunConfig) observed() bool {
	return c.Ledger != nil || c.Progress != nil || c.Telemetry != nil || c.Events != nil
}

// context resolves the run's cancellation context.
func (c *RunConfig) context() context.Context {
	if c.ctx != nil {
		return c.ctx
	}
	return context.Background()
}

// ctxErr reports the run's cancellation, in the public error form, or
// nil while the run may continue. The returned error matches
// context.Canceled / context.DeadlineExceeded with errors.Is.
func (c *RunConfig) ctxErr() error {
	if err := c.context().Err(); err != nil {
		return fmt.Errorf("vax780: run canceled: %w", err)
	}
	return nil
}

// flightDepth resolves the flight-recorder configuration to a ring
// depth (0: recorder disabled).
func (c *RunConfig) flightDepth() int {
	switch {
	case c.FlightDepth > 0:
		return c.FlightDepth
	case c.FlightDepth < 0:
		return 0
	case c.Faults != nil:
		return upc.DefaultFlightDepth
	}
	return 0
}

// childPlan builds workload index i's independent fault plan. Both the
// sequential and the parallel path derive one child plan per workload
// from (seed, index), so a workload's injection stream never depends
// on how many decisions earlier workloads drew — the property that
// makes parallel fault injection bit-exact with sequential, and a
// resumed run bit-exact with an uninterrupted one.
func (c *RunConfig) childPlan(i int) *faults.Plan {
	if c.Faults == nil {
		return nil
	}
	return faults.NewPlan(faults.ChildSeed(c.Faults.Seed, i), c.Faults.rates())
}

// trace materializes workload id's instruction trace, through the
// sweep's cache when one is attached and the process-wide shared
// cache otherwise. Traces are read-only once generated (machines
// never write them), so one trace can drive any number of concurrent
// machines — and repeated runs of the same workload shape (benchmark
// iterations, vaxd jobs) reuse one
// generated trace instead of re-deriving it per run.
func (c *RunConfig) trace(id WorkloadID, p workload.Profile) (*workload.Trace, error) {
	if c.traces != nil {
		return c.traces.get(id, p, c)
	}
	return sharedTraces.get(id, p, c)
}

// workloadTrace resolves workload id's profile (with overrides) and
// materializes its trace.
func (c *RunConfig) workloadTrace(id WorkloadID) (*workload.Trace, error) {
	p, err := id.profile(c.Instructions)
	if err != nil {
		return nil, err
	}
	if c.CtxSwitchHeadway > 0 {
		p.CtxSwitchHeadway = c.CtxSwitchHeadway
	}
	return c.trace(id, p)
}

// Run executes the configured experiments on fresh machines, sums their
// UPC histograms into the composite, and returns the reduced results.
//
// Run is a hardened supervisor: with a fault plan attached it recovers
// panics into typed *MachineFault errors, retries workloads that abort
// on transient machine checks (capped exponential backoff), and — when
// a Checkpoint path is configured — snapshots progress atomically after
// each completed workload so a killed run resumes bit-identically.
//
// With Parallelism > 1 the pending workloads execute concurrently on a
// bounded worker pool; results are merged strictly in workload order,
// so the composite is bit-exact with the sequential run.
func Run(cfg RunConfig) (*Results, error) {
	return RunContext(context.Background(), cfg)
}

// RunContext is Run with cancellation and deadline semantics: when ctx
// is canceled (or its deadline passes), the run stops at the next
// workload boundary — or immediately, if the supervisor is waiting out
// a retry backoff — and returns an error matching context.Canceled or
// context.DeadlineExceeded under errors.Is. Workloads that completed
// before the cancel are already merged, and when a Checkpoint path is
// configured they are durably checkpointed, so a canceled run can be
// resumed later (Resume) and its final composite is bit-identical to an
// uninterrupted run. Cancellation is never observed mid-workload: the
// granularity of a composite run is the workload, exactly like the
// crash-recovery granularity of the checkpoint format.
func RunContext(ctx context.Context, cfg RunConfig) (*Results, error) {
	cfg.ctx = ctx
	cfg.fill()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Profiler != nil {
		cfg.Profiler.begin(workloadsLabel(cfg.Workloads))
	}
	s := &runState{
		cfg:       cfg,
		composite: &upc.Histogram{},
		res:       &Results{cfg: cfg},
		ckptHash:  cfg.checkpointHash(),
	}
	if cfg.Telemetry != nil {
		s.tel = cfg.Telemetry.ensure()
	}
	if cfg.Trace != nil {
		s.span = cfg.Trace.Begin("run", workloadsLabel(cfg.Workloads)).
			Attr("config", fmt.Sprintf("%016x", s.ckptHash)).
			Attr("workloads", len(cfg.Workloads)).
			Attr("instructions", cfg.Instructions)
	}
	if cfg.observed() {
		s.led = runlog.NewOn(cfg.Ledger, cfg.Events)
		var seed uint64
		if cfg.Faults != nil {
			seed = cfg.Faults.Seed
		}
		s.led.Emit(runlog.RunStartEvent(s.ckptHash, workloadsLabel(cfg.Workloads),
			len(cfg.Workloads), cfg.Instructions, seed, cfg.Faults != nil))
	}

	// Resume: fold completed workloads back in from the checkpoint.
	if cfg.Checkpoint != "" && cfg.Resume {
		var err error
		s.recs, err = readCheckpoint(cfg.Checkpoint, s.ckptHash)
		if err != nil {
			return nil, err
		}
		if len(s.recs) > len(cfg.Workloads) {
			return nil, fmt.Errorf("%w: %d recorded workloads, run has %d",
				ErrCheckpointMismatch, len(s.recs), len(cfg.Workloads))
		}
		for _, rec := range s.recs {
			s.composite.Add(rec.Hist)
			s.hw.Mem.Add(&rec.Mem)
			s.hw.IBConsumed += rec.IBConsumed
			s.res.PerWorkload = append(s.res.PerWorkload, WorkloadResult{
				Workload:     rec.Workload,
				Instructions: rec.Instrs,
				Cycles:       rec.Cycles,
				CPI:          float64(rec.Cycles) / float64(rec.Instrs),
			})
			s.res.perHist = append(s.res.perHist, rec.Hist)
		}
		s.res.Resumed = len(s.recs)
		s.completed = len(s.recs)
		if len(s.recs) > 0 {
			s.led.Emit(runlog.ResumeEvent(cfg.Checkpoint, len(s.recs)))
			s.span.Child("resume", "resume").Attr("restored", len(s.recs))
		}
	}

	s.res.describe = BlockDiagram()
	pending := len(cfg.Workloads) - len(s.recs)
	parallel := pending > 1 && cfg.parallelism() > 1

	if cfg.observed() {
		workers := 1
		if parallel {
			workers = min(cfg.parallelism(), pending)
		}
		s.fleet = newFleet(len(cfg.Workloads), workers, uint64(cfg.Instructions))
		for _, rec := range s.recs {
			s.fleet.noteDone(rec.Instrs, rec.Cycles)
		}
		s.tracker = runlog.NewTracker(cfg.ProgressInterval, s.fleet.sample, cfg.Progress)
		s.tracker.Attach(s.led)
		if s.tel != nil {
			s.tel.SetEvents(s.led.Bus())
			s.tel.SetProgress(s.tracker.Latest)
		}
		s.tracker.Start()
	}
	if s.tel != nil && cfg.Profiler != nil {
		s.tel.SetProf(cfg.Profiler.latestAny)
	}

	var err error
	if parallel {
		err = s.runParallel()
	} else {
		err = s.runSequential()
	}
	if err != nil {
		s.tracker.Stop()
		return nil, err
	}
	return s.finish()
}

// runState carries a composite run's accumulating results; the
// sequential and parallel paths share its merge and finish steps, which
// is what keeps the two bit-exact: there is only one merge.
type runState struct {
	cfg       RunConfig
	tel       *telemetry.Telemetry
	composite *upc.Histogram
	hw        analysis.HWCounters
	res       *Results
	recs      []ckptRecord
	ckptHash  uint64
	injected  faults.Counts
	completed int // workloads completed, counting resumed ones

	// Observability (nil on unobserved runs; every consumer is nil-safe).
	led     *runlog.Ledger
	fleet   *fleet
	tracker *runlog.Tracker
	span    *obs.Span // trace root (nil without cfg.Trace)
}

// traceMaxFlows caps the hot-flow children recorded under each
// workload span: enough to show what dominated, small enough that a
// sweep's traces stay proportional to its ledger.
const traceMaxFlows = 5

// runSequential is the in-order execution path (Parallelism <= 1, or
// nothing left to parallelize).
func (s *runState) runSequential() error {
	for i, id := range s.cfg.Workloads {
		if i < len(s.recs) {
			continue // completed before the crash; folded in by Run
		}
		if err := s.cfg.ctxErr(); err != nil {
			return err // completed workloads are merged and checkpointed
		}
		tr, err := s.cfg.workloadTrace(id)
		if err != nil {
			return fmt.Errorf("vax780: %s: %w", id, err)
		}
		plan := s.cfg.childPlan(i)
		if s.tel != nil {
			s.tel.Phase(id.String())
		}
		slot := s.fleet.slot(0)
		if s.fleet == nil {
			slot = s.cfg.slot // a sweep point's run feeds the sweep's slot
		}
		child := s.led.Child()
		env := wlEnv{idx: i, id: id, tel: s.tel, plan: plan, led: child, slot: slot}
		one, retries, err := runWorkload(env, tr, s.cfg)
		if err != nil {
			return s.failWorkload(child, err)
		}
		s.led.Absorb(child)
		if err := s.merge(id, one, retries, plan); err != nil {
			return err
		}
	}
	return nil
}

// wrapWorkloadErr applies the public error convention: typed machine
// faults pass through (they carry the vax780 prefix), anything else
// gets it added.
func wrapWorkloadErr(err error) error {
	var mf *MachineFault
	if errors.As(err, &mf) {
		return err
	}
	return fmt.Errorf("vax780: %w", err)
}

// merge folds one completed workload into the composite — the single
// accumulation point both execution paths share. Callers invoke it in
// workload order.
func (s *runState) merge(id WorkloadID, one *oneRun, retries int, plan *faults.Plan) error {
	s.composite.Add(one.hist)
	s.cfg.Profiler.noteWorkload(id.String(), one.hist, one.profStart, one.profEnd)
	s.hw.Mem.Add(&one.machine.Mem.Stats)
	s.hw.IBConsumed += one.machine.IB.Consumed
	s.res.Retries += retries
	s.res.PerWorkload = append(s.res.PerWorkload, WorkloadResult{
		Workload:     id,
		Instructions: one.machine.Stats.Instrs,
		Cycles:       one.machine.E.Now,
		CPI:          one.machine.CPI(),
	})
	s.res.perHist = append(s.res.perHist, one.hist)
	s.res.describe = one.machine.Describe()
	if plan != nil {
		s.injected.Add(plan.Injected())
	}
	s.fleet.noteDone(one.machine.Stats.Instrs, one.machine.E.Now)

	// Trace: one workload span, with the flows that dominated it as
	// children. Exact bucket attribution (prof.Exact over this
	// workload's own histogram) keeps the span tree a pure function of
	// the simulation, so the export is byte-identical across -j; the
	// wall placement is additive and only present under a Profiler.
	ws := s.span.Child("workload", id.String()).
		Attr("index", s.completed).
		Attr("instructions", one.machine.Stats.Instrs).
		Attr("cpi", one.machine.CPI()).
		SetCycles(one.machine.E.Now)
	if retries > 0 {
		ws.Child("retry", "retries").Attr("count", retries)
	}
	if s.span != nil {
		p := prof.Exact(machineROM(), flowIndex(), one.hist)
		for _, f := range p.Top(traceMaxFlows) {
			ws.Child("flow", f.Name).
				Attr("entry", int(f.Entry)).
				Attr("share", f.Share).
				SetCycles(f.Cycles)
		}
		if s.cfg.Profiler != nil && one.profEnd > one.profStart {
			ws.SetWall(one.profStart, one.profEnd-one.profStart)
		}
	}

	if s.cfg.Checkpoint != "" {
		s.recs = append(s.recs, ckptRecord{
			Workload:   id,
			Instrs:     one.machine.Stats.Instrs,
			Cycles:     one.machine.E.Now,
			IBConsumed: one.machine.IB.Consumed,
			Mem:        one.machine.Mem.Stats,
			Hist:       one.hist,
		})
		if err := writeCheckpoint(s.cfg.Checkpoint, s.ckptHash, s.recs); err != nil {
			return fmt.Errorf("vax780: writing checkpoint: %w", err)
		}
		s.led.Emit(runlog.CheckpointEvent(s.cfg.Checkpoint, len(s.recs)))
		ws.Child("checkpoint", "checkpoint").Attr("records", len(s.recs))
	}
	s.completed++
	if s.cfg.haltAfter > 0 && s.completed >= s.cfg.haltAfter {
		return errRunHalted
	}
	return nil
}

// finish closes the run and reduces the composite.
func (s *runState) finish() (*Results, error) {
	if s.tel != nil {
		s.tel.Finish()
	}
	if s.cfg.Faults != nil {
		s.res.FaultInjections = s.injected.String()
	}
	s.res.analysis = analysis.New(machine.ROM(), s.composite).WithHardwareCounters(s.hw)
	s.res.hist = s.composite
	s.tracker.Stop()

	// Close the profiler before run-done so its ledger event precedes
	// the run's, and its summary can ride on the run-done record.
	var profAttrs []slog.Attr
	if s.cfg.Profiler != nil {
		p, err := s.cfg.Profiler.finishRun()
		if err != nil {
			return nil, err
		}
		if s.led != nil {
			s.led.Emit(runlog.ProfEvent(p.Engine, p.TotalCycles,
				profRows(p, s.cfg.Profiler.maxFlows()),
				map[string]any{"wall_ns": p.WallNs}))
		}
		profAttrs = profSummaryAttrs(p)
	}
	if s.span != nil {
		var cycles uint64
		for _, w := range s.res.PerWorkload {
			cycles += w.Cycles
		}
		s.span.SetCycles(cycles).
			Attr("retries", s.res.Retries).
			Attr("resumed", s.res.Resumed)
	}
	if s.led != nil {
		var instrs, cycles uint64
		for _, w := range s.res.PerWorkload {
			instrs += w.Instructions
			cycles += w.Cycles
		}
		s.led.Emit(runlog.RunDoneEvent(len(s.cfg.Workloads), instrs, cycles,
			s.res.CPI(), s.res.Retries, s.res.Resumed, s.res.FaultInjections,
			table8Attrs(s.res), profAttrs, s.led.Host(cycles)))
	}
	return s.res, nil
}

type oneRun struct {
	machine   *machine.Machine
	hist      *upc.Histogram
	saturated bool

	// Profiling sidecar (zero without a Profiler): the workload's
	// measured start/end on the profiler clock.
	profStart float64
	profEnd   float64
}

// wrapProbe is a test seam: when non-nil, it adapts a run's telemetry
// sink for each workload machine (the horizon's oracle tests attach a
// per-cycle reference through it).
var wrapProbe func(*telemetry.Telemetry) machine.Telemetry

// monPool recycles histogram monitors between workload machines: the
// monitor's count array is by far the largest allocation of a run, and
// sweeps burn one per design point per workload. Pooled monitors are
// Reset (cleared, stopped, fault detached) before reuse.
var monPool = sync.Pool{New: func() any { return upc.New() }}

// runOne executes one workload attempt on a fresh machine driven by
// the given (read-only, shareable) trace. It is the panic-recovery
// boundary: any panic that escapes the simulation surfaces as a
// *faults.MachineCheck, never as a process crash.
func runOne(tr *workload.Trace, cfg RunConfig, tel *telemetry.Telemetry,
	plan *faults.Plan, fr *upc.FlightRecorder, cell *machine.ProgressCell) (one *oneRun, err error) {

	var mon *upc.Monitor
	if tel == nil {
		// Without telemetry nothing retains the monitor after the
		// snapshot, so it can go back to the pool. A telemetry-bound
		// monitor stays referenced by the sink (board snapshots, HTTP
		// readout) and must not be recycled.
		mon = monPool.Get().(*upc.Monitor)
		mon.Reset()
		defer monPool.Put(mon)
	} else {
		mon = upc.New()
	}
	mon.Start()
	mc := machine.Config{
		Mem:           cfg.memConfig(),
		Monitor:       mon,
		Strict:        cfg.Strict,
		OverlapDecode: cfg.OverlapDecode,
		Flight:        fr,
		Progress:      cell,
	}
	if tel != nil {
		// Assign only a live layer: a nil *telemetry.Telemetry boxed in
		// the interface would defeat the machine's nil check.
		mc.Telemetry = tel
		if wrapProbe != nil {
			mc.Telemetry = wrapProbe(tel)
		}
	}
	if plan != nil {
		// Same care: never box a nil *faults.Plan.
		mc.Faults = plan
	}
	m := machine.New(mc, tr.Program)
	defer func() {
		if r := recover(); r != nil {
			one = nil
			err = &faults.MachineCheck{
				Code:  faults.CodePanic,
				Cycle: m.E.Now,
				Site:  "vax780.runOne",
				Err:   fmt.Errorf("%v", r),
			}
		}
	}()
	if err := m.Run(tr.Stream()); err != nil {
		return nil, err
	}
	mon.Stop()
	if mon.Saturated() && plan == nil {
		// Organic saturation without a fault plan is a configuration
		// error (the run is too long for the counters): fail loudly.
		// Under a fault plan, saturation is expected degradation and the
		// analysis annotates it instead.
		return nil, fmt.Errorf("histogram counters saturated")
	}
	return &oneRun{machine: m, hist: mon.Snapshot(), saturated: mon.Saturated()}, nil
}

// TraceDrivenComparison is the A1 ablation: what a trace-driven timing
// model (the methodology the paper's introduction critiques) estimates
// for the same workload, versus what the UPC monitor measures.
type TraceDrivenComparison struct {
	Workload     WorkloadID
	EstimatedCPI float64 // trace-driven nominal estimate
	MeasuredCPI  float64 // UPC-measured, including stalls and overhead
	// InvisibleFraction is the share of real processor time the
	// trace-driven model cannot see.
	InvisibleFraction float64
	SkippedEvents     uint64 // interrupt deliveries absent from the user trace
}

// CompareTraceDriven runs one workload under both methodologies.
func CompareTraceDriven(id WorkloadID, instructions int) (*TraceDrivenComparison, error) {
	p, err := id.profile(instructions)
	if err != nil {
		return nil, err
	}
	tr, err := workload.Generate(p)
	if err != nil {
		return nil, err
	}
	m := machine.New(machine.Config{Mem: mem.Config{}}, tr.Program)
	if err := m.Run(tr.Stream()); err != nil {
		return nil, err
	}
	est, err := tracesim.NewModel(machine.ROM()).EstimateTrace(tr.Items)
	if err != nil {
		return nil, err
	}
	cmp := tracesim.Compare(est, m.CPI())
	return &TraceDrivenComparison{
		Workload:          id,
		EstimatedCPI:      cmp.EstimatedCPI,
		MeasuredCPI:       cmp.MeasuredCPI,
		InvisibleFraction: cmp.UnderestimateFraction,
		SkippedEvents:     est.SkippedEvents,
	}, nil
}
