package vax780

// The public face of the host-time profiler (internal/prof): attach a
// Profiler to RunConfig and the run attributes its own wall-clock
// nanoseconds onto the micro-architectural structure it simulates —
// control-store flows and Table 8 cycle classes — exactly the way the
// paper's board attributes the 780's elapsed time onto its microcode.
// The one pricing engine prices each workload's own board histogram by
// its share of measured wall time as the workload merges, adding
// nothing to the cycle loop. Results.Profile gives the same attribution
// of the run's bit-exact composite histogram, unpriced.

import (
	"fmt"
	"io"
	"log/slog"
	"sync"
	"sync/atomic"

	"vax780/internal/analysis"
	"vax780/internal/obs"
	"vax780/internal/prof"
	"vax780/internal/runlog"
	"vax780/internal/ulint"
	"vax780/internal/upc"
)

// Profile is a host-time attribution report: flows hottest first, with
// cycles, Table 8 class splits, shares, and (when priced) host ns.
type Profile = prof.Profile

// FlowCost is one flow's row of a Profile.
type FlowCost = prof.FlowCost

// Span is one node of a span tree: the profiler's wall-time tree (run →
// workload → flow) and the run/job traces share the obs span model.
type Span = obs.Span

// flowIndex returns the flow index of the shared control store — the
// per-ROM cached analysis (ulint.IndexFor) the profiler and vaxlint
// both classify against, so the two cannot disagree about where a flow
// begins.
func flowIndex() *ulint.FlowIndex {
	return ulint.IndexFor(machineROM())
}

// Profiler attaches the host-time profiler to a run (set
// RunConfig.Profiler). The board already counts every cycle of every
// workload, so the profiler adds nothing to the cycle loop: at every
// workload merge it folds that workload's board histogram in (in
// workload order, so the aggregate is bit-exact across Parallelism),
// prices it by the workload's measured wall time, and publishes a
// cumulative Profile for the telemetry /prof endpoint and vaxtop. A
// damaged board's excluded buckets (see Results.Quality) are left out.
// After Run returns, Profile holds the whole run and SpanTree the
// measured wall-time hierarchy.
//
// A Profiler instance serves one Run at a time; Run resets it on entry,
// so reusing one across sequential runs is fine, sharing one across
// concurrent runs is not.
type Profiler struct {
	// MaxFlows bounds the hot-flow lists in the ledger event and the
	// span tree (default 10; the full flow set is always in Profile).
	MaxFlows int

	// Trace, when non-nil, receives the span tree as Chrome trace-event
	// JSON (chrome://tracing, Perfetto) when the run finishes, with the
	// run label as its trace ID. For JSONL rows, export SpanTree with
	// obs.WriteRows.
	Trace io.Writer

	mu     sync.Mutex
	clock  *runlog.Clock
	agg    upc.Histogram // summed board counts, merged in workload order
	wallNs float64       // summed measured workload durations
	run    *obs.Span     // the run span, workloads added in merge order
	root   *obs.Span     // run, published by finishRun
	latest atomic.Pointer[prof.Profile]
}

// maxFlows resolves the hot-flow list bound.
func (p *Profiler) maxFlows() int {
	if p.MaxFlows > 0 {
		return p.MaxFlows
	}
	return 10
}

// begin resets the profiler for a new run and starts its wall clock.
func (p *Profiler) begin(label string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.clock = runlog.NewClock()
	p.agg = upc.Histogram{}
	p.wallNs = 0
	p.run = &obs.Span{Kind: "run", Name: label}
	p.root = nil
	p.latest.Store(nil)
}

// nowNs reads the profiler's wall clock (0 on a nil profiler, so the
// supervisor needs no guards).
func (p *Profiler) nowNs() float64 {
	if p == nil {
		return 0
	}
	return p.clock.Ns()
}

// noteWorkload folds one completed workload into the profile: its
// board histogram (deterministic, and exact), its measured duration,
// and its span with synthesized flow children. Called by the merge, in
// workload order, which is what keeps the aggregate bit-exact across
// -j.
func (p *Profiler) noteWorkload(name string, hist *upc.Histogram, startNs, endNs float64) {
	if p == nil {
		return
	}
	h := analysis.New(machineROM(), hist).Healthy()
	dur := endNs - startNs
	p.mu.Lock()
	defer p.mu.Unlock()
	p.agg.Add(h)
	p.wallNs += dur

	ws := p.run.Child("workload", name).SetWall(startNs, dur)
	prof.FlowSpans(ws, prof.Board(machineROM(), flowIndex(), h, dur), p.maxFlows())

	p.latest.Store(prof.Board(machineROM(), flowIndex(), &p.agg, p.wallNs))
}

// finishRun closes the run: builds the final profile, publishes the
// span tree, and writes the Trace export when configured.
func (p *Profiler) finishRun() (*prof.Profile, error) {
	p.mu.Lock()
	final := prof.Board(machineROM(), flowIndex(), &p.agg, p.wallNs)
	p.latest.Store(final)
	root := p.run.SetWall(0, p.clock.Ns())
	p.root = root
	p.mu.Unlock()

	if p.Trace != nil {
		if err := obs.WriteChromeTrace(p.Trace, root.Name, root); err != nil {
			return nil, fmt.Errorf("vax780: writing profile trace: %w", err)
		}
	}
	return final, nil
}

// Profile returns the latest published profile: cumulative while the
// run executes (updated at each workload merge), final after Run
// returns. Nil before the first workload completes. Safe to call from
// any goroutine.
func (p *Profiler) Profile() *Profile {
	return p.latest.Load()
}

// SpanTree returns the run's measured wall-time hierarchy (run →
// workload → flow). Nil until Run returns.
func (p *Profiler) SpanTree() *Span {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.root
}

// latestAny is the telemetry /prof closure (a typed nil must become an
// untyped one, or the handler's nil test would pass a dead pointer).
func (p *Profiler) latestAny() any {
	prof := p.latest.Load()
	if prof == nil {
		return nil
	}
	return prof
}

// profFlowRow is the deterministic per-flow row of the ledger's prof
// event: counts and shares only — the wall-clock side rides in the
// event's host group, which StripWallClock removes.
type profFlowRow struct {
	Name   string  `json:"name"`
	Entry  uint16  `json:"entry"`
	Cycles uint64  `json:"cycles"`
	Share  float64 `json:"share"`
}

// profRows converts a profile's hottest flows to ledger rows.
func profRows(p *prof.Profile, n int) []profFlowRow {
	top := p.Top(n)
	rows := make([]profFlowRow, len(top))
	for i, f := range top {
		rows[i] = profFlowRow{Name: f.Name, Entry: f.Entry, Cycles: f.Cycles, Share: f.Share}
	}
	return rows
}

// profSummaryAttrs is the run-done event's prof group: the profiler's
// deterministic summary.
func profSummaryAttrs(p *prof.Profile) []slog.Attr {
	attrs := []slog.Attr{
		slog.String("engine", p.Engine),
		slog.Uint64("cycles", p.TotalCycles),
	}
	if len(p.Flows) > 0 {
		attrs = append(attrs, slog.String("top_flow", p.Flows[0].Name))
	}
	return attrs
}

// Profile attributes the run's composite histogram: every bucket count
// assigned to its owning control-store flow and Table 8 class, with
// cycles and shares but no host ns (no wall time belongs to the
// composite as a whole; attach a Profiler for that). The histogram is
// bit-exact across Parallelism, so the profile is deterministic.
func (r *Results) Profile() *Profile {
	return prof.Exact(machineROM(), flowIndex(), r.hist)
}
