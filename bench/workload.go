package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime"

	"vax780"
	"vax780/internal/analysis"
	"vax780/internal/machine"
	"vax780/internal/paper"
	"vax780/internal/workload"
)

// workloadOrder is the run order of the benchmark's workloads.
var workloadOrder = []string{"composite", "observed", "custom-seeds", "vaxd-mix"}

// workloads maps each workload to its set-up, run in the child process
// that measures it.
var workloads = map[string]func(runConfig) (session, error){
	"composite":    setupComposite,
	"observed":     setupObserved,
	"custom-seeds": setupCustom,
	"vaxd-mix":     setupVaxdMix,
}

const (
	// parallelism is the worker count of every composite run: the host
	// the benchmark was defined on has two cores.
	parallelism = 2

	// minOps is the fewest ops an untraced closed-loop window holds, so
	// that its median rests on enough samples however slow the host.
	minOps = 20

	// minTracedOps is the fewest ops a traced window holds.
	minTracedOps = 10

	// maxWindowS stops a closed loop that cannot reach its sample count.
	maxWindowS = 120
)

// runConfig is one child's measurement configuration.
type runConfig struct {
	name    string
	seed    int64
	seconds float64 // measured window
	minOps  int     // fewest ops a closed-loop window may hold
	traced  bool
	vaxd    string // vaxd binary vaxd-mix drives over HTTP; "" only in tests
	work    string // scratch directory private to the child
	spans   string // span JSONL written by a traced run
}

// session is a workload after set-up.
type session interface {
	measure() (*outcome, error)
	close() error

	// serviceCPUNs is the CPU time of the processes the session started,
	// once close has stopped them.
	serviceCPUNs() float64
}

// outcome is what one measured window produced.
type outcome struct {
	attempted, failed int
	errs              []string // correctness-gate failures
	metrics           map[string]float64
}

func (o *outcome) fail(format string, args ...any) {
	const keep = 10 // the first few failures tell the story
	if len(o.errs) < keep {
		o.errs = append(o.errs, fmt.Sprintf(format, args...))
	}
}

var (
	observerMetrics = []string{
		"telemetry.counters_ms", "telemetry.intervals_ms", "telemetry.tracer_ms",
		"telemetry.export_ms", "upc.flight_ms", "runlog.ledger_ms", "obs.trace_ms",
		"obs.export_ms", "prof.sampler_ms", "observed.unattributed_pct",
	}
	serviceMetrics = append([]string{
		"jobs.admit_ms", "jobs.queue_wait_ms_p50", "jobs.queue_wait_ms_p90",
		"jobs.simulate_ms", "jobs.finalize_ms", "jobs.unattributed_pct", "jobs.hit_ms",
		"castore.commit_ms", "castore.journal_append_ms",
		"loadgen.trace_reuse_pct",
	}, httpMetrics...)

	// httpMetrics come from the part of a traced vaxd-mix run that drives
	// the vaxd binary over HTTP.
	httpMetrics = []string{
		"vaxd.cold_ms_p50", "vaxd.cold_ms_p90", "vaxd.post_ms_p50", "vaxd.hit_ms_p50", "vaxd.hit_ms_p90",
		"loadgen.sse_missed",
	}
)

// offPath lists, per workload, the layer metrics of layers its op never
// calls. A traced run reports them as 0: what those layers cost the op.
// (RunCustom has no fused path, no observers and no service in front.)
var offPath = map[string][]string{
	"composite":    concat(observerMetrics, serviceMetrics),
	"observed":     serviceMetrics,
	"custom-seeds": concat([]string{"ufuse.saving_pct"}, observerMetrics, serviceMetrics),
	"vaxd-mix":     observerMetrics,
}

func concat(lists ...[]string) []string {
	var out []string
	for _, l := range lists {
		out = append(out, l...)
	}
	return out
}

// checkDecomposition is the paper's exact decomposition on one result:
// the per-workload cycles sum to the histogram total, the Table 8 cells
// sum to the total CPI, and that CPI times the instruction count is the
// histogram total again — every cycle in exactly one cell.
func checkDecomposition(res *vax780.Results) error {
	total := res.Histogram().TotalCycles()
	var perWorkload uint64
	for _, w := range res.PerWorkload {
		perWorkload += w.Cycles
	}
	if perWorkload != total {
		return fmt.Errorf("per-workload cycles sum to %d, histogram holds %d", perWorkload, total)
	}
	m := res.Analysis().CPIMatrix()
	var cells float64
	for _, row := range m.Cells {
		for _, c := range row {
			cells += c
		}
	}
	if math.Abs(cells-m.Total) > 1e-9*m.Total {
		return fmt.Errorf("Table 8 cells sum to %v, total CPI is %v", cells, m.Total)
	}
	if got := m.Total * float64(res.Instructions()); math.Abs(got-float64(total)) > 1e-6*float64(total) {
		return fmt.Errorf("total CPI x instructions = %v cycles, histogram holds %d", got, total)
	}
	return nil
}

// postRun times the post-run layers on one result, as a vaxd job runs
// them: the Table 8 reduction, report rendering and histogram encoding.
func postRun(t *tracer, op int, res *vax780.Results) error {
	var a *analysis.Analysis
	t.call(op, 0, "analysis.New", func() error {
		a = analysis.New(machine.ROM(), res.Histogram())
		return nil
	})
	t.call(op, 0, "analysis.CPIMatrix", func() error { a.CPIMatrix(); return nil })
	t.call(op, 0, "analysis.Quality", func() error { a.Quality(); return nil })
	t.call(op, 0, "vax780.Results.Report", func() error { res.Report(); return nil })
	var buf bytes.Buffer
	return t.call(op, 0, "vax780.Results.SaveHistogram", func() error { return res.SaveHistogram(&buf) })
}

// generate times workload.Generate on each of an op's profiles.
func generate(t *tracer, op int, profiles ...workload.Profile) error {
	for _, p := range profiles {
		err := t.call(op, 0, "workload.Generate", func() error {
			_, err := workload.Generate(p)
			return err
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// layerMetrics fills the layer metrics every workload measures the same
// way; opMs is the op's median duration.
func layerMetrics(t *tracer, m map[string]float64, opMs float64) {
	m["workload.generate_ms"] = t.selfMs("workload.Generate")
	m["workload.share_pct"] = m["workload.generate_ms"] / opMs * 100
	m["analysis.reduce_ms"] = t.selfMs("analysis.New", "analysis.CPIMatrix", "analysis.Quality")
	m["report.render_ms"] = t.selfMs("vax780.Results.Report")
	m["upc.encode_ms"] = t.selfMs("vax780.Results.SaveHistogram")
	m["bench.trace_overhead_pct"] = spanCostNs() * t.spansPerOp() / (opMs * 1e6) * 100
}

// fusionPair runs an op's configuration fused and with NoFusion,
// alternating which goes first so that neither side always runs in the
// other's wake. mk builds a fresh configuration (observers are single
// use).
func fusionPair(t *tracer, op int, mk func() vax780.RunConfig) error {
	fused, interp := mk(), mk()
	interp.NoFusion = true
	names := [2]string{"ufuse.fused", "ufuse.nofusion"}
	cfgs := [2]vax780.RunConfig{fused, interp}
	for k := 0; k < 2; k++ {
		j := (k + op) % 2
		if _, err := runSpan(t, op, 0, names[j], cfgs[j]); err != nil {
			return err
		}
	}
	return nil
}

// fusionMetrics prices fusion from the pairs: the saving against the
// NoFusion run, and that run's host ns per simulated cycle.
func fusionMetrics(t *tracer, m map[string]float64, cycles map[int]float64) {
	fused, interp := t.dur("ufuse.fused"), t.dur("ufuse.nofusion")
	var saving, perCycle []float64
	for op, x := range interp {
		saving = append(saving, (x-fused[op])/x*100)
		perCycle = append(perCycle, x/cycles[op])
	}
	m["ufuse.saving_pct"] = median(saving)
	m["machine.interp_ns_per_cycle"] = median(perCycle)
}

// simCounts averages the simulated statistics over results. They are
// deterministic: a change that only speeds up the simulator must leave
// them identical.
type simCounts struct {
	n      int
	sums   map[string]float64
	cycles map[int]float64 // by op
}

var classMetrics = [paper.NumT8Cols]string{
	"ebox.cpi_compute", "mem.cpi_read", "mem.cpi_rstall",
	"mem.cpi_write", "mem.cpi_wstall", "ibox.cpi_ibstall",
}

func (c *simCounts) add(op int, res *vax780.Results) {
	if c.sums == nil {
		c.sums = make(map[string]float64)
		c.cycles = make(map[int]float64)
	}
	c.n++
	cycles := float64(res.Histogram().TotalCycles())
	c.cycles[op] = cycles
	c.sums["sim.cycles_per_op"] += cycles
	c.sums["sim.instr_per_op"] += float64(res.Instructions())
	for i, cl := range res.CycleClasses() {
		c.sums[classMetrics[i]] += cl.Cycles
	}
	c.sums["mem.dread_miss_per_instr"] += res.CacheStudy().MissD
	c.sums["mem.tb_miss_per_instr"] += res.TBMiss().MissesPerInstr
	c.sums["sim.cpi_err_pct"] += math.Abs(res.CPI()-paper.Table8Total.V) / paper.Table8Total.V * 100
}

func (c *simCounts) metrics(m map[string]float64) {
	for k, v := range c.sums {
		m[k] = v / float64(c.n)
	}
}

// memUse accumulates Go heap activity over measured intervals.
type memUse struct {
	ms                  runtime.MemStats
	alloc, mallocs, gcs float64
}

func (u *memUse) before() { runtime.ReadMemStats(&u.ms) }

func (u *memUse) after() {
	prev := u.ms
	runtime.ReadMemStats(&u.ms)
	u.alloc += float64(u.ms.TotalAlloc - prev.TotalAlloc)
	u.mallocs += float64(u.ms.Mallocs - prev.Mallocs)
	u.gcs += float64(u.ms.NumGC - prev.NumGC)
}

func (u *memUse) metrics(m map[string]float64, ops int) {
	m["go.alloc_kb_per_op"] = u.alloc / 1024 / float64(ops)
	m["go.mallocs_per_op"] = u.mallocs / float64(ops)
	m["go.gc_per_op"] = u.gcs / float64(ops)
}
