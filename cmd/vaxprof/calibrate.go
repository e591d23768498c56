package main

// The measurement loop: solve the per-class host cost (ns per
// simulated cycle of each Table 8 class) from timed single-workload
// runs, and time the profiled composite itself in the same breath.
// Each workload weights compute, memory traffic, and stalls
// differently, so the per-workload (class-cycle vector, wall ns) pairs
// form the overdetermined system prof.Solve prices. Two MissLatency
// variants join the pool to move stall weight independently of the
// instruction mix, which conditions the read/write-stall columns.
//
// Everything is interleaved: repetition r of every probe AND of the
// composite runs before repetition r+1 of any, so host noise (thermal
// drift, noisy neighbours, GC epochs) hits all arms alike instead of
// whichever phase ran last — the same A/B discipline the repo's
// overhead gates use. Each arm keeps its minimum wall time across
// repetitions, the standard low-noise estimator for a deterministic
// computation; the composite's reconciliation reference takes that
// minimum per workload, so one slow workload in an otherwise-fast
// repetition does not inflate it.

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"vax780"
	"vax780/internal/prof"
)

// stopwatch is the fallback wall-clock reader (used only when a run
// carried no profiler to time its workloads).
type stopwatch struct{ start time.Time }

func newStopwatch() stopwatch { return stopwatch{start: time.Now()} }

func (s stopwatch) ns() float64 { return float64(time.Since(s.start)) }

// probeConfig is one calibration point: a run configuration whose
// class-cycle vector and wall time become one equation. pool names the
// workload whose composite spans time the same work this probe times —
// a plain single-workload probe on the stock configuration is exactly
// one workload of the sequential composite, so their timing
// observations share one per-workload minimum. Variant probes
// (MissLatency overrides) run different machine timing and keep their
// own minima.
type probeConfig struct {
	label string
	pool  string
	cfg   vax780.RunConfig
}

// timedRun executes one run with a throwaway profiler attached and
// returns the results plus the profiler's summed workload-span time.
// Timing through the profiler keeps every measurement in this command —
// probe and profiled composite alike — on the same window (workload
// execution, excluding run setup such as trace generation), which is
// what makes the exact engine's total reconcile with the measured time.
func timedRun(cfg vax780.RunConfig) (*vax780.Results, float64, error) {
	p := &vax780.Profiler{}
	cfg.Profiler = p
	// Collect before the window opens: a GC epoch landing inside one
	// arm's window and not another's is the dominant single-run noise.
	runtime.GC()
	sw := newStopwatch()
	res, err := vax780.Run(cfg)
	if err != nil {
		return nil, 0, err
	}
	ns := sw.ns()
	if prof := p.Profile(); prof != nil && prof.WallNs > 0 {
		ns = prof.WallNs
	}
	return res, ns, nil
}

// probePlan builds the calibration points: the five workloads alone,
// plus two miss-latency variants that shift stall weight.
func probePlan(n int) []probeConfig {
	var plan []probeConfig
	for _, id := range vax780.AllWorkloads() {
		plan = append(plan, probeConfig{
			label: id.String(),
			pool:  id.String(),
			cfg: vax780.RunConfig{
				Instructions: n,
				Workloads:    []vax780.WorkloadID{id},
				Parallelism:  1,
			},
		})
	}
	for _, miss := range []int{2, 12} {
		plan = append(plan, probeConfig{
			label: fmt.Sprintf("%s miss=%d", vax780.TimesharingA, miss),
			cfg: vax780.RunConfig{
				Instructions: n,
				Workloads:    []vax780.WorkloadID{vax780.TimesharingA},
				MissLatency:  miss,
				Parallelism:  1,
			},
		})
	}
	return plan
}

// measurement is everything one interleaved measurement session
// produces: the solved (or passed-through) calibration, the kept
// composite profiler and results, and the reconciliation reference.
type measurement struct {
	cal      *vax780.Calibration
	profiler *vax780.Profiler
	res      *vax780.Results
	wallNs   float64
}

// measure runs the interleaved session: reps repetitions of every
// calibration probe (skipped when preCal is non-nil) and of the
// profiled composite. The composite repetition with the lowest wall
// time supplies the reported profiler and results; ledgerPath, when
// set, is rewritten per repetition and ends up with the last
// repetition's stream (identical across repetitions up to host
// timestamps, the simulation being deterministic).
func measure(n, reps, top int, preCal *vax780.Calibration, ledgerPath string) (*measurement, error) {
	if reps < 1 {
		reps = 1
	}
	var plan []probeConfig
	if preCal == nil {
		plan = probePlan(n)
		fmt.Fprintf(os.Stderr,
			"vaxprof: measuring (%d probes + composite) x %d reps, %d instructions per workload\n",
			len(plan), reps, n)
	}

	// One discarded warm-up run: the first simulation in a process pays
	// allocator growth and cold caches no later run sees; timing it
	// into an arm would bias that arm upward.
	warm := vax780.RunConfig{
		Instructions: n,
		Workloads:    []vax780.WorkloadID{vax780.TimesharingA},
		Parallelism:  1,
	}
	if _, _, err := timedRun(warm); err != nil {
		return nil, fmt.Errorf("warm-up run: %w", err)
	}

	m := &measurement{cal: preCal}
	probes := make([]prof.Probe, len(plan))
	// minWl pools every timing observation of one workload's work on
	// the stock configuration — plain probe runs and composite spans
	// alike — into one per-workload minimum.
	minWl := map[string]float64{}
	pool := func(name string, ns float64) {
		if d, ok := minWl[name]; !ok || ns < d {
			minWl[name] = ns
		}
	}
	bestNs := 0.0
	for rep := 0; rep < reps; rep++ {
		for i := range plan {
			res, ns, err := timedRun(plan[i].cfg)
			if err != nil {
				return nil, fmt.Errorf("calibration probe %q: %w", plan[i].label, err)
			}
			if p := plan[i].pool; p != "" {
				pool(p, ns)
			}
			if rep == 0 {
				probes[i] = prof.Probe{
					Label:       plan[i].label,
					ClassCycles: res.ClassCycles(),
					WallNs:      ns,
				}
			} else if ns < probes[i].WallNs {
				probes[i].WallNs = ns
			}
		}

		p := &vax780.Profiler{MaxFlows: top}
		cfg := vax780.RunConfig{Instructions: n, Parallelism: 1, Profiler: p}
		var led io.WriteCloser
		if ledgerPath != "" {
			f, err := os.Create(ledgerPath)
			if err != nil {
				return nil, err
			}
			led = f
			cfg.Ledger = f
		}
		runtime.GC()
		sw := newStopwatch()
		res, err := vax780.Run(cfg)
		if led != nil {
			if cerr := led.Close(); err == nil && cerr != nil {
				err = cerr
			}
		}
		if err != nil {
			return nil, err
		}
		ns := sw.ns()
		if pr := p.Profile(); pr != nil && pr.WallNs > 0 {
			ns = pr.WallNs
		}
		if m.profiler == nil || ns < bestNs {
			m.profiler, m.res, bestNs = p, res, ns
		}
		if root := p.SpanTree(); root != nil {
			for _, ws := range root.Children() {
				pool(ws.Name, ws.DurNs)
			}
		}
	}

	// The reconciliation reference: each workload's fastest observation
	// — probe run or composite span — summed. min-of-everything on both
	// sides is what cancels the shared host's noise.
	m.wallNs = bestNs
	if len(minWl) > 0 {
		sum := 0.0
		for _, d := range minWl {
			sum += d
		}
		m.wallNs = sum
	}

	if preCal == nil {
		// The plain workload probes adopt the pooled minima too: the
		// calibration equations and the reference then price the same
		// observations, so fit residuals — not phase-to-phase host
		// drift — are the only reconciliation error left.
		for i := range plan {
			if p := plan[i].pool; p != "" {
				if d, ok := minWl[p]; ok && d < probes[i].WallNs {
					probes[i].WallNs = d
				}
			}
		}
		cal, err := prof.Solve(probes)
		if err != nil {
			return nil, fmt.Errorf("calibration solve: %w", err)
		}
		cal.Host = runtime.GOOS + "/" + runtime.GOARCH
		for _, p := range probes {
			pred := cal.Price(p.ClassCycles)
			fmt.Fprintf(os.Stderr, "vaxprof:   probe %-24s measured %7.1f ms  fitted %7.1f ms (%+.1f%%)\n",
				p.Label, p.WallNs/1e6, pred/1e6, 100*(pred-p.WallNs)/p.WallNs)
		}
		fmt.Fprintf(os.Stderr, "vaxprof: calibration ns/cycle by class:")
		for i, ns := range cal.NsPerClass {
			fmt.Fprintf(os.Stderr, " %s=%.1f", classAbbrev(i), ns)
		}
		fmt.Fprintln(os.Stderr)
		m.cal = cal
	}
	return m, nil
}

// classAbbrev names a Table 8 column compactly for the stderr line.
func classAbbrev(col int) string {
	names := [...]string{"COMP", "READ", "RSTL", "WRIT", "WSTL", "IBST"}
	if col < len(names) {
		return names[col]
	}
	return fmt.Sprintf("C%d", col)
}
