package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"runtime"

	"vax780"
	"vax780/internal/obs"
	"vax780/internal/upc"
	"vax780/internal/workload"
)

// closedLoop is a closed-loop workload: one caller issuing op after op.
type closedLoop struct {
	cfg runConfig

	// op is the timed call; when traced, its calls hang under the span
	// root (t is nil in an untraced run).
	op func(i int, t *tracer, root int) (*vax780.Results, error)

	// check is the untimed correctness gate on each op's result.
	check func(i int, res *vax780.Results) error

	// layers makes the traced run's extra calls after an op: the pairs
	// that price a layer against the op, and the per-layer probes.
	layers func(i int, t *tracer) error

	// metrics derives the workload's own layer metrics from the spans.
	metrics func(t *tracer, m map[string]float64, sims *simCounts)

	// final, when set, is a correctness check after the window.
	final func() error
}

func (c *closedLoop) close() error { return nil }

func (c *closedLoop) serviceCPUNs() float64 { return 0 }

// measure runs ops back to back until the window has lasted its
// seconds and holds minOps ops.
func (c *closedLoop) measure() (*outcome, error) {
	out := &outcome{metrics: make(map[string]float64)}
	var t *tracer
	if c.cfg.traced {
		t = &tracer{}
	}
	var (
		durs     []float64 // op wall time
		cpus     []float64 // op CPU time
		perCycle []float64 // op CPU time per simulated cycle
		mem      memUse
		sims     simCounts
		host     = newProbe()
	)
	start := now()
	for i := 0; ; i++ {
		elapsed := (now() - start) / 1e9
		if (elapsed >= c.cfg.seconds && len(durs) >= c.cfg.minOps) || elapsed >= maxWindowS {
			break
		}
		out.attempted++
		var (
			res *vax780.Results
			err error
			d   float64
		)
		// Each op starts from a collected heap, as a run in a fresh
		// process does, instead of paying for an earlier op's garbage:
		// on the allocation-heavy observed op this cut the spread of
		// the fastest op between 25 s windows from 8-11% to 4-7%. The
		// probe runs in the quiet after the collection.
		runtime.GC()
		host.run()
		cpu0 := cpuNs()
		if t != nil {
			mem.before()
			root := t.begin(i, 0, "op")
			res, err = c.op(i, t, root)
			t.end(root)
			mem.after()
			d = t.spans[root-1].End - t.spans[root-1].Start
		} else {
			t0 := now()
			res, err = c.op(i, nil, 0)
			d = now() - t0
		}
		cpu := cpuNs() - cpu0
		if err != nil {
			out.failed++
			fmt.Fprintf(os.Stderr, "bench: %s op %d: %v\n", c.cfg.name, i, err)
			continue
		}
		durs = append(durs, d)
		cpus = append(cpus, cpu)
		perCycle = append(perCycle, cpu/float64(res.Histogram().TotalCycles()))
		if err := c.check(i, res); err != nil {
			out.fail("op %d: %v", i, err)
		}
		if err := checkDecomposition(res); err != nil {
			out.fail("op %d: %v", i, err)
		}
		if t == nil {
			continue
		}
		sims.add(i, res)
		if err := postRun(t, i, res); err != nil {
			return nil, err
		}
		if err := c.layers(i, t); err != nil {
			return nil, err
		}
	}
	if c.final != nil {
		if err := c.final(); err != nil {
			out.fail("%v", err)
		}
	}
	m := out.metrics
	if t == nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %d ops; wall p50 %.3f ms, p90 %.3f ms; CPU p50 %.3f ms, p90 %.3f ms; host probe median %.3f ms\n",
			c.cfg.name, len(durs), median(durs)/1e6, tail(durs, 0.9)/1e6, median(cpus)/1e6, tail(cpus, 0.9)/1e6, host.ms())
		m["norm_cpu_ms_per_op"] = median(cpus) * host.scale() / 1e6
		m["norm_ns_per_sim_cycle"] = median(perCycle) * host.scale()
		return out, nil
	}
	t.finish()
	layerMetrics(t, m, median(durs)/1e6)
	m["bench.host_probe_ms"] = host.ms()
	sims.metrics(m)
	mem.metrics(m, len(durs))
	c.metrics(t, m, &sims)
	for _, name := range offPath[c.cfg.name] {
		m[name] = 0
	}
	return out, t.writeJSONL(c.cfg.spans)
}

// runSpan calls vax780.Run under a span and returns its result.
func runSpan(t *tracer, op, parent int, name string, cfg vax780.RunConfig) (*vax780.Results, error) {
	var res *vax780.Results
	err := t.call(op, parent, name, func() (err error) {
		res, err = vax780.Run(cfg)
		return err
	})
	return res, err
}

// compositeInstructions is the paper composite's default length.
const compositeInstructions = 50_000

// setupComposite warms the shared trace cache with the composite's five
// traces and records the reference histogram every op must reproduce:
// the interpreted, sequential run.
func setupComposite(cfg runConfig) (session, error) {
	base := vax780.RunConfig{Instructions: compositeInstructions, Parallelism: parallelism}
	refCfg := base
	refCfg.NoFusion, refCfg.Parallelism = true, 1
	ref, err := vax780.Run(refCfg)
	if err != nil {
		return nil, err
	}
	want := *ref.Histogram()
	return &closedLoop{
		cfg: cfg,
		op: func(i int, t *tracer, root int) (*vax780.Results, error) {
			return runSpan(t, i, root, "vax780.Run", base)
		},
		check: func(_ int, res *vax780.Results) error {
			if *res.Histogram() != want {
				return errors.New("histogram differs from the NoFusion, Parallelism 1 reference")
			}
			return nil
		},
		layers: func(i int, t *tracer) error {
			if err := generate(t, i, workload.AllProfiles(compositeInstructions)...); err != nil {
				return err
			}
			return fusionPair(t, i, func() vax780.RunConfig { return base })
		},
		metrics: func(t *tracer, m map[string]float64, sims *simCounts) {
			fusionMetrics(t, m, sims.cycles)
		},
	}, nil
}

// The observed workload's observer settings.
const (
	observedInstructions = 10_000
	intervalCycles       = 100_000
	tracerCap            = 50_000
	flightDepth          = 64
)

// observedRun is one fully observed composite run and its observers.
type observedRun struct {
	cfg       vax780.RunConfig
	telemetry *vax780.Telemetry
	ledger    bytes.Buffer
	recorder  *obs.Recorder
}

func newObservedRun() *observedRun {
	r := &observedRun{
		telemetry: vax780.NewTelemetry(intervalCycles, tracerCap),
		recorder:  obs.NewRecorder("bench"),
	}
	r.cfg = vax780.RunConfig{
		Instructions: observedInstructions,
		Parallelism:  parallelism,
		Telemetry:    r.telemetry,
		FlightDepth:  flightDepth,
		Ledger:       &r.ledger,
		Trace:        r.recorder,
		Profiler:     &vax780.Profiler{Trace: new(bytes.Buffer)},
	}
	return r
}

// observers attaches each observer alone to the bare observed config;
// the traced run prices each against its base.
var observers = []struct {
	span, base string
	attach     func(*vax780.RunConfig)
}{
	{"observer.bare", "", func(*vax780.RunConfig) {}},
	{"observer.counters", "observer.bare", func(c *vax780.RunConfig) { c.Telemetry = vax780.NewTelemetry(0, 0) }},
	{"observer.intervals", "observer.counters", func(c *vax780.RunConfig) { c.Telemetry = vax780.NewTelemetry(intervalCycles, 0) }},
	{"observer.tracer", "observer.counters", func(c *vax780.RunConfig) { c.Telemetry = vax780.NewTelemetry(0, tracerCap) }},
	{"observer.flight", "observer.bare", func(c *vax780.RunConfig) { c.FlightDepth = flightDepth }},
	{"observer.ledger", "observer.bare", func(c *vax780.RunConfig) { c.Ledger = new(bytes.Buffer) }},
	{"observer.trace", "observer.bare", func(c *vax780.RunConfig) { c.Trace = obs.NewRecorder("bench") }},
	{"observer.prof", "observer.bare", func(c *vax780.RunConfig) {
		c.Profiler = &vax780.Profiler{Trace: new(bytes.Buffer)}
	}},
}

// observerMetric names each observer's layer metric.
var observerMetric = map[string]string{
	"observer.counters":  "telemetry.counters_ms",
	"observer.intervals": "telemetry.intervals_ms",
	"observer.tracer":    "telemetry.tracer_ms",
	"observer.flight":    "upc.flight_ms",
	"observer.ledger":    "runlog.ledger_ms",
	"observer.trace":     "obs.trace_ms",
	"observer.prof":      "prof.sampler_ms",
}

// setupObserved warms the 10k-instruction traces and records the bare
// reference histogram.
func setupObserved(cfg runConfig) (session, error) {
	bare := vax780.RunConfig{Instructions: observedInstructions, Parallelism: parallelism}
	refCfg := bare
	refCfg.NoFusion, refCfg.Parallelism = true, 1
	ref, err := vax780.Run(refCfg)
	if err != nil {
		return nil, err
	}
	want := *ref.Histogram()
	var (
		last                 *observedRun
		lastSpans            []byte
		firstLedger, firstTr []byte
	)
	return &closedLoop{
		cfg: cfg,
		op: func(i int, t *tracer, root int) (*vax780.Results, error) {
			r := newObservedRun()
			res, err := runSpan(t, i, root, "vax780.Run", r.cfg)
			if err != nil {
				return nil, err
			}
			var chrome, intervals, spans bytes.Buffer
			err = errors.Join(
				t.call(i, root, "telemetry.WriteTrace", func() error { return r.telemetry.WriteTrace(&chrome) }),
				t.call(i, root, "telemetry.WriteIntervalsJSON", func() error { return r.telemetry.WriteIntervalsJSON(&intervals) }),
				t.call(i, root, "obs.WriteJSONL", func() error { return r.recorder.WriteJSONL(&spans) }))
			last, lastSpans = r, spans.Bytes()
			return res, err
		},
		check: func(i int, res *vax780.Results) error {
			h := res.Histogram()
			if *h != want {
				return errors.New("observed histogram differs from the bare NoFusion, Parallelism 1 reference")
			}
			if got := last.telemetry.IntervalCycleTotal(); got != h.TotalCycles() {
				return fmt.Errorf("intervals sum to %d cycles, histogram holds %d", got, h.TotalCycles())
			}
			ledger, err := vax780.StripLedgerWallClock(last.ledger.Bytes())
			if err != nil {
				return err
			}
			spans, err := obs.StripWall(lastSpans)
			if err != nil {
				return err
			}
			if i == 0 {
				firstLedger, firstTr = ledger, spans
			}
			switch {
			case !bytes.Equal(ledger, firstLedger):
				return errors.New("stripped ledger differs from op 0's")
			case !bytes.Equal(spans, firstTr):
				return errors.New("stripped span trace differs from op 0's")
			}
			return nil
		},
		layers: func(i int, t *tracer) error {
			if err := generate(t, i, workload.AllProfiles(observedInstructions)...); err != nil {
				return err
			}
			for _, o := range observers {
				c := bare
				o.attach(&c)
				if _, err := runSpan(t, i, 0, o.span, c); err != nil {
					return err
				}
			}
			return fusionPair(t, i, func() vax780.RunConfig { return newObservedRun().cfg })
		},
		metrics: func(t *tracer, m map[string]float64, sims *simCounts) {
			cost := func(span, base string) float64 {
				return median(pairedDiff(t.dur(span), t.dur(base))) / 1e6
			}
			parts := 0.0
			for _, o := range observers[1:] {
				v := cost(o.span, o.base)
				m[observerMetric[o.span]] = v
				parts += v
			}
			m["telemetry.export_ms"] = t.selfMs("telemetry.WriteTrace", "telemetry.WriteIntervalsJSON")
			m["obs.export_ms"] = t.selfMs("obs.WriteJSONL")
			parts += m["telemetry.export_ms"] + m["obs.export_ms"]
			whole := cost("op", "observer.bare")
			m["observed.unattributed_pct"] = (whole - parts) / whole * 100
			fusionMetrics(t, m, sims.cycles)
		},
	}, nil
}

// customInstructions is each custom-seeds op's length.
const customInstructions = 50_000

// setupCustom warms the simulator (control store, flow index) with one
// custom run; every op then generates and interprets a fresh trace.
func setupCustom(cfg runConfig) (session, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	var seeds []int64
	seed := func(i int) int64 {
		for len(seeds) <= i {
			seeds = append(seeds, rng.Int63())
		}
		return seeds[i]
	}
	custom := func(i int) vax780.CustomWorkload {
		return vax780.CustomWorkload{Name: "bench", Seed: seed(i)}
	}
	if _, err := vax780.RunCustom(vax780.CustomWorkload{Name: "bench", Seed: -cfg.seed}, customInstructions); err != nil {
		return nil, err
	}
	var first upc.Histogram
	return &closedLoop{
		cfg: cfg,
		op: func(i int, t *tracer, root int) (*vax780.Results, error) {
			var res *vax780.Results
			err := t.call(i, root, "vax780.RunCustom", func() (err error) {
				res, err = vax780.RunCustom(custom(i), customInstructions)
				return err
			})
			return res, err
		},
		check: func(i int, res *vax780.Results) error {
			if i == 0 {
				first = *res.Histogram()
			}
			return nil
		},
		layers: func(i int, t *tracer) error {
			return generate(t, i, workload.Custom(workload.CustomConfig{
				Name: "bench", Seed: seed(i), Instructions: customInstructions,
			}))
		},
		metrics: func(t *tracer, m map[string]float64, sims *simCounts) {
			// RunCustom never fuses: the op itself is the interpreted run.
			var perCycle []float64
			for op, d := range t.dur("vax780.RunCustom") {
				perCycle = append(perCycle, d/sims.cycles[op])
			}
			m["machine.interp_ns_per_cycle"] = median(perCycle)
		},
		final: func() error {
			res, err := vax780.RunCustom(custom(0), customInstructions)
			if err != nil {
				return err
			}
			if *res.Histogram() != first {
				return errors.New("re-running op 0's seed gave a different histogram")
			}
			return nil
		},
	}, nil
}
