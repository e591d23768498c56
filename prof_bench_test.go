package vax780

// Profiler-overhead benchmarks. The profiler prices each workload's
// board histogram at its merge and adds nothing to the cycle loop, so
// a run with no profiler attached must cost within 1% of the fault-era
// baseline (BenchmarkFaults/off) — CI gates that A/B across base and
// head with vaxbench -compare, and the "host-time profiler" entry of
// BENCH_history.json records the adjudication. The other variants
// price the attached board engine and the exact engine's attribution
// walk over a composite histogram.

import (
	"testing"

	"vax780/internal/runlog"
)

// newBenchClock returns the sanctioned wall-clock reader (the run
// ledger's clock; the simulation itself stays clock-free).
func newBenchClock() *runlog.Clock { return runlog.NewClock() }

// minNs reduces one timing arm to its minimum — the low-noise
// estimator for a deterministic computation (every disturbance only
// adds time, so the minimum is the closest observation to true cost).
func minNs(v []float64) float64 {
	m := v[0]
	for _, x := range v[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

func benchProfRun(b *testing.B, attach bool) {
	b.Helper()
	var cycles uint64
	for i := 0; i < b.N; i++ {
		cfg := RunConfig{
			Instructions: 10_000,
			Workloads:    []WorkloadID{TimesharingA},
		}
		if attach {
			cfg.Profiler = &Profiler{}
		}
		res, err := Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		cycles = res.PerWorkload[0].Cycles
	}
	b.ReportMetric(float64(cycles), "sim_cycles/op")
}

func BenchmarkProf(b *testing.B) {
	b.Run("off", func(b *testing.B) {
		// No profiler: the disabled path the <1% gate prices — one
		// nil pointer check per workload merge.
		benchProfRun(b, false)
	})
	b.Run("sampling", func(b *testing.B) {
		// The board engine attached (the name predates it and is kept
		// for the bench ledger): each workload's board histogram is
		// classified onto flows and priced by wall-time share at its
		// merge; the cycle loop is the bare run's.
		benchProfRun(b, true)
	})
	b.Run("exact", func(b *testing.B) {
		// The exact engine alone: attribute an already-measured
		// composite histogram onto flows (no simulation in the loop).
		res, err := Run(RunConfig{
			Instructions: 10_000,
			Workloads:    []WorkloadID{TimesharingA},
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if p := res.Profile(); len(p.Flows) == 0 {
				b.Fatal("empty profile")
			}
		}
	})
}

// TestProfilerSamplingOverheadInterleaved is the in-process A/B: pairs
// of runs, profiler detached then attached, interleaved so host drift
// hits both arms alike. The attached profiler must stay within 25% of
// the detached run in at least one of three measurement sessions — a
// loose in-process bound (CI's cross-revision vaxbench -compare gate is
// the precise one); what this test pins down is that attaching the
// profiler cannot be catastrophically slow. Each arm reduces to its
// minimum (the low-noise estimator for a deterministic computation)
// and a session under the bound ends the test: on a noisy shared host
// single runs spread ±40% and any single session can come in high, but
// only a genuinely slow profiler stays over the bound across every
// pair of all three sessions.
func TestProfilerSamplingOverheadInterleaved(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	const pairs = 7
	cfg := RunConfig{Instructions: 10_000, Workloads: []WorkloadID{TimesharingA}}

	time1 := func(attach bool) float64 {
		c := cfg
		if attach {
			c.Profiler = &Profiler{}
		}
		sw := newBenchClock()
		if _, err := Run(c); err != nil {
			t.Fatal(err)
		}
		return sw.Ns()
	}

	// Warm both paths once (trace generation, allocator) off the books.
	time1(false)
	time1(true)

	const sessions = 3
	best := 0.0
	for s := 0; s < sessions; s++ {
		var off, on []float64
		for i := 0; i < pairs; i++ {
			off = append(off, time1(false))
			on = append(on, time1(true))
		}
		offMin, onMin := minNs(off), minNs(on)
		overhead := 100 * (onMin - offMin) / offMin
		t.Logf("profiler overhead session %d: off %.2f ms, on %.2f ms (%+.1f%%, min of %d pairs)",
			s+1, offMin/1e6, onMin/1e6, overhead, pairs)
		if overhead <= 25 {
			return
		}
		if s == 0 || overhead < best {
			best = overhead
		}
	}
	t.Errorf("attached profiler overhead %.1f%% exceeds the 25%% in-process bound in all %d sessions",
		best, sessions)
}
