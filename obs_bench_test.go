package vax780

// Trace-recorder overhead benchmarks. RunConfig.Trace rides the same
// nil-checked hook pattern as the telemetry probes, fault injectors,
// and profiler, and its spans are emitted only at run and
// workload boundaries — so a run with no recorder attached must cost
// within 1% of the baseline, and CI gates BenchmarkObs/off A/B across
// base and head with vaxbench -compare (the "trace recorder" entry of
// BENCH_history.json records the adjudication). The "on" variant prices the attached
// recorder including the JSONL export and wall strip — the exact work
// a vaxd job performs to stage trace.jsonl into its bundle.

import (
	"bytes"
	"testing"

	"vax780/internal/obs"
)

func benchObsRun(b *testing.B, attach bool) {
	b.Helper()
	var cycles uint64
	for i := 0; i < b.N; i++ {
		cfg := RunConfig{
			Instructions: 10_000,
			Workloads:    []WorkloadID{TimesharingA},
		}
		var rec *obs.Recorder
		if attach {
			rec = obs.NewRecorder("bench")
			cfg.Trace = rec
		}
		res, err := Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		cycles = res.PerWorkload[0].Cycles
		if attach {
			var buf bytes.Buffer
			if err := rec.WriteJSONL(&buf); err != nil {
				b.Fatal(err)
			}
			if _, err := obs.StripWall(buf.Bytes()); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(cycles), "sim_cycles/op")
}

func BenchmarkObs(b *testing.B) {
	b.Run("off", func(b *testing.B) {
		// No recorder: the disabled path the <1% gate prices — every
		// span call site is a nil pointer test.
		benchObsRun(b, false)
	})
	b.Run("on", func(b *testing.B) {
		// Recorder attached: span construction at workload boundaries,
		// exact flow attribution, JSONL export, wall strip.
		benchObsRun(b, true)
	})
}

// TestTraceOverheadInterleaved is the in-process A/B: pairs of runs,
// recorder detached then attached, interleaved so host drift hits both
// arms alike. The attached recorder must stay within 25% of the
// detached run in at least one of three measurement sessions — a loose
// in-process bound (CI's cross-revision vaxbench -compare gate on
// BenchmarkObs/off is the precise one); what this test pins down is
// that span recording at workload granularity cannot be
// catastrophically slow. Each arm reduces to its minimum, and a
// session under the bound ends the test — only a genuinely slow
// recorder stays over the bound across all three sessions.
func TestTraceOverheadInterleaved(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	const pairs = 7
	cfg := RunConfig{Instructions: 10_000, Workloads: []WorkloadID{TimesharingA}}

	time1 := func(attach bool) float64 {
		c := cfg
		if attach {
			c.Trace = obs.NewRecorder("bench")
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
		t.Logf("recorder overhead session %d: off %.2f ms, on %.2f ms (%+.1f%%, min of %d pairs)",
			s+1, offMin/1e6, onMin/1e6, overhead, pairs)
		if overhead <= 25 {
			return
		}
		if s == 0 || overhead < best {
			best = overhead
		}
	}
	t.Errorf("attached recorder overhead %.1f%% exceeds the 25%% in-process bound in all %d sessions",
		best, sessions)
}
