package vax780

// Superword-engine benchmarks: the same no-hook hot-loop configuration
// as BenchmarkFaults/off, fused (the default) and interpreted
// (NoFusion), so the pair prices exactly what fusion buys. The two
// variants are simulation-identical — same cycles, same histogram —
// which the determinism suite proves; only host ns/op may differ.
// The "superword engine" entries of BENCH_history.json record the
// adjudicated numbers and the interleaved A/B method (make
// bench-fusion).

import "testing"

func benchFusionRun(b *testing.B, noFusion bool) {
	b.Helper()
	var cycles uint64
	for i := 0; i < b.N; i++ {
		res, err := Run(RunConfig{
			Instructions: 10_000,
			Workloads:    []WorkloadID{TimesharingA},
			NoFusion:     noFusion,
		})
		if err != nil {
			b.Fatal(err)
		}
		cycles = res.PerWorkload[0].Cycles
	}
	b.ReportMetric(float64(cycles), "sim_cycles/op")
}

func BenchmarkFusion(b *testing.B) {
	b.Run("on", func(b *testing.B) {
		// The default path: ulint-proven straight-line runs execute as
		// superwords; everything else single-steps.
		benchFusionRun(b, false)
	})
	b.Run("off", func(b *testing.B) {
		// The escape hatch: every microword single-stepped, the
		// pre-fusion hot loop.
		benchFusionRun(b, true)
	})
}
