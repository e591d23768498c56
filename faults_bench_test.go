package vax780

// Fault-hook overhead benchmarks. The fault injectors ride the same
// nil-checked hook pattern as the telemetry probes, so a run with no
// plan attached must cost within 1% of the telemetry-era baseline
// (the "off" variant of BENCH_history.json's "telemetry layer" entry)
// — that gate is recorded in its "fault-injection hooks" entry. The
// other variants price an attached-but-inert plan (all rates zero:
// every hook called, nothing fires) and an actively injecting one.

import "testing"

func benchFaultRun(b *testing.B, fc *FaultConfig) {
	b.Helper()
	var cycles uint64
	for i := 0; i < b.N; i++ {
		res, err := Run(RunConfig{
			Instructions: 10_000,
			Workloads:    []WorkloadID{TimesharingA},
			Faults:       fc,
		})
		if err != nil {
			b.Fatal(err)
		}
		cycles = res.PerWorkload[0].Cycles
	}
	b.ReportMetric(float64(cycles), "sim_cycles/op")
}

func BenchmarkFaults(b *testing.B) {
	b.Run("off", func(b *testing.B) {
		// No plan: the disabled path the <1% gate prices — every hook is
		// one nil pointer check.
		benchFaultRun(b, nil)
	})
	b.Run("zero-plan", func(b *testing.B) {
		// Plan attached, all rates zero: hooks call into the plan, each
		// class declines without drawing.
		benchFaultRun(b, &FaultConfig{Seed: 1})
	})
	b.Run("injecting", func(b *testing.B) {
		// Measurement faults only, so the run completes deterministically.
		benchFaultRun(b, &FaultConfig{
			Seed: 1, UPCDrop: 1e-4, UPCFlip: 1e-4, UPCSaturate: 1e-5,
		})
	})
}
