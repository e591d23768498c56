package vax780

// Telemetry-overhead benchmarks. The paper's board was passive in
// hardware; the reproduction's probes must be near-passive in software.
// BenchmarkTelemetry/off runs the exact RunConfig the seed ran — its
// only added cost is the nil probe check on the hot paths — and is the
// <5%-regression gate recorded in the "telemetry layer" entry of
// BENCH_history.json. The other
// variants price each telemetry component.

import "testing"

func benchRun(b *testing.B, tel func() *Telemetry) {
	b.Helper()
	var cycles uint64
	for i := 0; i < b.N; i++ {
		cfg := RunConfig{
			Instructions: 10_000,
			Workloads:    []WorkloadID{TimesharingA},
		}
		if tel != nil {
			cfg.Telemetry = tel()
		}
		res, err := Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		cycles = res.PerWorkload[0].Cycles
	}
	b.ReportMetric(float64(cycles), "sim_cycles/op")
}

func BenchmarkTelemetry(b *testing.B) {
	b.Run("off", func(b *testing.B) {
		benchRun(b, nil)
	})
	b.Run("counters", func(b *testing.B) {
		benchRun(b, func() *Telemetry { return NewTelemetry(0, 0) })
	})
	b.Run("intervals", func(b *testing.B) {
		benchRun(b, func() *Telemetry { return NewTelemetry(10_000, 0) })
	})
	b.Run("full", func(b *testing.B) {
		benchRun(b, func() *Telemetry { return NewTelemetry(10_000, 1_000_000) })
	})
}
