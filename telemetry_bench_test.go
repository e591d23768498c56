package vax780

// Telemetry-overhead benchmarks. The paper's board was passive in
// hardware; the reproduction's probes must be near-passive in software.
// BenchmarkTelemetry/off runs the exact RunConfig the seed ran — its
// only added cost is the nil probe check on the hot paths — and is the
// <5%-regression gate recorded in the "telemetry layer" entry of
// BENCH_history.json. The other
// variants price each telemetry component, and observed prices the
// whole layer as the benchmark's observed workload attaches it.

import (
	"io"
	"testing"
)

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
	// observed carries the benchmark's observed-workload telemetry
	// settings: the five-workload composite at 10k instructions on two
	// workers, recording intervals and a trace that truncates inside the
	// first workload. B/op is its deterministic proxy, up to a small
	// spread: how many events a later child collects before the first
	// child's truncation stops it depends on scheduling.
	b.Run("observed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cfg := RunConfig{Instructions: 10_000, Parallelism: 2, Telemetry: NewTelemetry(100_000, 50_000)}
			if _, err := Run(cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkWriteTrace prices the Chrome trace export alone: observed
// builds the observed workload's trace once, outside the timer (the
// 10k composite on two workers, truncated at 50 000 events), then
// exports it into io.Discard. Its allocations are the export's own.
func BenchmarkWriteTrace(b *testing.B) {
	b.Run("observed", func(b *testing.B) {
		tel := NewTelemetry(100_000, 50_000)
		if _, err := Run(RunConfig{Instructions: 10_000, Parallelism: 2, Telemetry: tel}); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := tel.WriteTrace(io.Discard); err != nil {
				b.Fatal(err)
			}
		}
	})
}
