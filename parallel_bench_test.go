package vax780

// The parallel-run scaling benchmark behind the "parallel composite"
// entry of BENCH_history.json and `make bench-parallel`: one composite
// of eight workload machines, run at worker counts 1/2/4/8. On a multi-core host the wall-clock time
// should drop near-linearly until workers exceed cores; on any host the
// merged results are bit-exact across the whole curve (the determinism
// suite in parallel_test.go holds the proof).

import (
	"fmt"
	"testing"
)

// benchParallelWorkloads is the eight-machine composite: the five
// experiments plus repeats, so an 8-worker pool has one job per worker.
func benchParallelWorkloads() []WorkloadID {
	ids := AllWorkloads()
	ids = append(ids, TimesharingA, TimesharingB, RTEScientific)
	return ids
}

func BenchmarkParallelRun(b *testing.B) {
	for _, j := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("j=%d", j), func(b *testing.B) {
			var cycles uint64
			for i := 0; i < b.N; i++ {
				res, err := Run(RunConfig{
					Instructions: 10_000,
					Workloads:    benchParallelWorkloads(),
					Parallelism:  j,
				})
				if err != nil {
					b.Fatal(err)
				}
				cycles = 0
				for _, w := range res.PerWorkload {
					cycles += w.Cycles
				}
			}
			b.ReportMetric(float64(cycles), "sim_cycles/op")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(cycles), "ns/sim_cycle")
		})
	}
}

// BenchmarkSweepThroughput measures the sweep engine on a small
// design-point fan: shared trace generation is amortized across points,
// so per-point cost should approach a bare Run of the same length.
func BenchmarkSweepThroughput(b *testing.B) {
	points := []SweepPoint{}
	for _, ways := range []int{1, 2, 4} {
		points = append(points, SweepPoint{
			Label: fmt.Sprintf("%d-way", ways),
			Config: RunConfig{
				Instructions: 10_000,
				Workloads:    []WorkloadID{TimesharingA},
				CacheWays:    ways,
			},
		})
	}
	for i := 0; i < b.N; i++ {
		for _, r := range Sweep(points, SweepOptions{}) {
			if r.Err != nil {
				b.Fatal(r.Err)
			}
		}
	}
	b.ReportMetric(float64(len(points)), "points/op")
}
