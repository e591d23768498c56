// Variation: interval measurement — the extension the paper itself says
// its method lacks. Section 2.2 lists as a disadvantage that "the
// analysis produces only average behavior characterizations of the
// processor over the measurement interval, since no measures of the
// variation of the statistics during the measurement are collected."
//
// Snapshotting the histogram board periodically (a Unibus read sequence
// the hardware fully supports) and differencing the snapshots fills that
// gap: the telemetry recorder cuts one RTE-COM run into fixed-cycle
// intervals, and each interval's CPI makes the workload's phase
// structure visible.
//
// A closing sweep runs all five workloads concurrently through
// vax780.Sweep and compares their composite CPIs: the between-workload
// spread the paper's Table 1 shows, next to the within-workload spread
// the intervals recover.
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"strings"

	"vax780"
)

func main() {
	var (
		n        = flag.Int("n", 60_000, "instructions to run")
		interval = flag.Uint64("interval-cycles", 55_000, "cycles per snapshot interval (about 5 000 instructions at the 780's CPI)")
	)
	flag.Parse()
	if *interval == 0 {
		log.Fatal("variation: -interval-cycles must be positive")
	}

	tel := vax780.NewTelemetry(*interval, 0)
	if _, err := vax780.Run(vax780.RunConfig{
		Instructions: *n,
		Workloads:    []vax780.WorkloadID{vax780.RTECommercial},
		Telemetry:    tel,
	}); err != nil {
		log.Fatal(err)
	}
	rows := tel.IntervalRows()

	fmt.Printf("CPI variation over %d-cycle intervals (%s):\n\n",
		*interval, vax780.RTECommercial)
	fmt.Printf("%10s %8s %8s %8s  %s\n", "interval", "instrs", "CPI", "SIMPLE%", "")
	sum, sumSq, minCPI, maxCPI := 0.0, 0.0, math.Inf(1), 0.0
	for i, r := range rows {
		bar := strings.Repeat("#", max(0, int((r.CPI-8)*6)))
		fmt.Printf("%10d %8d %8.2f %8.1f  %s\n", i, r.Instructions, r.CPI, r.SimplePct, bar)
		sum, sumSq = sum+r.CPI, sumSq+r.CPI*r.CPI
		minCPI, maxCPI = min(minCPI, r.CPI), max(maxCPI, r.CPI)
	}
	// The recorder flushes the run's tail as a last row, so any run
	// of at least one instruction has a row.
	mean := sum / float64(len(rows))
	fmt.Printf("\nmean CPI %.2f, stddev %.2f, range [%.2f, %.2f]\n",
		mean, math.Sqrt(max(0, sumSq/float64(len(rows))-mean*mean)), minCPI, maxCPI)
	fmt.Println("\nThe composite average (the paper's 10.6) hides this spread;")
	fmt.Println("interval snapshots of the same passive board recover it.")

	// Between-workload variation: one sweep point per experiment, run
	// concurrently, each an ordinary single-workload measurement.
	ids := vax780.AllWorkloads()
	points := make([]vax780.SweepPoint, len(ids))
	for i, id := range ids {
		points[i] = vax780.SweepPoint{
			Label: id.String(),
			Config: vax780.RunConfig{
				Instructions: *n,
				Workloads:    []vax780.WorkloadID{id},
			},
		}
	}
	fmt.Println("\nBetween-workload CPI spread (all five experiments):")
	fmt.Printf("%-16s %8s %14s\n", "workload", "CPI", "TB miss/instr")
	for _, r := range vax780.Sweep(points, vax780.SweepOptions{}) {
		if r.Err != nil {
			log.Fatal(r.Err)
		}
		fmt.Printf("%-16s %8.3f %14.4f\n",
			r.Label, r.Results.CPI(), r.Results.TBMiss().MissesPerInstr)
	}
}
