// Command vaxmon runs one workload (or the full composite) under the UPC
// histogram monitor and prints every table of the paper with the
// published values alongside — the reproduction's main measurement tool.
//
// Usage:
//
//	vaxmon [-workload NAME] [-n INSTRUCTIONS] [-strict] [-hot N] [-j N]
//	       [-save FILE] [-load FILE] [-compare] [-quiet]
//	       [-faults RATE] [-fault-seed SEED]
//	       [-checkpoint FILE] [-resume]
//	       [-ledger FILE] [-progress]
//	       [-serve ADDR] [-interval-cycles N] [-trace FILE]
//	       [-intervals-csv FILE] [-intervals-json FILE]
//
// With no -workload, all five experiments run and their histograms are
// summed into the composite, as in the paper. -save dumps the composite
// histogram (the board readout); -load re-analyzes a saved dump without
// re-simulating; -compare prints the per-workload comparison matrix.
//
// -faults injects measurement and machine faults at the given
// per-event rate, deterministically from -fault-seed; the report then
// carries bucket-coverage confidence annotations. -checkpoint makes the
// run crash-safe: the composite state is snapshotted atomically after
// every completed workload, and -resume picks a killed run up from the
// snapshot, bit-identically.
//
// -j bounds how many workload machines run concurrently (default
// GOMAXPROCS); the composite is bit-exact at any -j, so the flag only
// changes wall-clock time. The /board command endpoints act on the
// currently-merging timeline, so live board control with -serve is most
// useful at -j 1.
//
// -serve starts the live monitor before the run: Prometheus-text
// /metrics, expvar /debug/vars, net/http/pprof /debug/pprof/, the
// histogram board's Unibus register mirror at /board/{start,stop,clear,
// csr,read}, the run-ledger event stream as SSE at /events, and the
// fleet-progress snapshot at /progress. -trace writes a Chrome
// trace-event JSON of the run (chrome://tracing, Perfetto);
// -intervals-csv / -intervals-json export the per-interval
// CPI-decomposition time series, one row every -interval-cycles
// cycles: CPI, SIMPLE% and the Table 8 columns — the variation over
// the measurement that the paper's averages-only method (§2.2) lacks.
//
// -ledger FILE writes the run ledger — one JSONL event per run action
// (see vaxdiag -ledger for a pretty-printer) — to FILE ("-" for
// stderr). -progress prints a live fleet-progress line to stderr while
// the run executes; vaxtop renders the same feed against -serve.
// -quiet suppresses the paper tables, leaving the per-workload summary
// (and any -hot/-compare extras); use it when the ledger or exports
// are the product.
//
// Exit codes: 0 on success, 1 when the run or analysis fails (a
// machine fault prints its micro-PC flight-recorder tail), 2 on a
// usage error.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"

	"vax780"
)

func main() {
	var (
		name    = flag.String("workload", "", "single workload: TIMESHARING-A, TIMESHARING-B, RTE-EDU, RTE-SCI, RTE-COM (default: all five)")
		n       = flag.Int("n", 100_000, "instructions per experiment")
		strict  = flag.Bool("strict", false, "verify every IB decode against the trace")
		hot     = flag.Int("hot", 0, "also print the N hottest histogram locations")
		save    = flag.String("save", "", "save the composite histogram dump to FILE")
		load    = flag.String("load", "", "analyze a saved histogram dump instead of simulating")
		compare = flag.Bool("compare", false, "print the per-workload comparison")
		jobs    = flag.Int("j", 0, "workload machines to run concurrently (0 = GOMAXPROCS; results are bit-exact at any -j)")

		ledgerOut = flag.String("ledger", "", "write the run ledger (JSONL, one event per run action) to FILE (\"-\" = stderr)")
		progress  = flag.Bool("progress", false, "print a live fleet-progress line to stderr during the run")
		quiet     = flag.Bool("quiet", false, "suppress the paper tables; print only the per-workload summary")

		faultRate  = flag.Float64("faults", 0, "inject faults at this per-event rate in every class (0 = off)")
		faultSeed  = flag.Uint64("fault-seed", 1, "seed of the deterministic fault plan")
		checkpoint = flag.String("checkpoint", "", "snapshot the run state to FILE after each completed workload")
		resume     = flag.Bool("resume", false, "resume a killed run from the -checkpoint snapshot")

		serve    = flag.String("serve", "", "serve the live monitor (/metrics, /debug/pprof/, /board/*) on ADDR, e.g. :8780")
		interval = flag.Uint64("interval-cycles", 0, "record the interval time series every N cycles (default 100000 when an interval export or -serve is active)")
		traceOut = flag.String("trace", "", "write a Chrome trace-event JSON of the run to FILE")
		traceMax = flag.Int("trace-max", 2_000_000, "cap on retained trace events (-1 = unlimited)")
		csvOut   = flag.String("intervals-csv", "", "write the interval time series as CSV to FILE")
		jsonOut  = flag.String("intervals-json", "", "write the interval time series as JSON to FILE")
	)
	flag.Parse()

	if *n < 1 {
		fmt.Fprintf(os.Stderr, "vaxmon: -n must be at least 1, got %d\n", *n)
		os.Exit(2)
	}
	parallelism, err := jobsParallelism(*jobs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vaxmon:", err)
		os.Exit(2)
	}
	if *traceOut != "" && *traceMax == 0 {
		// Checked before the run and before the file is created: a zero
		// cap disables the tracer, so the export could only fail.
		fmt.Fprintln(os.Stderr, "vaxmon: -trace-max 0 disables tracing; give -trace a positive cap or -1 (unlimited)")
		os.Exit(2)
	}

	tel := buildTelemetry(*serve, *interval, *traceOut, *traceMax, *csvOut, *jsonOut)
	if *load != "" && (tel != nil || *ledgerOut != "" || *progress) {
		fmt.Fprintln(os.Stderr, "vaxmon: telemetry, -ledger, and -progress need a live run, not -load")
		os.Exit(2)
	}
	if *serve != "" {
		go func() {
			fmt.Fprintf(os.Stderr, "vaxmon: live monitor on http://%s/metrics\n", *serve)
			if err := http.ListenAndServe(*serve, tel.Handler()); err != nil {
				fmt.Fprintln(os.Stderr, "vaxmon: monitor:", err)
			}
		}()
	}

	var res *vax780.Results
	if *load != "" {
		f, err := os.Open(*load)
		if err != nil {
			fmt.Fprintln(os.Stderr, "vaxmon:", err)
			os.Exit(1)
		}
		defer f.Close()
		res, err = vax780.LoadHistogram(f)
		if err != nil {
			fmt.Fprintln(os.Stderr, "vaxmon:", err)
			os.Exit(1)
		}
		fmt.Printf("Analyzing saved histogram %s\n\n", *load)
	} else {
		cfg := vax780.RunConfig{
			Instructions: *n, Strict: *strict, Telemetry: tel,
			Checkpoint: *checkpoint, Resume: *resume,
			Parallelism: parallelism,
		}
		if *ledgerOut != "" {
			w, closeLedger, err := openLedger(*ledgerOut)
			if err != nil {
				fmt.Fprintln(os.Stderr, "vaxmon:", err)
				os.Exit(1)
			}
			defer closeLedger()
			cfg.Ledger = w
		}
		if *progress {
			cfg.Progress = printProgress
		}
		if *faultRate > 0 {
			cfg.Faults = vax780.UniformFaults(*faultSeed, *faultRate)
		}
		if *resume && *checkpoint == "" {
			fmt.Fprintln(os.Stderr, "vaxmon: -resume needs -checkpoint FILE")
			os.Exit(2)
		}
		if *name != "" {
			id, err := vax780.WorkloadByName(*name)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
			cfg.Workloads = []vax780.WorkloadID{id}
		}
		var err error
		res, err = vax780.Run(cfg)
		if err != nil {
			var mf *vax780.MachineFault
			if errors.As(err, &mf) {
				fmt.Fprintf(os.Stderr, "vaxmon: %v\n  at uPC %05o, cycle %d, site %s (%s)\n",
					err, mf.UPC, mf.Cycle, mf.Site, mf.Cause)
				printFlightTail(os.Stderr, mf, 8)
				if *checkpoint != "" {
					fmt.Fprintf(os.Stderr, "  completed workloads are checkpointed in %s; rerun with -resume\n", *checkpoint)
				}
			} else {
				fmt.Fprintln(os.Stderr, "vaxmon:", err)
			}
			os.Exit(1)
		}
	}

	fmt.Println("VAX-11/780 UPC histogram measurement")
	fmt.Println()
	for _, w := range res.PerWorkload {
		fmt.Printf("  %-14s %9d instructions  %10d cycles  CPI %.3f\n",
			w.Workload, w.Instructions, w.Cycles, w.CPI)
	}
	if res.Resumed > 0 {
		fmt.Printf("  (%d workload(s) restored from checkpoint)\n", res.Resumed)
	}
	if res.FaultInjections != "" {
		fmt.Printf("  faults injected: %s\n", res.FaultInjections)
		if res.Retries > 0 {
			fmt.Printf("  transient faults retried: %d\n", res.Retries)
		}
	}
	if !*quiet {
		fmt.Println()
		fmt.Println(res.Report())
	}

	if *compare {
		fmt.Println(res.WorkloadComparison())
	}
	if *hot > 0 {
		printHotBuckets(res, *hot)
	}
	if *save != "" {
		if err := res.SaveHistogramFile(*save); err != nil {
			fmt.Fprintln(os.Stderr, "vaxmon:", err)
			os.Exit(1)
		}
		fmt.Println("histogram dump saved to", *save)
	}

	if tel != nil {
		exportTelemetry(tel, *traceOut, *csvOut, *jsonOut)
		if *serve != "" {
			fmt.Fprintf(os.Stderr, "vaxmon: run complete; monitor still serving on %s (interrupt to exit)\n", *serve)
			select {}
		}
	}
}

// jobsParallelism validates the -j flag and resolves it to a
// RunConfig.Parallelism value: 0 keeps the library default (GOMAXPROCS),
// positive values bound the worker pool, anything else is an error.
func jobsParallelism(j int) (int, error) {
	if j < 0 {
		return 0, fmt.Errorf("-j must be 0 (auto) or a positive worker count, got %d", j)
	}
	return j, nil
}

// buildTelemetry assembles the telemetry layer the requested outputs
// need; it returns nil when no telemetry flag is active so the run
// takes the uninstrumented path.
func buildTelemetry(serve string, interval uint64, traceOut string, traceMax int, csvOut, jsonOut string) *vax780.Telemetry {
	if serve == "" && traceOut == "" && csvOut == "" && jsonOut == "" && interval == 0 {
		return nil
	}
	if interval == 0 {
		interval = 100_000
	}
	max := 0
	if traceOut != "" {
		max = traceMax
	}
	return vax780.NewTelemetry(interval, max)
}

func exportTelemetry(tel *vax780.Telemetry, traceOut, csvOut, jsonOut string) {
	write := func(path, what string, f func(io.Writer) error) {
		if path == "" {
			return
		}
		out, err := os.Create(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "vaxmon:", err)
			os.Exit(1)
		}
		if err := f(out); err != nil {
			fmt.Fprintln(os.Stderr, "vaxmon:", err)
			os.Exit(1)
		}
		if err := out.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "vaxmon:", err)
			os.Exit(1)
		}
		fmt.Printf("%s written to %s\n", what, path)
	}
	write(traceOut, "Chrome trace (chrome://tracing, Perfetto)", tel.WriteTrace)
	write(csvOut, "interval time series (CSV)", tel.WriteIntervalsCSV)
	write(jsonOut, "interval time series (JSON)", tel.WriteIntervalsJSON)
}

// openLedger resolves the -ledger destination: "-" streams to stderr
// (so the event stream interleaves with the progress line, not the
// report), anything else creates the file.
func openLedger(path string) (io.Writer, func(), error) {
	if path == "-" {
		return os.Stderr, func() {}, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	return f, func() { f.Close() }, nil
}

// printProgress renders one fleet snapshot as a single overwritten
// stderr line (plain carriage-return animation; the final snapshot
// ends the line).
func printProgress(p vax780.Progress) {
	fmt.Fprintf(os.Stderr, "\r\x1b[K%s", progressLine(p))
	if p.Final {
		fmt.Fprintln(os.Stderr)
	}
}

// progressLine renders one snapshot's text (sans terminal control).
func progressLine(p vax780.Progress) string {
	busy := ""
	for _, w := range p.Workers {
		if w.Busy {
			if busy != "" {
				busy += ","
			}
			busy += w.Label
		}
	}
	if busy == "" {
		busy = "-"
	}
	return fmt.Sprintf("vaxmon: %d/%d workloads  %s  %.0f instr/s  eta %.0fs  faults %d retries %d",
		p.DoneUnits, p.TotalUnits, busy, p.InstrRate, p.ETASeconds, p.Faults, p.Retries)
}

// printFlightTail prints the last n annotated flight-recorder entries
// of a machine fault — the post-mortem the recorder exists for.
func printFlightTail(w io.Writer, mf *vax780.MachineFault, n int) {
	if len(mf.Flight) == 0 {
		return
	}
	tail := mf.Flight
	if len(tail) > n {
		tail = tail[len(tail)-n:]
	}
	fmt.Fprintf(w, "  flight recorder (last %d of %d cycles):\n", len(tail), len(mf.Flight))
	for _, e := range tail {
		stall := ""
		if e.Stalled {
			stall = "  STALLED"
		}
		fmt.Fprintf(w, "    cycle %9d  uPC %05o  %-12s %s%s\n",
			e.Cycle, e.UPC, e.Class, e.Region, stall)
	}
}

func printHotBuckets(res *vax780.Results, n int) {
	fmt.Printf("Hottest %d control-store locations:\n", n)
	for _, h := range res.HotSpots(n) {
		fmt.Printf("  %05o  %-24s %-10s %12d cycles (%d stalled)\n",
			h.Addr, h.Label, h.Region, h.Cycles, h.Stalled)
	}
}
