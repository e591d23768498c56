// Command vaxprof is the micro-architectural host-time profiler: it
// runs the paper's composite measurement and reports where the
// *simulator's own* wall-clock time goes, attributed to the
// control-store flows of the simulated machine — the exact complement
// of the UPC board, which reports where the *simulated* cycles go.
//
// Two engines back the report. The board engine rides inside the run
// (RunConfig.Profiler): each workload's board histogram is classified
// onto flows as it merges and its measured wall time distributed by
// share. The exact engine prices the run's bit-exact composite
// histogram with a per-class calibration — the host ns/cycle of each
// Table 8 cycle class, solved from interleaved per-workload timing
// probes (each workload weights compute, memory, and stalls
// differently, so the five runs give five independent equations).
//
// Usage:
//
//	vaxprof [-n 50000] [-top 15]                   hot-flow tables, both engines
//	vaxprof -diff old.json new.json                compare two saved profiles
//	vaxprof -o prof.json -calib-out cal.json       save the exact profile / calibration
//	vaxprof -calib cal.json                        reuse a saved calibration (skip probing)
//	vaxprof -chrome trace.json -spans spans.jsonl  span-tree exports (sweep→run→workload→flow; obs rows)
//	vaxprof -ledger run.jsonl                      also write the run ledger JSONL
//
// Exit codes: 0 on success, 1 on any failure, 2 on usage errors.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"vax780"
	"vax780/internal/obs"
	"vax780/internal/prof"
)

func main() {
	n := flag.Int("n", 50_000, "instructions per workload")
	top := flag.Int("top", 15, "flows to print")
	reps := flag.Int("reps", 3, "interleaved timing repetitions per calibration probe")
	diff := flag.Bool("diff", false, "diff two saved profiles (old.json new.json args) and exit")
	out := flag.String("o", "", "write the exact-engine profile JSON here")
	calibIn := flag.String("calib", "", "load a saved calibration instead of probing")
	calibOut := flag.String("calib-out", "", "write the solved calibration JSON here")
	chrome := flag.String("chrome", "", "write the span tree as Chrome trace-event JSON here")
	spans := flag.String("spans", "", "write the span tree as JSONL rows here")
	ledger := flag.String("ledger", "", "write the run ledger JSONL here")
	flag.Parse()
	if *n < 1 {
		fmt.Fprintf(os.Stderr, "vaxprof: -n must be at least 1, got %d\n", *n)
		os.Exit(2)
	}

	if *diff {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "vaxprof: -diff needs exactly two files: old.json new.json")
			os.Exit(2)
		}
		os.Exit(runDiff(flag.Arg(0), flag.Arg(1), *top))
	}

	if err := run(*n, *top, *reps,
		*out, *calibIn, *calibOut, *chrome, *spans, *ledger); err != nil {
		fmt.Fprintln(os.Stderr, "vaxprof:", err)
		os.Exit(1)
	}
}

// runDiff loads and diffs two saved profiles; returns the exit code.
func runDiff(oldPath, newPath string, top int) int {
	load := func(path string) (*vax780.Profile, error) {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return prof.ReadProfile(f)
	}
	oldP, err := load(oldPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vaxprof:", err)
		return 1
	}
	newP, err := load(newPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vaxprof:", err)
		return 1
	}
	deltas := prof.DiffProfiles(oldP, newP)
	fmt.Print(prof.RenderDiff(deltas, top, 0.001))
	return 0
}

// run is the measurement path: calibrate (or load), run the composite
// with the profiler attached, print both engines' views, and
// write whatever exports were requested.
func run(n, top, reps int,
	out, calibIn, calibOut, chrome, spansPath, ledgerPath string) error {

	// Calibration: load a saved one (skips probing), or solve one from
	// the interleaved measurement session.
	var preCal *vax780.Calibration
	if calibIn != "" {
		f, err := os.Open(calibIn)
		if err != nil {
			return err
		}
		c, err := prof.ReadCalibration(f)
		f.Close()
		if err != nil {
			return err
		}
		preCal = c
		fmt.Printf("calibration: %s (%d probes, host %s)\n\n", calibIn, c.Probes, c.Host)
	}

	m, err := measure(n, reps, top, preCal, ledgerPath)
	if err != nil {
		return err
	}
	cal, profiler, res, wallNs := m.cal, m.profiler, m.res, m.wallNs

	if calibOut != "" {
		if err := writeFile(calibOut, cal.WriteJSON); err != nil {
			return err
		}
	}

	exact := res.Profile(cal)
	exact.WallNs = wallNs
	fmt.Print(exact.Table(top))
	fmt.Println()
	if board := profiler.Profile(); board != nil {
		fmt.Print(board.Table(top))
	}
	if exact.WallNs > 0 {
		err := 100 * (exact.TotalNs - exact.WallNs) / exact.WallNs
		fmt.Printf("\nreconciliation: exact total %.3f ms vs measured %.3f ms (%+.1f%%)\n",
			exact.TotalNs/1e6, exact.WallNs/1e6, err)
	}
	return writeExports(profiler, res, cal, wallNs, out, chrome, spansPath)
}

// writeExports emits the requested files after a measurement run.
func writeExports(profiler *vax780.Profiler, res *vax780.Results,
	cal *vax780.Calibration, wallNs float64, out, chrome, spansPath string) error {

	if out != "" {
		exact := res.Profile(cal)
		exact.WallNs = wallNs
		if err := writeFile(out, exact.WriteJSON); err != nil {
			return err
		}
	}
	if chrome == "" && spansPath == "" {
		return nil
	}
	root := sweepSpan(profiler)
	if chrome != "" {
		if err := writeFile(chrome, func(w io.Writer) error {
			return obs.WriteChromeTrace(w, root.Name, root)
		}); err != nil {
			return err
		}
	}
	if spansPath != "" {
		return writeFile(spansPath, func(w io.Writer) error {
			return obs.WriteRows(w, root.Name, root)
		})
	}
	return nil
}

// writeFile creates path and fills it with write, reporting the first
// of the write and close errors.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// sweepSpan grafts the measured run's span tree under a sweep-level
// root, completing the sweep → run → workload → flow hierarchy (the
// calibration probes were the sweep's other runs; only the profiled
// composite carries measured spans).
func sweepSpan(profiler *vax780.Profiler) *vax780.Span {
	runSpan := profiler.SpanTree()
	root := (&vax780.Span{Kind: "sweep", Name: "vaxprof"}).SetWall(runSpan.StartNs, runSpan.DurNs)
	root.Adopt(runSpan)
	return root
}
