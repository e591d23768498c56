// Command vaxprof is the micro-architectural host-time profiler: it
// runs the paper's composite measurement and reports where the
// *simulator's own* wall-clock time goes, attributed to the
// control-store flows of the simulated machine — the exact complement
// of the UPC board, which reports where the *simulated* cycles go.
//
// The board engine backs the report. It rides inside the run
// (RunConfig.Profiler): each workload's board histogram is classified
// onto flows as it merges, and its measured wall time is spread over
// those flows by their share of cycles.
//
// Usage:
//
//	vaxprof [-n 50000] [-top 15]                   hot-flow table
//	vaxprof -o prof.json                           also save the profile
//	vaxprof -diff old.json new.json                compare two saved profiles
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
	"runtime"

	"vax780"
	"vax780/internal/obs"
	"vax780/internal/prof"
)

func main() {
	n := flag.Int("n", 50_000, "instructions per workload")
	top := flag.Int("top", 15, "flows to print")
	diff := flag.Bool("diff", false, "diff two saved profiles (old.json new.json args) and exit")
	out := flag.String("o", "", "write the profile JSON here")
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

	if err := run(*n, *top, *out, *chrome, *spans, *ledger); err != nil {
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

// run is the measurement path: one discarded warm-up run, then the
// composite with the profiler attached; print its hot-flow table and
// write whatever exports were requested.
func run(n, top int, out, chrome, spansPath, ledgerPath string) error {
	// The first simulation in a process pays allocator growth and cold
	// caches that no later run sees; keep it out of the measured run.
	warm := vax780.RunConfig{
		Instructions: n,
		Workloads:    []vax780.WorkloadID{vax780.TimesharingA},
		Parallelism:  1,
	}
	if _, err := vax780.Run(warm); err != nil {
		return fmt.Errorf("warm-up run: %w", err)
	}

	profiler := &vax780.Profiler{MaxFlows: top}
	cfg := vax780.RunConfig{Instructions: n, Parallelism: 1, Profiler: profiler}
	var led *os.File
	if ledgerPath != "" {
		f, err := os.Create(ledgerPath)
		if err != nil {
			return err
		}
		led = f
		cfg.Ledger = f
	}
	// Collect before the measured window opens, so no earlier garbage
	// is charged to its flows.
	runtime.GC()
	_, err := vax780.Run(cfg)
	if led != nil {
		if cerr := led.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return err
	}
	fmt.Print(profiler.Profile().Table(top))
	return writeExports(profiler, out, chrome, spansPath)
}

// writeExports emits the requested files after a measurement run.
func writeExports(profiler *vax780.Profiler, out, chrome, spansPath string) error {
	if out != "" {
		if err := writeFile(out, profiler.Profile().WriteJSON); err != nil {
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
// root, completing the sweep → run → workload → flow hierarchy.
func sweepSpan(profiler *vax780.Profiler) *vax780.Span {
	runSpan := profiler.SpanTree()
	root := (&vax780.Span{Kind: "sweep", Name: "vaxprof"}).SetWall(runSpan.StartNs, runSpan.DurNs)
	root.Adopt(runSpan)
	return root
}
