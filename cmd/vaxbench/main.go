// Command vaxbench maintains BENCH_history.json, the repo's one bench
// ledger: it parses `go test -bench` output on stdin, reduces each
// benchmark's repetitions to medians (ns/op plus the sim_cycles/op
// metric the perf benchmarks report, from which it derives ns per
// simulated cycle), and appends one dated entry. An entry may also
// carry the measurement method, the adjudication prose, and the OLD
// arm's medians as its baseline, so each change's gate record sits in
// the same series as the headline numbers.
//
// Usage:
//
//	go test -run xxx -bench 'Faults|Telemetry|ParallelRun' -count 3 . | vaxbench -label "my change"
//	vaxbench -print
//	vaxbench -compare [-threshold 5] old.json new.json
//	vaxbench -compare [-threshold 5] [-history h.json -label l] old.test:regex new.test:regex
//
// -history selects the file (default BENCH_history.json). -print
// renders the recorded series as a table instead of appending.
// -compare diffs two sides benchmark by benchmark and exits nonzero
// when any common benchmark slowed by more than -threshold percent. A
// side is a result file (a history answers per benchmark, from the
// latest entry that has it; a single entry object also works) or an
// arm, binary:regex — a compiled test binary and its -test.bench
// pattern. With two arms vaxbench runs the interleaved A/B itself: 12
// single-process rounds per arm at 25x, OLD first in rounds 1-6 and NEW
// first in rounds 7-12, each arm pooled to medians. When each arm
// yields one benchmark, the two pair under NEW's name. An A/B appends
// its entry (NEW's medians, OLD's as baseline) only when -history is
// given explicitly. Exit codes: 0 on success, 1 when parsing, a file,
// or an arm fails or -compare found a regression, 2 on usage errors
// (e.g. no benchmark lines on stdin, a file compared with an arm).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"

	"vax780/internal/upc"
)

// benchLine matches one `go test -bench` result line; repetition
// suffixes like -8 (GOMAXPROCS) are stripped from the name.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)((?:\s+[\d.e+]+ \S+)+)$`)

// metricPair matches one "value unit" column.
var metricPair = regexp.MustCompile(`([\d.e+]+) (\S+)`)

// Result is one benchmark's reduced measurement in a history entry.
type Result struct {
	NsPerOp        float64 `json:"ns_per_op"`
	SimCyclesPerOp float64 `json:"sim_cycles_per_op,omitempty"`
	NsPerSimCycle  float64 `json:"ns_per_sim_cycle,omitempty"`
	Runs           int     `json:"runs,omitempty"`
}

// Entry is one dated benchmark session. Method and Adjudication record
// how a gate was measured and judged; Baseline holds the OLD arm's
// medians when the entry records an A/B.
type Entry struct {
	Date         string            `json:"date"`
	Label        string            `json:"label"`
	GOOS         string            `json:"goos"`
	GOARCH       string            `json:"goarch"`
	Method       string            `json:"method,omitempty"`
	Adjudication string            `json:"adjudication,omitempty"`
	Results      map[string]Result `json:"results"`
	Baseline     map[string]Result `json:"baseline,omitempty"`
}

// History is the whole BENCH_history.json document.
type History struct {
	Description string  `json:"description"`
	Entries     []Entry `json:"entries"`
}

func main() {
	historyPath := flag.String("history", "BENCH_history.json", "history file to append to / print")
	label := flag.String("label", "", "label of the appended entry (e.g. the change being measured)")
	printOnly := flag.Bool("print", false, "print the recorded series instead of appending")
	compare := flag.Bool("compare", false, "compare two sides, each a result file or a binary:regex arm (old new args); exit 1 on regression")
	threshold := flag.Float64("threshold", 5, "regression threshold for -compare, in percent ns/op growth")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "vaxbench: -compare needs exactly two operands: old new")
			os.Exit(2)
		}
		ledger := ""
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "history" {
				ledger = *historyPath
			}
		})
		os.Exit(runCompare(flag.Arg(0), flag.Arg(1), *threshold, ledger, *label))
	}

	if *printOnly {
		hist, err := loadHistory(*historyPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "vaxbench:", err)
			os.Exit(1)
		}
		printHistory(hist)
		return
	}

	results, err := parseBench(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vaxbench:", err)
		os.Exit(1)
	}
	if len(results) == 0 {
		fmt.Fprintln(os.Stderr, "vaxbench: no benchmark result lines on stdin (pipe `go test -bench` output in)")
		os.Exit(2)
	}
	if err := appendEntry(*historyPath, Entry{Label: *label, Results: results}); err != nil {
		fmt.Fprintln(os.Stderr, "vaxbench:", err)
		os.Exit(1)
	}
	fmt.Printf("vaxbench: appended %d benchmark(s) to %s\n", len(results), *historyPath)
	for _, name := range sortedKeys(results) {
		r := results[name]
		if r.NsPerSimCycle > 0 {
			fmt.Printf("  %-40s %14.0f ns/op  %6.1f ns/sim-cycle  (median of %d)\n",
				name, r.NsPerOp, r.NsPerSimCycle, r.Runs)
		} else {
			fmt.Printf("  %-40s %14.0f ns/op  (median of %d)\n", name, r.NsPerOp, r.Runs)
		}
	}
}

// loadHistory reads the history file; a missing file starts an empty
// history rather than failing, so the first append bootstraps it.
func loadHistory(path string) (*History, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) || (err == nil && len(data) == 0) {
		return &History{
			Description: "Bench ledger: one dated entry per measurement session, medians over its repetitions. Appended by cmd/vaxbench; A/B entries also carry their method, adjudication, and the OLD arm's medians as baseline.",
		}, nil
	}
	if err != nil {
		return nil, err
	}
	var h History
	if err := json.Unmarshal(data, &h); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &h, nil
}

// saveHistory replaces the file atomically: a crash mid-write leaves
// the previous ledger, never a truncated one.
func saveHistory(path string, h *History) error {
	return upc.AtomicWriteFile(path, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetEscapeHTML(false) // the prose says "<1%", not "\u003c1%"
		enc.SetIndent("", "  ")
		return enc.Encode(h)
	})
}

// parseBench reduces `go test -bench` output to per-benchmark medians.
func parseBench(f io.Reader) (map[string]Result, error) {
	nsRuns := map[string][]float64{}
	cycleRuns := map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1024*1024), 1024*1024)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		name := m[1]
		for _, mp := range metricPair.FindAllStringSubmatch(m[3], -1) {
			v, err := strconv.ParseFloat(mp[1], 64)
			if err != nil {
				continue
			}
			switch mp[2] {
			case "ns/op":
				nsRuns[name] = append(nsRuns[name], v)
			case "sim_cycles/op":
				cycleRuns[name] = append(cycleRuns[name], v)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	out := make(map[string]Result, len(nsRuns))
	for name, runs := range nsRuns {
		r := Result{NsPerOp: median(runs), Runs: len(runs)}
		if cycles := cycleRuns[name]; len(cycles) > 0 {
			r.SimCyclesPerOp = median(cycles)
			if r.SimCyclesPerOp > 0 {
				r.NsPerSimCycle = r.NsPerOp / r.SimCyclesPerOp
			}
		}
		out[name] = r
	}
	return out, nil
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func printHistory(h *History) {
	if len(h.Entries) == 0 {
		fmt.Println("vaxbench: history is empty")
		return
	}
	for _, e := range h.Entries {
		fmt.Printf("%s  %s  (%s/%s)\n", e.Date, e.Label, e.GOOS, e.GOARCH)
		for _, name := range sortedKeys(e.Results) {
			r := e.Results[name]
			if r.NsPerSimCycle > 0 {
				fmt.Printf("  %-40s %14.0f ns/op  %6.1f ns/sim-cycle\n", name, r.NsPerOp, r.NsPerSimCycle)
			} else {
				fmt.Printf("  %-40s %14.0f ns/op\n", name, r.NsPerOp)
			}
		}
		fmt.Println()
	}
}

func sortedKeys(m map[string]Result) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
