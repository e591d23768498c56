package main

// The regression diff behind `vaxbench -compare OLD NEW`: benchmark-by-
// benchmark ns/op deltas between two sides, with a configurable trip
// threshold. A side is either a recorded result file or an arm — a
// compiled test binary and its -test.bench pattern — in which case
// vaxbench runs the interleaved A/B itself. Every gate in the Makefile
// and CI adjudicates here, so the method and the pass/fail rule live in
// one reviewed place instead of inline shell.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// The interleaved A/B method (nanoBench-style: isolate the unit,
// alternate, pool). Each round runs one single-process sample of each
// arm; the first half of the rounds runs OLD first, the second half NEW
// first, so a host drifting in one direction loads both arms equally.
// Each arm's samples pool to medians through parseBench.
const (
	abRounds    = 12
	abBenchtime = "25x"
)

// loadResults reads one -compare result file. A history answers per
// benchmark: each benchmark's result comes from the latest entry that
// has it, so one ledger can serve gates over disjoint benchmarks. A
// single entry object with a "results" map is also accepted.
func loadResults(path string) (map[string]Result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var h History
	if err := json.Unmarshal(data, &h); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(h.Entries) > 0 {
		out := map[string]Result{}
		for _, e := range h.Entries {
			for name, r := range e.Results {
				out[name] = r
			}
		}
		return out, nil
	}
	var e Entry
	if err := json.Unmarshal(data, &e); err == nil && len(e.Results) > 0 {
		return e.Results, nil
	}
	return nil, fmt.Errorf("%s: no benchmark entries (append with vaxbench first)", path)
}

// delta is one benchmark's movement between the two sides.
type delta struct {
	name       string
	oldNs      float64
	newNs      float64
	percent    float64 // ns/op growth, positive = slower
	regression bool
}

// compareResults diffs every benchmark present in both maps. threshold
// is the allowed ns/op growth in percent; anything above it is a
// regression.
func compareResults(old, new map[string]Result, threshold float64) []delta {
	var out []delta
	for name, o := range old {
		n, ok := new[name]
		if !ok || o.NsPerOp <= 0 {
			continue
		}
		pct := 100 * (n.NsPerOp - o.NsPerOp) / o.NsPerOp
		out = append(out, delta{
			name:       name,
			oldNs:      o.NsPerOp,
			newNs:      n.NsPerOp,
			percent:    pct,
			regression: pct > threshold,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].percent != out[j].percent {
			return out[i].percent > out[j].percent
		}
		return out[i].name < out[j].name
	})
	return out
}

// runArms runs the interleaved A/B over two binary:regex arms and
// returns each arm's pooled medians.
func runArms(oldOp, newOp string) (old, new map[string]Result, err error) {
	ops := [2]string{oldOp, newOp}
	var outs [2]bytes.Buffer
	fmt.Fprintf(os.Stderr, "vaxbench: interleaved A/B, %d rounds a side at %s\n", abRounds, abBenchtime)
	for round := 0; round < abRounds; round++ {
		for i := range ops {
			arm := i
			if round >= abRounds/2 {
				arm = 1 - i
			}
			if err := runArm(ops[arm], &outs[arm]); err != nil {
				return nil, nil, err
			}
		}
	}
	var res [2]map[string]Result
	for i, op := range ops {
		if res[i], err = parseBench(&outs[i]); err == nil && len(res[i]) == 0 {
			err = fmt.Errorf("arm %s: no benchmark result lines", op)
		}
		if err != nil {
			return nil, nil, err
		}
	}
	old, new = res[0], res[1]
	if len(old) == 1 && len(new) == 1 { // one benchmark a side: pair them under NEW's name
		for name := range new {
			for _, r := range old {
				old = map[string]Result{name: r}
			}
		}
	}
	return old, new, nil
}

// runArm appends one single-process sample of the arm to out.
func runArm(op string, out io.Writer) error {
	bin, pattern, _ := strings.Cut(op, ":")
	if !strings.ContainsRune(bin, filepath.Separator) {
		bin = "." + string(filepath.Separator) + bin // never a $PATH lookup
	}
	cmd := exec.Command(bin, "-test.run", "^$", "-test.bench", pattern,
		"-test.benchtime", abBenchtime, "-test.count", "1")
	cmd.Stdout = out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("arm %s: %w", op, err)
	}
	return nil
}

// runCompare is the -compare entry point; returns the process exit
// code. With two arms it runs the A/B first, and appends the outcome to
// ledger (labelled label) when ledger is non-empty.
func runCompare(oldOp, newOp string, threshold float64, ledger, label string) int {
	_, _, oldArm := strings.Cut(oldOp, ":") // binary:regex is an arm, anything else a file
	_, _, newArm := strings.Cut(newOp, ":")
	var old, new map[string]Result
	var err error
	switch {
	case oldArm != newArm:
		fmt.Fprintln(os.Stderr, "vaxbench: -compare needs two result files or two binary:regex arms, not one of each")
		return 2
	case oldArm:
		old, new, err = runArms(oldOp, newOp)
	default:
		if old, err = loadResults(oldOp); err == nil {
			new, err = loadResults(newOp)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "vaxbench:", err)
		return 1
	}
	deltas := compareResults(old, new, threshold)
	if len(deltas) == 0 {
		fmt.Fprintln(os.Stderr, "vaxbench: the two sides share no benchmarks")
		return 2
	}
	fmt.Printf("benchmark comparison (%s -> %s, threshold %+.1f%%)\n", oldOp, newOp, threshold)
	fmt.Printf("%-44s %14s %14s %9s\n", "benchmark", "old ns/op", "new ns/op", "delta")
	regressed := 0
	for _, d := range deltas {
		mark := ""
		if d.regression {
			mark = "  REGRESSION"
			regressed++
		}
		fmt.Printf("%-44s %14.0f %14.0f %+8.2f%%%s\n", d.name, d.oldNs, d.newNs, d.percent, mark)
	}
	code := 0
	if regressed > 0 {
		fmt.Printf("%d benchmark(s) regressed beyond %+.1f%%\n", regressed, threshold)
		code = 1
	} else {
		fmt.Println("no regression beyond threshold")
	}
	if oldArm && ledger != "" {
		if err := appendEntry(ledger, Entry{
			Label: label,
			Method: fmt.Sprintf("vaxbench -compare -threshold %g %s %s: interleaved A/B, %d single-process "+
				"rounds per arm at %s, order swapped halfway, pooled medians (baseline: OLD's)",
				threshold, oldOp, newOp, abRounds, abBenchtime),
			Results:  new,
			Baseline: old,
		}); err != nil {
			fmt.Fprintln(os.Stderr, "vaxbench:", err)
			return 1
		}
		fmt.Printf("vaxbench: appended the A/B entry to %s\n", ledger)
	}
	return code
}

// appendEntry dates e, stamps the host platform, and appends it to the
// history at path.
func appendEntry(path string, e Entry) error {
	hist, err := loadHistory(path)
	if err != nil {
		return err
	}
	e.Date = time.Now().UTC().Format("2006-01-02")
	e.GOOS, e.GOARCH = runtime.GOOS, runtime.GOARCH
	hist.Entries = append(hist.Entries, e)
	return saveHistory(path, hist)
}
