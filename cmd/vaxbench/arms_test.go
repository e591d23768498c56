package main

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// The arm-mode tests re-exec this test binary in one of two roles
// instead of timing real benchmarks: a fake arm (fakeArmEnv names the
// call log) that prints canned bench lines, or vaxbench's own main
// (asMainEnv set) so the flag handling is exercised end to end.
const (
	fakeArmEnv = "VAXBENCH_FAKE_ARM_LOG"
	asMainEnv  = "VAXBENCH_AS_MAIN"
)

// fakeNs is each fake pattern's ns/op before the per-arm call index is
// added, so call k of an arm reports base+k and twelve calls pool to a
// median of base+6.5.
var fakeNs = map[string]float64{"old": 1000, "new": 900, "slow": 2000}

func TestMain(m *testing.M) {
	switch {
	case os.Getenv(asMainEnv) != "":
		os.Unsetenv(asMainEnv) // so the arms main spawns run as fake arms
		main()
		os.Exit(0)
	case os.Getenv(fakeArmEnv) != "":
		fakeArm(os.Getenv(fakeArmEnv))
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// fakeArm logs its arguments and prints one bench line for the
// -test.bench pattern it was given.
func fakeArm(logPath string) {
	args := strings.Join(os.Args[1:], " ")
	pattern := strings.Fields(args)[3]
	prev, _ := os.ReadFile(logPath)
	k := 1
	for _, line := range strings.Split(string(prev), "\n") {
		if f := strings.Fields(line); len(f) > 3 && f[3] == pattern {
			k++
		}
	}
	f, err := os.OpenFile(logPath, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		os.Exit(3)
	}
	fmt.Fprintln(f, args)
	f.Close()
	fmt.Printf("BenchmarkFake/%s-8  25  %.0f ns/op  100 sim_cycles/op\nPASS\n", pattern, fakeNs[pattern]+float64(k))
}

func arm(pattern string) string { return os.Args[0] + ":" + pattern }

// fakeArms routes arm calls to fakeArm, logging to dir/calls.log, and
// returns the log path. Under -race each child would otherwise sleep a
// second at exit.
func fakeArms(t *testing.T, dir string) string {
	t.Helper()
	logPath := filepath.Join(dir, "calls.log")
	t.Setenv(fakeArmEnv, logPath)
	t.Setenv("GORACE", strings.TrimSpace(os.Getenv("GORACE")+" atexit_sleep_ms=0"))
	return logPath
}

// armCalls returns the -test.bench pattern of every logged arm call.
func armCalls(t *testing.T, logPath string) []string {
	t.Helper()
	data, err := os.ReadFile(logPath)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		t.Fatal(err)
	}
	var calls []string
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		if line == "" {
			continue
		}
		if want := "-test.run ^$ -test.bench "; !strings.HasPrefix(line, want) ||
			!strings.HasSuffix(line, " -test.benchtime 25x -test.count 1") {
			t.Fatalf("arm call %q, want %s<pattern> -test.benchtime 25x -test.count 1", line, want)
		}
		calls = append(calls, strings.Fields(line)[3])
	}
	return calls
}

// TestArmModeInterleavesAndPools: two arms run 12 rounds each, OLD
// first for six rounds then NEW first, pool to medians, pair under
// NEW's name, and record NEW as results and OLD as baseline.
func TestArmModeInterleavesAndPools(t *testing.T) {
	dir := t.TempDir()
	logPath := fakeArms(t, dir)
	ledger := filepath.Join(dir, "ledger.json")

	if code := runCompare(arm("old"), arm("new"), 5, ledger, "ab"); code != 0 {
		t.Fatalf("faster NEW arm exit = %d, want 0", code)
	}
	var want []string
	for i := 0; i < 6; i++ {
		want = append(want, "old", "new")
	}
	for i := 0; i < 6; i++ {
		want = append(want, "new", "old")
	}
	if got := armCalls(t, logPath); strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("arm call order = %v\nwant %v", got, want)
	}

	h, err := loadHistory(ledger)
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Entries) != 1 {
		t.Fatalf("ledger has %d entries, want 1", len(h.Entries))
	}
	e := h.Entries[0]
	if e.Label != "ab" || !strings.Contains(e.Method, "interleaved A/B") {
		t.Fatalf("entry label/method = %q / %q", e.Label, e.Method)
	}
	r, ok := e.Results["BenchmarkFake/new"]
	if !ok || len(e.Results) != 1 || r.NsPerOp != 906.5 || r.Runs != 12 {
		t.Fatalf("results = %+v, want BenchmarkFake/new median 906.5 over 12 runs", e.Results)
	}
	b, ok := e.Baseline["BenchmarkFake/new"]
	if !ok || len(e.Baseline) != 1 || b.NsPerOp != 1006.5 || b.Runs != 12 {
		t.Fatalf("baseline = %+v, want OLD's median 1006.5 paired under BenchmarkFake/new", e.Baseline)
	}
	if b.NsPerSimCycle != 10.065 {
		t.Fatalf("baseline ns/sim-cycle = %v, want 10.065", b.NsPerSimCycle)
	}
}

// TestArmModeRegressionAndUsage: a slower NEW arm trips the threshold
// (exit 1); a result file compared with an arm is a usage error (exit
// 2) that runs no arm.
func TestArmModeRegressionAndUsage(t *testing.T) {
	dir := t.TempDir()
	logPath := fakeArms(t, dir)

	if code := runCompare(arm("old"), arm("slow"), 5, "", ""); code != 1 {
		t.Fatalf("slower NEW arm exit = %d, want 1", code)
	}
	if n := len(armCalls(t, logPath)); n != 24 {
		t.Fatalf("arm calls = %d, want 24", n)
	}
	os.Remove(logPath)

	file := writeHistory(t, dir, "old.json", map[string]Result{"BenchmarkFake/new": {NsPerOp: 1000}})
	if code := runCompare(file, arm("new"), 5, "", ""); code != 2 {
		t.Fatalf("file vs arm exit = %d, want 2", code)
	}
	if code := runCompare(arm("old"), file, 5, "", ""); code != 2 {
		t.Fatalf("arm vs file exit = %d, want 2", code)
	}
	if n := len(armCalls(t, logPath)); n != 0 {
		t.Fatalf("mixed operands ran %d arm calls, want 0", n)
	}
}

// TestArmModeLedgerOnlyWithHistoryFlag runs vaxbench's main: an A/B
// writes no ledger — not even the default BENCH_history.json — unless
// -history is passed explicitly.
func TestArmModeLedgerOnlyWithHistoryFlag(t *testing.T) {
	dir := t.TempDir()
	fakeArms(t, dir)
	vaxbench := func(args ...string) int {
		t.Helper()
		cmd := exec.Command(os.Args[0], args...)
		cmd.Dir = dir
		cmd.Env = append(os.Environ(), asMainEnv+"=1")
		err := cmd.Run()
		var exit *exec.ExitError
		if errors.As(err, &exit) {
			return exit.ExitCode()
		}
		if err != nil {
			t.Fatal(err)
		}
		return 0
	}

	if code := vaxbench("-compare", arm("old"), arm("new")); code != 0 {
		t.Fatalf("A/B without -history exit = %d, want 0", code)
	}
	if _, err := os.Stat(filepath.Join(dir, "BENCH_history.json")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("A/B without -history wrote the default ledger (stat err %v)", err)
	}
	if code := vaxbench("-compare", "-history", "h.json", "-label", "gate", arm("old"), arm("new")); code != 0 {
		t.Fatalf("A/B with -history exit = %d, want 0", code)
	}
	h, err := loadHistory(filepath.Join(dir, "h.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Entries) != 1 || h.Entries[0].Label != "gate" {
		t.Fatalf("ledger entries = %+v, want one labelled gate", h.Entries)
	}
	if code := vaxbench("-compare", "h.json", arm("new")); code != 2 {
		t.Fatalf("file vs arm through main exit = %d, want 2", code)
	}
}
