package main

import (
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"vax780"
	"vax780/internal/obs"
	"vax780/internal/prof"
)

// TestMain runs the command itself when VAXPROF_RUN_MAIN is set, so a
// test can drive the real flag handling and exit codes by re-executing
// its own binary.
func TestMain(m *testing.M) {
	if os.Getenv("VAXPROF_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestBadCountsRejected: an instruction count below 1 would be replaced
// by a default the output never names. It must fail at flag validation
// with exit 2, before simulating and without creating the -o file.
func TestBadCountsRejected(t *testing.T) {
	for _, args := range [][]string{{"-n", "-5"}, {"-n", "0"}} {
		out := filepath.Join(t.TempDir(), "profile.json")
		cmd := exec.Command(os.Args[0], append(args, "-o", out)...)
		cmd.Env = append(os.Environ(), "VAXPROF_RUN_MAIN=1")
		stdout, err := cmd.Output()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Fatalf("vaxprof %v: err %v, want exit status 2", args, err)
		}
		if !strings.Contains(string(exit.Stderr), args[0]) {
			t.Errorf("vaxprof %v: stderr %q does not name %s", args, exit.Stderr, args[0])
		}
		if len(stdout) != 0 {
			t.Errorf("vaxprof %v printed %q; the run must not start", args, stdout)
		}
		if _, err := os.Stat(out); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("vaxprof %v: -o file stat err %v, want it never created", args, err)
		}
	}
}

// vaxprof re-executes the test binary as the command with args and
// returns its exit status (-1 when it could not be run).
func vaxprof(t *testing.T, args ...string) int {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "VAXPROF_RUN_MAIN=1")
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return 0
	case errors.As(err, &exit):
		return exit.ExitCode()
	}
	t.Fatalf("vaxprof %v: %v", args, err)
	return -1
}

// TestSavedProfileIsBoard: -o saves the board engine's profile of the
// measured composite — priced by its wall time, with every cycle either
// in a flow or unattributed — and -diff reads it back. The calibration
// flags are gone, so -calib is a usage error.
func TestSavedProfileIsBoard(t *testing.T) {
	out := filepath.Join(t.TempDir(), "profile.json")
	if code := vaxprof(t, "-n", "1500", "-top", "3", "-o", out); code != 0 {
		t.Fatalf("vaxprof -o: exit %d", code)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	p, err := prof.ReadProfile(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	if p.Engine != "board" || p.WallNs <= 0 {
		t.Fatalf("saved profile: engine %q, wall %v ns; want board with a measured wall", p.Engine, p.WallNs)
	}
	var cycles uint64
	for _, fc := range p.Flows {
		cycles += fc.Cycles
	}
	if cycles+p.Unattributed != p.TotalCycles {
		t.Fatalf("flows %d + unattributed %d != total %d", cycles, p.Unattributed, p.TotalCycles)
	}
	if code := vaxprof(t, "-diff", out, out); code != 0 {
		t.Fatalf("vaxprof -diff of a profile against itself: exit %d", code)
	}
	if code := vaxprof(t, "-calib", "x"); code != 2 {
		t.Fatalf("vaxprof -calib x: exit %d, want 2", code)
	}
}

// TestWriteExports: a profiled run's exports are obs span rows that
// parse back as sweep → run → workload → flow, and valid Chrome JSON.
func TestWriteExports(t *testing.T) {
	p := &vax780.Profiler{}
	ids := []vax780.WorkloadID{vax780.TimesharingA, vax780.RTEEducational}
	if _, err := vax780.Run(vax780.RunConfig{Instructions: 1500, Workloads: ids, Profiler: p}); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	chrome := filepath.Join(dir, "trace.json")
	spans := filepath.Join(dir, "spans.jsonl")
	if err := writeExports(p, "", chrome, spans); err != nil {
		t.Fatal(err)
	}

	data, err := os.ReadFile(spans)
	if err != nil {
		t.Fatal(err)
	}
	_, root, err := obs.ParseRows(data)
	if err != nil {
		t.Fatalf("spans file: %v", err)
	}
	if root.Kind != "sweep" || len(root.Children()) != 1 {
		t.Fatalf("root %s/%s with %d children, want one sweep over one run",
			root.Kind, root.Name, len(root.Children()))
	}
	run := root.Children()[0]
	if run.Kind != "run" || len(run.Children()) != len(ids) {
		t.Fatalf("run span %s with %d children, want %d workloads", run.Kind, len(run.Children()), len(ids))
	}
	for _, ws := range run.Children() {
		if ws.Kind != "workload" || len(ws.Children()) == 0 {
			t.Fatalf("span %s/%s has %d children, want a workload with flows", ws.Kind, ws.Name, len(ws.Children()))
		}
		for _, fs := range ws.Children() {
			if fs.Kind != "flow" {
				t.Fatalf("workload %s child kind %q, want flow", ws.Name, fs.Kind)
			}
		}
	}

	data, err = os.ReadFile(chrome)
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatalf("chrome file: %v", err)
	}
	if want := len(obs.Flatten("", root)); len(out.TraceEvents) != want {
		t.Fatalf("chrome file has %d events for %d spans", len(out.TraceEvents), want)
	}
}
