package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"vax780"
)

// TestMain runs the command itself when VAXTABLES_RUN_MAIN is set, so a
// test can drive the real flag handling and exit codes by re-executing
// its own binary.
func TestMain(m *testing.M) {
	if os.Getenv("VAXTABLES_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestBadCountsRejected: an instruction count below 1 or a negative -j
// would be replaced by a library default while the document names the
// value given. Each must fail at flag validation with exit 2, before
// simulating and without creating the -o file.
func TestBadCountsRejected(t *testing.T) {
	for _, args := range [][]string{{"-n", "-5"}, {"-n", "0"}, {"-j", "-1"}} {
		out := filepath.Join(t.TempDir(), "EXPERIMENTS.md")
		cmd := exec.Command(os.Args[0], append(args, "-o", out)...)
		cmd.Env = append(os.Environ(), "VAXTABLES_RUN_MAIN=1")
		stdout, err := cmd.Output()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Fatalf("vaxtables %v: err %v, want exit status 2", args, err)
		}
		if !strings.Contains(string(exit.Stderr), args[0]) {
			t.Errorf("vaxtables %v: stderr %q does not name %s", args, exit.Stderr, args[0])
		}
		if len(stdout) != 0 {
			t.Errorf("vaxtables %v printed %q; the run must not start", args, stdout)
		}
		if _, err := os.Stat(out); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("vaxtables %v: -o file stat err %v, want it never created", args, err)
		}
	}
}

func TestMarkdownSections(t *testing.T) {
	tel := vax780.NewTelemetry(intervalCyclesFor(5000), 0)
	res, err := vax780.Run(vax780.RunConfig{Instructions: 5000, Telemetry: tel})
	if err != nil {
		t.Fatal(err)
	}
	md := Markdown(res, tel, 5000)
	wants := []string{
		"# EXPERIMENTS — paper vs. measured",
		"## Headline",
		"## Per-experiment runs",
		"## Figure 1 — system structure",
		"## Table 1 — opcode group frequency",
		"## Table 2 — PC-changing instructions",
		"## Table 3 — specifiers per average instruction",
		"## Table 4 — operand specifier distribution",
		"## Table 5 — D-stream reads and writes",
		"## Table 6 — estimated size of average instruction",
		"## Table 7 — interrupt and context-switch headway",
		"## Table 8 — average VAX instruction timing",
		"## Table 9 — cycles per instruction within each group",
		"## Section 4 — implementation events",
		"## Ablation A1",
		"## Interval time series",
		"recomposes exactly",
		"10.593",        // the paper CPI appears
		"TIMESHARING-A", // all five experiments listed
		"RTE-COM",
	}
	for _, w := range wants {
		if !strings.Contains(md, w) {
			t.Errorf("markdown missing %q", w)
		}
	}
	// Every markdown table row must be well-formed (starts and ends with a pipe).
	for _, line := range strings.Split(md, "\n") {
		if strings.HasPrefix(line, "|") && !strings.HasSuffix(line, "|") {
			t.Errorf("malformed table row: %q", line)
		}
	}
}
