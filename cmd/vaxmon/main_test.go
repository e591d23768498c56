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

// TestMain runs the command itself when VAXMON_RUN_MAIN is set, so a
// test can drive the real flag handling and exit codes by re-executing
// its own binary.
func TestMain(m *testing.M) {
	if os.Getenv("VAXMON_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestTraceMaxZeroRejected: -trace with -trace-max 0 asks for a trace
// of a disabled tracer. It must fail at flag validation with exit 2,
// before simulating and without creating the output file.
func TestTraceMaxZeroRejected(t *testing.T) {
	out := filepath.Join(t.TempDir(), "out.json")
	cmd := exec.Command(os.Args[0], "-trace", out, "-trace-max", "0", "-n", "200", "-quiet")
	cmd.Env = append(os.Environ(), "VAXMON_RUN_MAIN=1")
	stdout, err := cmd.Output()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("vaxmon -trace-max 0: err %v, want exit status 2", err)
	}
	if !strings.Contains(string(exit.Stderr), "-trace-max") {
		t.Errorf("stderr %q does not name -trace-max", exit.Stderr)
	}
	if len(stdout) != 0 {
		t.Errorf("vaxmon printed %q; the run must not start", stdout)
	}
	if _, err := os.Stat(out); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("trace file: stat err %v, want it never created", err)
	}
}

// TestBadCountsRejected: an instruction count below 1 or a negative -j
// would be replaced by a default the output never names, and -intervals
// is gone (-interval-cycles with an interval export replaces it). Each
// must fail at flag validation with exit 2, before simulating and
// without creating an output file.
func TestBadCountsRejected(t *testing.T) {
	for _, args := range [][]string{{"-n", "-5"}, {"-n", "0"}, {"-j", "-3"}, {"-intervals", "5000"}} {
		out := filepath.Join(t.TempDir(), "out.csv")
		cmd := exec.Command(os.Args[0], append(args, "-intervals-csv", out, "-quiet")...)
		cmd.Env = append(os.Environ(), "VAXMON_RUN_MAIN=1")
		stdout, err := cmd.Output()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Fatalf("vaxmon %v: err %v, want exit status 2", args, err)
		}
		if !strings.Contains(string(exit.Stderr), args[0]) {
			t.Errorf("vaxmon %v: stderr %q does not name %s", args, exit.Stderr, args[0])
		}
		if len(stdout) != 0 {
			t.Errorf("vaxmon %v printed %q; the run must not start", args, stdout)
		}
		if _, err := os.Stat(out); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("vaxmon %v: output file stat err %v, want it never created", args, err)
		}
	}
}

func TestJobsParallelism(t *testing.T) {
	cases := []struct {
		in   int
		want int
		ok   bool
	}{
		{0, 0, true}, // auto: defer to the library default
		{1, 1, true}, // sequential
		{8, 8, true}, // bounded pool
		{-1, 0, false},
		{-99, 0, false},
	}
	for _, c := range cases {
		got, err := jobsParallelism(c.in)
		if c.ok {
			if err != nil {
				t.Errorf("jobsParallelism(%d): unexpected error %v", c.in, err)
			}
			if got != c.want {
				t.Errorf("jobsParallelism(%d) = %d, want %d", c.in, got, c.want)
			}
			continue
		}
		if err == nil {
			t.Errorf("jobsParallelism(%d): want error, got %d", c.in, got)
		} else if !strings.Contains(err.Error(), "-j") {
			t.Errorf("jobsParallelism(%d): error %q does not name the flag", c.in, err)
		}
	}
}

// TestOpenLedger: "-" aliases stderr without a real close; a path
// creates the file and the returned closer flushes it.
func TestOpenLedger(t *testing.T) {
	w, closeFn, err := openLedger("-")
	if err != nil {
		t.Fatal(err)
	}
	if w != os.Stderr {
		t.Error(`openLedger("-") did not return stderr`)
	}
	closeFn()

	path := filepath.Join(t.TempDir(), "run.jsonl")
	w, closeFn, err = openLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write([]byte("x\n")); err != nil {
		t.Fatal(err)
	}
	closeFn()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "x\n" {
		t.Errorf("ledger file holds %q", data)
	}

	if _, _, err := openLedger(filepath.Join(t.TempDir(), "no", "such", "dir", "x")); err == nil {
		t.Error("openLedger into a missing directory did not fail")
	}
}

// TestProgressLine: the -progress stderr line carries the fleet state
// a user scans for — completed units, busy workloads, fault tallies.
func TestProgressLine(t *testing.T) {
	line := progressLine(vax780.Progress{
		DoneUnits: 2, TotalUnits: 5,
		InstrRate: 1500, ETASeconds: 12,
		Faults: 1, Retries: 3,
		Workers: []vax780.ProgressWorker{
			{Label: "TIMESHARING-A", Busy: true},
			{Label: "(old)", Busy: false},
			{Label: "RTE-SCIENTIFIC", Busy: true},
		},
	})
	for _, want := range []string{
		"2/5 workloads", "TIMESHARING-A,RTE-SCIENTIFIC",
		"1500 instr/s", "eta 12s", "faults 1 retries 3",
	} {
		if !strings.Contains(line, want) {
			t.Errorf("progress line %q lacks %q", line, want)
		}
	}
	if strings.Contains(line, "(old)") {
		t.Error("progress line shows an idle worker's stale label")
	}

	idle := progressLine(vax780.Progress{TotalUnits: 5})
	if !strings.Contains(idle, "0/5 workloads  -") {
		t.Errorf("idle progress line %q lacks the '-' placeholder", idle)
	}
}

// TestPrintFlightTail: the fault post-mortem prints the last n flight
// entries, octal micro-PCs, with stalls flagged.
func TestPrintFlightTail(t *testing.T) {
	mf := &vax780.MachineFault{}
	for i := 0; i < 12; i++ {
		mf.Flight = append(mf.Flight, vax780.FlightEntry{
			Cycle: uint64(100 + i), UPC: uint16(i), Class: "COMPUTE", Region: "IFETCH",
			Stalled: i == 11,
		})
	}
	var b strings.Builder
	printFlightTail(&b, mf, 8)
	out := b.String()
	for _, want := range []string{
		"last 8 of 12 cycles", "uPC 00013", "COMPUTE", "IFETCH", "STALLED",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("flight tail output lacks %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "uPC 00003") {
		t.Error("flight tail printed entries outside the last 8")
	}

	b.Reset()
	printFlightTail(&b, &vax780.MachineFault{}, 8)
	if b.Len() != 0 {
		t.Errorf("empty flight printed %q", b.String())
	}
}
