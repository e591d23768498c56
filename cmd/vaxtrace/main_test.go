package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain runs the command itself when VAXTRACE_RUN_MAIN is set, so a
// test can drive the real flag handling and exit codes by re-executing
// its own binary.
func TestMain(m *testing.M) {
	if os.Getenv("VAXTRACE_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestBadCountsRejected: an instruction count below 1 would be replaced
// by a default the output never names. It must fail at flag validation
// with exit 2, before simulating and without creating the -save file.
func TestBadCountsRejected(t *testing.T) {
	for _, args := range [][]string{{"-n", "-5"}, {"-n", "0"}} {
		out := filepath.Join(t.TempDir(), "trace.bin")
		cmd := exec.Command(os.Args[0], append(args, "-save", out)...)
		cmd.Env = append(os.Environ(), "VAXTRACE_RUN_MAIN=1")
		stdout, err := cmd.Output()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Fatalf("vaxtrace %v: err %v, want exit status 2", args, err)
		}
		if !strings.Contains(string(exit.Stderr), args[0]) {
			t.Errorf("vaxtrace %v: stderr %q does not name %s", args, exit.Stderr, args[0])
		}
		if len(stdout) != 0 {
			t.Errorf("vaxtrace %v printed %q; the run must not start", args, stdout)
		}
		if _, err := os.Stat(out); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("vaxtrace %v: -save file stat err %v, want it never created", args, err)
		}
	}
}
