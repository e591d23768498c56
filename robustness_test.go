package vax780

// Robustness tests: the fault-injection harness, the crash-safe
// supervisor, and the degradation-aware reduction.

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vax780/internal/upc"
)

// TestZeroRateFaultPlanBitExact is the harness's no-perturbation
// property: attaching a fault plan whose every rate is zero must
// reproduce the unfaulted run bit-exactly — same histogram, same
// cycles, same report.
func TestZeroRateFaultPlanBitExact(t *testing.T) {
	base := RunConfig{Instructions: 8000, Workloads: []WorkloadID{TimesharingA, RTECommercial}}

	clean, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	faulted := base
	faulted.Faults = &FaultConfig{Seed: 12345} // all rates zero
	zero, err := Run(faulted)
	if err != nil {
		t.Fatal(err)
	}

	if *clean.Histogram() != *zero.Histogram() {
		t.Error("zero-rate fault plan changed the composite histogram")
	}
	for i := range clean.PerWorkload {
		if clean.PerWorkload[i] != zero.PerWorkload[i] {
			t.Errorf("workload %d result changed: %+v vs %+v",
				i, clean.PerWorkload[i], zero.PerWorkload[i])
		}
	}
	if clean.Report() != zero.Report() {
		t.Error("zero-rate fault plan changed the report")
	}
	if zero.FaultInjections != "none" {
		t.Errorf("zero-rate plan injected: %s", zero.FaultInjections)
	}
}

// TestCheckpointResume kills a composite run after its first workload
// (via the haltAfter seam) and resumes it: the resumed composite must
// be bit-identical to an uninterrupted run.
func TestCheckpointResume(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "run.ckpt")
	base := RunConfig{
		Instructions: 6000,
		Workloads:    []WorkloadID{TimesharingA, RTEScientific, RTECommercial},
	}

	uninterrupted, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}

	killed := base
	killed.Checkpoint = ckpt
	killed.haltAfter = 1
	if _, err := Run(killed); !errors.Is(err, errRunHalted) {
		t.Fatalf("halted run: err = %v, want errRunHalted", err)
	}
	if _, err := os.Stat(ckpt); err != nil {
		t.Fatalf("no checkpoint written: %v", err)
	}

	resumed := base
	resumed.Checkpoint = ckpt
	resumed.Resume = true
	res, err := Run(resumed)
	if err != nil {
		t.Fatal(err)
	}
	if res.Resumed != 1 {
		t.Errorf("Resumed = %d, want 1", res.Resumed)
	}
	if *res.Histogram() != *uninterrupted.Histogram() {
		t.Error("resumed composite histogram differs from uninterrupted run")
	}
	if len(res.PerWorkload) != len(uninterrupted.PerWorkload) {
		t.Fatalf("resumed %d workloads, want %d",
			len(res.PerWorkload), len(uninterrupted.PerWorkload))
	}
	for i := range res.PerWorkload {
		if res.PerWorkload[i] != uninterrupted.PerWorkload[i] {
			t.Errorf("workload %d: %+v vs %+v",
				i, res.PerWorkload[i], uninterrupted.PerWorkload[i])
		}
	}
	if res.Report() != uninterrupted.Report() {
		t.Error("resumed report differs from uninterrupted run")
	}
	if res.WorkloadComparison() != uninterrupted.WorkloadComparison() {
		t.Error("resumed per-workload comparison differs")
	}
}

// TestCheckpointResumeFlightRecorder: the flight recorder is outside
// the checkpoint fingerprint, so a run killed with the recorder forced
// on resumes with it off, and the reverse. Both resumed composites
// must be bit-identical to an uninterrupted run without the recorder.
func TestCheckpointResumeFlightRecorder(t *testing.T) {
	base := RunConfig{
		Instructions: 4000,
		Workloads:    []WorkloadID{TimesharingA, RTEScientific, RTECommercial},
	}
	uninterrupted, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name                string
		killDepth, resDepth int
	}{
		{"recorded-then-bare", 64, 0},
		{"bare-then-recorded", 0, 64},
	} {
		t.Run(c.name, func(t *testing.T) {
			ckpt := filepath.Join(t.TempDir(), "run.ckpt")
			killed := base
			killed.Checkpoint = ckpt
			killed.FlightDepth = c.killDepth
			killed.haltAfter = 1
			if _, err := Run(killed); !errors.Is(err, errRunHalted) {
				t.Fatalf("halted run: err = %v, want errRunHalted", err)
			}
			resumed := base
			resumed.Checkpoint = ckpt
			resumed.Resume = true
			resumed.FlightDepth = c.resDepth
			res, err := Run(resumed)
			if err != nil {
				t.Fatal(err)
			}
			if res.Resumed != 1 {
				t.Errorf("Resumed = %d, want 1", res.Resumed)
			}
			compareResults(t, res, uninterrupted)
		})
	}
}

// TestResumeWithoutCheckpointFile starts from scratch when the
// checkpoint file does not exist.
func TestResumeWithoutCheckpointFile(t *testing.T) {
	cfg := RunConfig{
		Instructions: 3000,
		Workloads:    []WorkloadID{TimesharingA},
		Checkpoint:   filepath.Join(t.TempDir(), "absent.ckpt"),
		Resume:       true,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Resumed != 0 {
		t.Errorf("Resumed = %d, want 0", res.Resumed)
	}
}

// TestCheckpointMismatch: a checkpoint written under one measurement
// configuration must refuse to resume a different one.
func TestCheckpointMismatch(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "run.ckpt")
	first := RunConfig{
		Instructions: 3000,
		Workloads:    []WorkloadID{TimesharingA, RTEScientific},
		Checkpoint:   ckpt,
		haltAfter:    1,
	}
	if _, err := Run(first); !errors.Is(err, errRunHalted) {
		t.Fatal(err)
	}

	changed := first
	changed.haltAfter = 0
	changed.Resume = true
	changed.Instructions = 4000 // measurement-relevant change
	if _, err := Run(changed); !errors.Is(err, ErrCheckpointMismatch) {
		t.Errorf("changed config: err = %v, want ErrCheckpointMismatch", err)
	}

	// More recorded workloads than the resuming run has is a mismatch
	// too, not an index panic.
	shrunk := first
	shrunk.haltAfter = 0
	shrunk.Resume = true
	shrunk.Workloads = nil // filled to all five; hash differs
	if _, err := Run(shrunk); !errors.Is(err, ErrCheckpointMismatch) {
		t.Errorf("shrunk workloads: err = %v, want ErrCheckpointMismatch", err)
	}
}

// TestCheckpointCorruptionDetected: a flipped byte or truncation in the
// checkpoint file must surface as corruption, never as silent bad data.
func TestCheckpointCorruptionDetected(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "run.ckpt")
	cfg := RunConfig{
		Instructions: 3000,
		Workloads:    []WorkloadID{TimesharingA, RTEScientific},
		Checkpoint:   ckpt,
		haltAfter:    1,
	}
	if _, err := Run(cfg); !errors.Is(err, errRunHalted) {
		t.Fatal(err)
	}
	data, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}

	resume := cfg
	resume.haltAfter = 0
	resume.Resume = true

	corrupt := append([]byte(nil), data...)
	corrupt[len(corrupt)/2] ^= 0xFF
	if err := os.WriteFile(ckpt, corrupt, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(resume); !errors.Is(err, upc.ErrCorrupt) {
		t.Errorf("flipped byte: err = %v, want ErrCorrupt", err)
	}

	if err := os.WriteFile(ckpt, data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(resume); !errors.Is(err, upc.ErrCorrupt) {
		t.Errorf("truncated: err = %v, want ErrCorrupt", err)
	}
}

// TestMachineFaultTyped: with machine-fault rates high enough to abort,
// Run returns a typed *MachineFault matching ErrMachineFault — and
// never lets a panic escape.
func TestMachineFaultTyped(t *testing.T) {
	_, err := Run(RunConfig{
		Instructions: 8000,
		Workloads:    []WorkloadID{TimesharingA},
		Faults: &FaultConfig{
			Seed:       3,
			MemParity:  0.01, // aborts well before retries can clear it
			MaxRetries: 1, RetryBackoff: 1,
		},
	})
	if err == nil {
		t.Fatal("1% parity rate completed without a fault")
	}
	if !errors.Is(err, ErrMachineFault) {
		t.Fatalf("err = %v, does not match ErrMachineFault", err)
	}
	var mf *MachineFault
	if !errors.As(err, &mf) {
		t.Fatalf("err = %v, not a *MachineFault", err)
	}
	if mf.Workload != TimesharingA || mf.Attempts < 2 || mf.Site == "" || mf.Cause == "" {
		t.Errorf("fault detail incomplete: %+v", mf)
	}
	if !mf.Retrying {
		t.Error("parity fault should be flagged transient")
	}
}

// TestMeasurementFaultsAnnotated: board-damage rates that corrupt the
// histogram but never abort the machine must complete with the
// degradation annotated in the report, not fail.
func TestMeasurementFaultsAnnotated(t *testing.T) {
	res, err := Run(RunConfig{
		Instructions: 8000,
		Workloads:    []WorkloadID{TimesharingA},
		Faults: &FaultConfig{
			Seed:        9,
			UPCSaturate: 0.001, // forces counters to capacity: always detectable
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.FaultInjections == "" || res.FaultInjections == "none" {
		t.Fatalf("no injections recorded: %q", res.FaultInjections)
	}
	q := res.Analysis().Quality()
	if q == nil || !q.Degraded() {
		t.Fatal("forced saturation not detected as degradation")
	}
	if q.Saturated == 0 {
		t.Errorf("quality = %+v, want saturated buckets", q)
	}
	if c := q.Confidence(); c <= 0 || c >= 1 {
		t.Errorf("confidence = %v, want in (0,1)", c)
	}
	rep := res.Report()
	for _, want := range []string{"Measurement Quality", "coverage", "saturated"} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q", want)
		}
	}
}

// TestHealthyReportHasNoQualitySection: the quality rendering must not
// change the report of a clean run.
func TestHealthyReportHasNoQualitySection(t *testing.T) {
	res, err := Run(RunConfig{Instructions: 3000, Workloads: []WorkloadID{TimesharingA}})
	if err != nil {
		t.Fatal(err)
	}
	if q := res.Analysis().Quality(); q == nil || q.Degraded() {
		t.Fatalf("clean run quality = %+v", q)
	}
	rep := res.Report()
	if strings.Contains(rep, "Measurement Quality") || strings.Contains(rep, "coverage") {
		t.Error("clean-run report carries degradation annotations")
	}
}

// TestAtomicHistogramSave: SaveHistogramFile must leave a loadable dump
// and no temp droppings.
func TestAtomicHistogramSave(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "composite.upch")
	res, err := Run(RunConfig{Instructions: 3000, Workloads: []WorkloadID{TimesharingA}})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.SaveHistogramFile(path); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	loaded, err := LoadHistogram(f)
	if err != nil {
		t.Fatal(err)
	}
	if *loaded.Histogram() != *res.Histogram() {
		t.Error("saved dump does not round-trip")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("directory has %d entries, want just the dump", len(entries))
	}
}

// FuzzReadDump feeds arbitrary bytes to the checkpoint dump reader: it
// must never panic and must reject anything that does not checksum.
func FuzzReadDump(f *testing.F) {
	dir := f.TempDir()
	cfg := RunConfig{
		Instructions: 2000,
		Workloads:    []WorkloadID{TimesharingA, RTEScientific},
		Checkpoint:   filepath.Join(dir, "seed.ckpt"),
		haltAfter:    1,
	}
	if _, err := Run(cfg); !errors.Is(err, errRunHalted) {
		f.Fatal(err)
	}
	seed, err := os.ReadFile(cfg.Checkpoint)
	if err != nil {
		f.Fatal(err)
	}
	hash := cfg.checkpointHash()

	f.Add(seed)
	f.Add([]byte("UPCK"))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.ckpt")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		recs, err := readCheckpoint(path, hash)
		if err != nil {
			return
		}
		// Anything accepted must survive a rewrite-and-reread cycle.
		out := filepath.Join(t.TempDir(), "rewrite.ckpt")
		if err := writeCheckpoint(out, hash, recs); err != nil {
			t.Fatal(err)
		}
		if _, err := readCheckpoint(out, hash); err != nil {
			t.Fatalf("accepted checkpoint does not round-trip: %v", err)
		}
	})
}
