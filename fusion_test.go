package vax780

// The fusion acceptance suite: the flow-fusion superword engine must
// be an implementation detail, invisible in every observable byte.
// Each test runs the same configuration fused (the default) and
// interpreted (NoFusion) and compares the strongest artifacts
// available — histogram arrays, rendered reports, telemetry series and
// Chrome traces, fault-injection tallies, profiler fingerprints,
// stripped ledgers, checkpoint resume chains. Any per-cycle hook
// (telemetry probe, flight recorder, prof sampler, fault plan) forces
// single-step interpretation, so a hooked default run must be
// byte-identical to a hooked NoFusion run: these tests pin that the
// deopt rule catches every hook, and the hook-free ones pin the
// effect-summary proof behind fused replay.

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"testing"
)

// runFusionPair executes cfg fused and with NoFusion and returns both
// results. cfg must not set NoFusion.
func runFusionPair(t *testing.T, cfg RunConfig) (fused, interp *Results) {
	t.Helper()
	fused, err := Run(cfg)
	if err != nil {
		t.Fatalf("fused run: %v", err)
	}
	icfg := cfg
	icfg.NoFusion = true
	interp, err = Run(icfg)
	if err != nil {
		t.Fatalf("interpreted run: %v", err)
	}
	return fused, interp
}

// TestFusionBitExact sweeps parallelism: at every -j the fused
// composite must be byte-identical to the interpreted one.
func TestFusionBitExact(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("j=%d", workers), func(t *testing.T) {
			fused, interp := runFusionPair(t, RunConfig{
				Instructions: 2000,
				Workloads:    AllWorkloads(),
				Parallelism:  workers,
			})
			compareResults(t, fused, interp)
		})
	}
}

// TestFusionAudit: the shipped control store compiles to a non-empty
// superword plan and every superword survives the word-by-word
// legality audit against the ulint segmentation (the vaxlint gate).
func TestFusionAudit(t *testing.T) {
	superwords, err := FusionAudit()
	if err != nil {
		t.Fatalf("FusionAudit: %v", err)
	}
	if superwords == 0 {
		t.Fatal("FusionAudit audited 0 superwords; the shipped ROM has fusible segments")
	}
}

// TestFusionTelemetryBitExact: an attached telemetry layer deopts the
// EBOX to single-step, and every telemetry artifact (live counters,
// interval CSV, Chrome trace) is byte-identical default vs NoFusion.
// This matters because Recorder.roll snapshots the monitor histogram
// from inside Probe.Cycle at interval boundaries: a bulk histogram
// update would move counts across an interval edge.
func TestFusionTelemetryBitExact(t *testing.T) {
	for _, c := range []struct {
		cfg       RunConfig
		interval  uint64
		maxEvents int
	}{
		{RunConfig{Instructions: 1800, Workloads: []WorkloadID{TimesharingA, RTECommercial}}, 1500, 200000},
		// The 10k-instruction composite under a 50 000-event trace cap.
		{RunConfig{Instructions: 10_000, Parallelism: 1}, 100_000, 50_000},
		{RunConfig{Instructions: 10_000, Parallelism: 2}, 100_000, 50_000},
		{RunConfig{Instructions: 10_000, Parallelism: 4}, 100_000, 50_000},
	} {
		t.Run(fmt.Sprintf("n=%d/j=%d", c.cfg.Instructions, c.cfg.Parallelism), func(t *testing.T) {
			fcfg := c.cfg
			fcfg.Telemetry = NewTelemetry(c.interval, c.maxEvents)
			icfg := c.cfg
			icfg.NoFusion = true
			icfg.Telemetry = NewTelemetry(c.interval, c.maxEvents)

			fused, err := Run(fcfg)
			if err != nil {
				t.Fatal(err)
			}
			interp, err := Run(icfg)
			if err != nil {
				t.Fatal(err)
			}
			compareResults(t, fused, interp)

			if fc, ic := fcfg.Telemetry.Counters(), icfg.Telemetry.Counters(); fc != ic {
				t.Errorf("live counters differ:\nfused  %+v\ninterp %+v", fc, ic)
			}
			var fcsv, icsv bytes.Buffer
			if err := fcfg.Telemetry.WriteIntervalsCSV(&fcsv); err != nil {
				t.Fatal(err)
			}
			if err := icfg.Telemetry.WriteIntervalsCSV(&icsv); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(fcsv.Bytes(), icsv.Bytes()) {
				t.Error("interval CSV differs fused vs interpreted")
			}
			var ftr, itr bytes.Buffer
			if err := fcfg.Telemetry.WriteTrace(&ftr); err != nil {
				t.Fatal(err)
			}
			if err := icfg.Telemetry.WriteTrace(&itr); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(ftr.Bytes(), itr.Bytes()) {
				t.Error("Chrome trace differs fused vs interpreted")
			}
		})
	}
}

// TestFusionHooksBitExact is the tentpole acceptance test: with the
// telemetry probe, flight recorder, and sampling profiler ALL attached
// — the default run must deopt to the interpreter and be
// byte-identical to the NoFusion run at every -j: histograms, reports,
// ledgers, telemetry CSV and traces. The sampler rides along inside the
// profiler-equipped variant below; the recorder-only pair is
// TestFusionFlightRecorderBitExact.
func TestFusionHooksBitExact(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("j=%d", workers), func(t *testing.T) {
			cfg := RunConfig{
				Instructions: 1800,
				Workloads:    AllWorkloads(),
				Parallelism:  workers,
				FlightDepth:  64,
			}
			fcfg := cfg
			fcfg.Telemetry = NewTelemetry(1500, 200000)
			icfg := cfg
			icfg.NoFusion = true
			icfg.Telemetry = NewTelemetry(1500, 200000)

			fused, err := Run(fcfg)
			if err != nil {
				t.Fatal(err)
			}
			interp, err := Run(icfg)
			if err != nil {
				t.Fatal(err)
			}
			compareResults(t, fused, interp)

			if fc, ic := fcfg.Telemetry.Counters(), icfg.Telemetry.Counters(); fc != ic {
				t.Errorf("live counters differ:\nfused  %+v\ninterp %+v", fc, ic)
			}
			var fcsv, icsv bytes.Buffer
			if err := fcfg.Telemetry.WriteIntervalsCSV(&fcsv); err != nil {
				t.Fatal(err)
			}
			if err := icfg.Telemetry.WriteIntervalsCSV(&icsv); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(fcsv.Bytes(), icsv.Bytes()) {
				t.Error("interval CSV differs fused vs interpreted under hooks")
			}
			var ftr, itr bytes.Buffer
			if err := fcfg.Telemetry.WriteTrace(&ftr); err != nil {
				t.Fatal(err)
			}
			if err := icfg.Telemetry.WriteTrace(&itr); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(ftr.Bytes(), itr.Bytes()) {
				t.Error("Chrome trace differs fused vs interpreted under hooks")
			}
		})
	}
}

// TestFusionDeoptFaults: a fault plan forces single-step mode (its
// per-cycle injection decisions must see every micro-PC), and the
// injection tallies, retries, and degradation-annotated report are
// identical fused vs NoFusion.
func TestFusionDeoptFaults(t *testing.T) {
	fused, interp := runFusionPair(t, RunConfig{
		Instructions: 2500,
		Workloads:    []WorkloadID{TimesharingA, RTEScientific},
		Faults: &FaultConfig{
			Seed:        7,
			UPCDrop:     1e-4,
			UPCFlip:     1e-4,
			UPCSaturate: 2e-4,
		},
	})
	compareResults(t, fused, interp)
	if fused.FaultInjections != interp.FaultInjections {
		t.Errorf("fault injections differ:\nfused  %s\ninterp %s",
			fused.FaultInjections, interp.FaultInjections)
	}
}

// TestFusionFlightRecorderBitExact: a forced-on flight recorder deopts
// the EBOX to single-step; the ring's contents and artifacts match
// NoFusion exactly.
func TestFusionFlightRecorderBitExact(t *testing.T) {
	fused, interp := runFusionPair(t, RunConfig{
		Instructions: 1500,
		Workloads:    []WorkloadID{TimesharingA},
		FlightDepth:  64,
	})
	compareResults(t, fused, interp)
}

// TestFusionProfilerBitExact: the sampling profiler's stride hook
// deopts the EBOX to single-step; the sampled fingerprint
// (flows, cycles, shares, class vectors) and the stripped ledger are
// byte-identical fused vs NoFusion.
func TestFusionProfilerBitExact(t *testing.T) {
	cfg := RunConfig{
		Instructions: 1500,
		Workloads:    []WorkloadID{TimesharingA, RTEScientific},
	}
	fp, fres, fled := profiledRun(t, cfg, 1)
	icfg := cfg
	icfg.NoFusion = true
	ip, ires, iled := profiledRun(t, icfg, 1)

	compareResults(t, fres, ires)
	fprof, iprof := fp.Profile(), ip.Profile()
	if fprof == nil || iprof == nil {
		t.Fatal("profiler published no profile")
	}
	if ff, fi := sampledFingerprint(fprof), sampledFingerprint(iprof); ff != fi {
		t.Errorf("sampled profiles differ fused vs interpreted:\nfused:\n%s\ninterp:\n%s", ff, fi)
	}
	if !bytes.Equal(fled, iled) {
		t.Error("stripped ledgers differ fused vs interpreted")
	}
}

// TestFusionLedgerBitExact: the stripped run ledger — including the
// run-start config hash, which deliberately excludes fusion settings —
// is byte-identical fused vs NoFusion.
func TestFusionLedgerBitExact(t *testing.T) {
	cfg := RunConfig{
		Instructions: 1500,
		Workloads:    []WorkloadID{TimesharingA, RTECommercial},
	}
	run := func(noFusion bool) []byte {
		var led bytes.Buffer
		c := cfg
		c.NoFusion = noFusion
		c.Ledger = &led
		if _, err := Run(c); err != nil {
			t.Fatal(err)
		}
		stripped, err := StripLedgerWallClock(led.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		return stripped
	}
	if !bytes.Equal(run(false), run(true)) {
		t.Error("stripped ledger differs fused vs interpreted")
	}
}

// TestFusionResumeInterop: fusion is excluded from the checkpoint
// fingerprint, so a run killed while fused may be resumed interpreted
// and vice versa, and both resumed composites are byte-identical to an
// uninterrupted run.
func TestFusionResumeInterop(t *testing.T) {
	base := RunConfig{
		Instructions: 4000,
		Workloads:    []WorkloadID{TimesharingA, RTEScientific, RTECommercial},
		// A per-cycle hook rides along so the resume chain also proves
		// the hooked fused path checkpoint-compatible with the
		// interpreter.
		FlightDepth: 64,
	}
	uninterrupted, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}

	for _, dir := range []struct {
		name                string
		killFused, resFused bool
	}{
		{"fused-then-interpreted", true, false},
		{"interpreted-then-fused", false, true},
	} {
		t.Run(dir.name, func(t *testing.T) {
			ckpt := filepath.Join(t.TempDir(), "run.ckpt")
			killed := base
			killed.Checkpoint = ckpt
			killed.NoFusion = !dir.killFused
			killed.haltAfter = 1
			if _, err := Run(killed); !errors.Is(err, errRunHalted) {
				t.Fatalf("halted run: err = %v, want errRunHalted", err)
			}
			resumed := base
			resumed.Checkpoint = ckpt
			resumed.Resume = true
			resumed.NoFusion = !dir.resFused
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
