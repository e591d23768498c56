package vax780

// The parallel-run acceptance suite: Parallelism > 1 must be an
// implementation detail, invisible in every observable byte. Each test
// runs the same configuration sequentially (Parallelism: 1) and
// concurrently, and compares the strongest artifacts available —
// histogram arrays, rendered reports, telemetry series and Chrome
// traces, fault-injection tallies, checkpoint files.

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"vax780/internal/faults"
	"vax780/internal/upc"
)

// runPair executes cfg sequentially and with the given parallelism and
// returns both results. cfg must not set Parallelism.
func runPair(t *testing.T, cfg RunConfig, workers int) (seq, par *Results) {
	t.Helper()
	scfg := cfg
	scfg.Parallelism = 1
	seq, err := Run(scfg)
	if err != nil {
		t.Fatalf("sequential run: %v", err)
	}
	pcfg := cfg
	pcfg.Parallelism = workers
	par, err = Run(pcfg)
	if err != nil {
		t.Fatalf("parallel run (j=%d): %v", workers, err)
	}
	return seq, par
}

// compareResults applies the bit-exactness checks shared by the suite.
func compareResults(t *testing.T, seq, par *Results) {
	t.Helper()
	if *seq.Histogram() != *par.Histogram() {
		t.Error("composite histogram differs")
	}
	if !reflect.DeepEqual(seq.PerWorkload, par.PerWorkload) {
		t.Errorf("per-workload rows differ:\nseq %+v\npar %+v", seq.PerWorkload, par.PerWorkload)
	}
	if sr, pr := seq.Report(), par.Report(); sr != pr {
		t.Error("rendered report differs")
	}
	if sw, pw := seq.WorkloadComparison(), par.WorkloadComparison(); sw != pw {
		t.Error("workload comparison differs")
	}
	if seq.CPI() != par.CPI() {
		t.Errorf("CPI differs: %g sequential, %g parallel", seq.CPI(), par.CPI())
	}
	if seq.Retries != par.Retries {
		t.Errorf("retries differ: %d sequential, %d parallel", seq.Retries, par.Retries)
	}
	if seq.FaultInjections != par.FaultInjections {
		t.Errorf("fault injections differ:\nseq %s\npar %s",
			seq.FaultInjections, par.FaultInjections)
	}
}

// TestParallelBitExact sweeps workload counts and worker counts: the
// composite must be byte-identical to the sequential run in every case,
// including workers > workloads and workers > GOMAXPROCS.
func TestParallelBitExact(t *testing.T) {
	sets := [][]WorkloadID{
		{TimesharingA, RTEScientific},
		{TimesharingA, TimesharingB, RTEEducational, RTECommercial},
		AllWorkloads(),
	}
	for _, ids := range sets {
		for _, workers := range []int{2, 4, 8} {
			t.Run(fmt.Sprintf("wl=%d/j=%d", len(ids), workers), func(t *testing.T) {
				seq, par := runPair(t, RunConfig{
					Instructions: 1500,
					Workloads:    ids,
				}, workers)
				compareResults(t, seq, par)
			})
		}
	}
}

// TestParallelTelemetryBitExact attaches the full telemetry stack to
// both runs: the interval time series, the live counters, and the
// Chrome trace must splice back to the sequential timeline exactly —
// on a short three-workload run, and on the 10k-instruction composite
// with a 50 000-event trace cap that truncates inside the first
// workload, a 150 000-event cap that truncates in the third and a
// 250 000-event cap that truncates in the fifth, after earlier
// workloads have merged whole, and a 100-event cap that every child
// reaches: those cases prove the children's stop rule drops no event
// that survives. A fault plan with transient retries reuses each child
// across attempts, and its events must splice back exactly too.
func TestParallelTelemetryBitExact(t *testing.T) {
	retried := RunConfig{Instructions: 10_000, Faults: &FaultConfig{
		Seed: 4, MemParity: 3e-5, MaxRetries: 8, RetryBackoff: 1,
	}}
	for _, c := range []struct {
		cfg       RunConfig
		workers   int
		interval  uint64
		maxEvents int
		tag       string // subtest name suffix
	}{
		{RunConfig{Instructions: 1800, Workloads: []WorkloadID{TimesharingA, RTEScientific, RTECommercial}}, 3, 1500, 200000, ""},
		{RunConfig{Instructions: 10_000}, 2, 100_000, 50_000, ""},
		{RunConfig{Instructions: 10_000}, 4, 100_000, 50_000, ""},
		{RunConfig{Instructions: 10_000}, 2, 100_000, 150_000, "/cap=150000"},
		{RunConfig{Instructions: 10_000}, 4, 100_000, 150_000, "/cap=150000"},
		{RunConfig{Instructions: 10_000}, 2, 100_000, 250_000, "/cap=250000"},
		{RunConfig{Instructions: 10_000}, 4, 100_000, 250_000, "/cap=250000"},
		{RunConfig{Instructions: 10_000}, 4, 100_000, 100, "/cap=100"},
		{retried, 4, 100_000, 150_000, "/cap=150000/retries"},
	} {
		t.Run(fmt.Sprintf("n=%d/j=%d%s", c.cfg.Instructions, c.workers, c.tag), func(t *testing.T) {
			scfg := c.cfg
			scfg.Parallelism = 1
			scfg.Telemetry = NewTelemetry(c.interval, c.maxEvents)
			seq, err := Run(scfg)
			if err != nil {
				t.Fatal(err)
			}

			pcfg := c.cfg
			pcfg.Parallelism = c.workers
			pcfg.Telemetry = NewTelemetry(c.interval, c.maxEvents)
			par, err := Run(pcfg)
			if err != nil {
				t.Fatal(err)
			}

			compareResults(t, seq, par)
			if c.cfg.Faults != nil && par.Retries == 0 {
				t.Error("the fault plan retried nothing; the case exercises no retry")
			}

			if sc, pc := scfg.Telemetry.Counters(), pcfg.Telemetry.Counters(); sc != pc {
				t.Errorf("live counters differ:\nseq %+v\npar %+v", sc, pc)
			}
			if sr, pr := scfg.Telemetry.IntervalRows(), pcfg.Telemetry.IntervalRows(); !reflect.DeepEqual(sr, pr) {
				t.Errorf("interval rows differ: %d sequential, %d parallel rows", len(sr), len(pr))
			}

			var scsv, pcsv bytes.Buffer
			if err := scfg.Telemetry.WriteIntervalsCSV(&scsv); err != nil {
				t.Fatal(err)
			}
			if err := pcfg.Telemetry.WriteIntervalsCSV(&pcsv); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(scsv.Bytes(), pcsv.Bytes()) {
				t.Error("interval CSV differs")
			}

			var strace, ptrace bytes.Buffer
			if err := scfg.Telemetry.WriteTrace(&strace); err != nil {
				t.Fatal(err)
			}
			if err := pcfg.Telemetry.WriteTrace(&ptrace); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(strace.Bytes(), ptrace.Bytes()) {
				t.Error("Chrome trace differs")
			}
		})
	}
}

// TestParallelFaultsBitExact: with a fault plan attached, each workload
// derives its own child plan from (seed, index), so the injection
// tallies, retries, and the degradation-annotated report must match the
// sequential run byte for byte.
func TestParallelFaultsBitExact(t *testing.T) {
	seq, par := runPair(t, RunConfig{
		Instructions: 1500,
		Workloads:    []WorkloadID{TimesharingA, TimesharingB, RTEScientific},
		Faults: &FaultConfig{
			Seed:    99,
			UPCDrop: 1e-4, UPCFlip: 1e-4, UPCSaturate: 1e-5,
		},
	}, 4)
	compareResults(t, seq, par)
	if seq.FaultInjections == "" {
		t.Error("fault run recorded no injections; the test exercises nothing")
	}
}

// TestParallelCheckpointBitExact: the checkpoint file written by a
// parallel run is byte-identical to the sequential one (records land in
// workload order), and resume interoperates freely — a sequentially
// written checkpoint resumes under a parallel run and vice versa.
func TestParallelCheckpointBitExact(t *testing.T) {
	dir := t.TempDir()
	cfg := RunConfig{
		Instructions: 1200,
		Workloads:    []WorkloadID{TimesharingA, RTEEducational, RTECommercial},
	}

	scfg := cfg
	scfg.Parallelism = 1
	scfg.Checkpoint = filepath.Join(dir, "seq.ckpt")
	seq, err := Run(scfg)
	if err != nil {
		t.Fatal(err)
	}
	pcfg := cfg
	pcfg.Parallelism = 4
	pcfg.Checkpoint = filepath.Join(dir, "par.ckpt")
	par, err := Run(pcfg)
	if err != nil {
		t.Fatal(err)
	}
	compareResults(t, seq, par)

	sb, err := os.ReadFile(scfg.Checkpoint)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := os.ReadFile(pcfg.Checkpoint)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sb, pb) {
		t.Error("checkpoint files differ between sequential and parallel runs")
	}

	// Kill a sequential run after one workload, resume it in parallel.
	killed := cfg
	killed.Parallelism = 1
	killed.Checkpoint = filepath.Join(dir, "mixed.ckpt")
	killed.haltAfter = 1
	if _, err := Run(killed); !errors.Is(err, errRunHalted) {
		t.Fatalf("halted run: err = %v, want errRunHalted", err)
	}
	resumed := cfg
	resumed.Parallelism = 4
	resumed.Checkpoint = killed.Checkpoint
	resumed.Resume = true
	mixed, err := Run(resumed)
	if err != nil {
		t.Fatal(err)
	}
	if mixed.Resumed != 1 {
		t.Errorf("resumed %d workloads, want 1", mixed.Resumed)
	}
	compareResults(t, seq, mixed)

	// And the reverse: kill a parallel run, resume sequentially.
	killedPar := cfg
	killedPar.Parallelism = 4
	killedPar.Checkpoint = filepath.Join(dir, "mixed2.ckpt")
	killedPar.haltAfter = 1
	if _, err := Run(killedPar); !errors.Is(err, errRunHalted) {
		t.Fatalf("halted parallel run: err = %v, want errRunHalted", err)
	}
	resumedSeq := cfg
	resumedSeq.Parallelism = 1
	resumedSeq.Checkpoint = killedPar.Checkpoint
	resumedSeq.Resume = true
	mixed2, err := Run(resumedSeq)
	if err != nil {
		t.Fatal(err)
	}
	compareResults(t, seq, mixed2)
}

// TestParallelFaultsWithCheckpoint combines everything order-sensitive
// at once: faults, checkpointing, and a parallel pool.
func TestParallelFaultsWithCheckpoint(t *testing.T) {
	dir := t.TempDir()
	cfg := RunConfig{
		Instructions: 1200,
		Workloads:    []WorkloadID{TimesharingA, TimesharingB, RTEScientific},
		Faults: &FaultConfig{
			Seed:    7,
			UPCDrop: 1e-4, UPCFlip: 1e-4,
		},
	}
	scfg := cfg
	scfg.Parallelism = 1
	scfg.Checkpoint = filepath.Join(dir, "seq.ckpt")
	seq, err := Run(scfg)
	if err != nil {
		t.Fatal(err)
	}
	pcfg := cfg
	pcfg.Parallelism = 2
	pcfg.Checkpoint = filepath.Join(dir, "par.ckpt")
	par, err := Run(pcfg)
	if err != nil {
		t.Fatal(err)
	}
	compareResults(t, seq, par)
	sb, _ := os.ReadFile(scfg.Checkpoint)
	pb, _ := os.ReadFile(pcfg.Checkpoint)
	if !bytes.Equal(sb, pb) {
		t.Error("checkpoint files differ under faults")
	}
}

// TestParallelErrorPrecedence: when a workload aborts, the parallel run
// reports the same (lowest-index) error the sequential run would, not
// whichever worker failed first on the wall clock.
func TestParallelErrorPrecedence(t *testing.T) {
	cfg := RunConfig{
		Instructions: 2500,
		Workloads:    AllWorkloads(),
		Faults: &FaultConfig{
			Seed: 3, MemParity: 0.01,
			MaxRetries: 1, RetryBackoff: 1,
		},
	}
	scfg := cfg
	scfg.Parallelism = 1
	_, seqErr := Run(scfg)
	pcfg := cfg
	pcfg.Parallelism = 4
	_, parErr := Run(pcfg)
	if (seqErr == nil) != (parErr == nil) {
		t.Fatalf("outcome differs: sequential err = %v, parallel err = %v", seqErr, parErr)
	}
	if seqErr == nil {
		t.Skip("fault rate produced no abort at this length; nothing to compare")
	}
	var smf, pmf *MachineFault
	if !errors.As(seqErr, &smf) || !errors.As(parErr, &pmf) {
		t.Fatalf("expected MachineFault from both: %v / %v", seqErr, parErr)
	}
	if smf.Workload != pmf.Workload || smf.UPC != pmf.UPC || smf.Cycle != pmf.Cycle {
		t.Errorf("fault identity differs:\nseq %+v\npar %+v", smf, pmf)
	}
	if seqErr.Error() != parErr.Error() {
		t.Errorf("error text differs:\nseq %s\npar %s", seqErr, parErr)
	}
}

// TestSharedFaultPlanGuard drives the pool engine directly with one
// plan wired to two jobs — the misuse the public API cannot produce —
// and expects the typed refusal.
func TestSharedFaultPlanGuard(t *testing.T) {
	cfg := RunConfig{
		Instructions: 1000,
		Workloads:    []WorkloadID{TimesharingA, TimesharingB},
		Parallelism:  2,
	}
	cfg.fill()
	s := &runState{cfg: cfg, composite: &upc.Histogram{}, res: &Results{cfg: cfg}}
	plan := faults.NewPlan(1, faults.Rates{UPCDrop: 1e-6})
	jobs := []wlJob{
		{idx: 0, id: TimesharingA, plan: plan},
		{idx: 1, id: TimesharingB, plan: plan},
	}
	err := s.runJobs(jobs)
	if !errors.Is(err, ErrSharedFaultPlan) {
		t.Fatalf("err = %v, want ErrSharedFaultPlan", err)
	}
	if want := TimesharingB.String(); !bytes.Contains([]byte(err.Error()), []byte(want)) {
		t.Errorf("error %q does not name the offending workload %s", err, want)
	}
}

// TestSweepMatchesIndividualRuns: a sweep point is an ordinary Run —
// sharing the trace cache with concurrent neighbours must not change a
// byte of its results.
func TestSweepMatchesIndividualRuns(t *testing.T) {
	mk := func(headway int) RunConfig {
		return RunConfig{
			Instructions:     1500,
			Workloads:        []WorkloadID{TimesharingA},
			CtxSwitchHeadway: headway,
		}
	}
	points := []SweepPoint{
		{Label: "fast-switch", Config: mk(700)},
		{Label: "paper", Config: mk(0)},
		{Label: "slow-switch", Config: mk(20000)},
		// Same shape as "paper": shares its cached trace.
		{Label: "paper-again", Config: mk(0)},
	}
	swept := Sweep(points, SweepOptions{Parallelism: 4})
	if len(swept) != len(points) {
		t.Fatalf("%d results for %d points", len(swept), len(points))
	}
	for i, r := range swept {
		if r.Label != points[i].Label {
			t.Errorf("result %d label %q, want %q (order must be input order)", i, r.Label, points[i].Label)
		}
		if r.Err != nil {
			t.Fatalf("point %q: %v", r.Label, r.Err)
		}
		solo, err := Run(points[i].Config)
		if err != nil {
			t.Fatal(err)
		}
		if *solo.Histogram() != *r.Results.Histogram() {
			t.Errorf("point %q: histogram differs from a solo Run", r.Label)
		}
		if solo.Report() != r.Results.Report() {
			t.Errorf("point %q: report differs from a solo Run", r.Label)
		}
	}
	if a, b := swept[1].Results, swept[3].Results; *a.Histogram() != *b.Histogram() {
		t.Error("identical design points disagree (trace cache not deterministic)")
	}
}

// TestSweepRejectsSingleRunState: telemetry sinks and checkpoint files
// are single-run state; attaching either to a sweep point is refused
// per point without failing the neighbours.
func TestSweepRejectsSingleRunState(t *testing.T) {
	good := RunConfig{Instructions: 1000, Workloads: []WorkloadID{TimesharingA}}
	withTel := good
	withTel.Telemetry = NewTelemetry(1000, 0)
	withCkpt := good
	withCkpt.Checkpoint = filepath.Join(t.TempDir(), "x.ckpt")

	swept := Sweep([]SweepPoint{
		{Label: "ok", Config: good},
		{Label: "tel", Config: withTel},
		{Label: "ckpt", Config: withCkpt},
	}, SweepOptions{})

	if swept[0].Err != nil || swept[0].Results == nil {
		t.Errorf("clean point failed: %v", swept[0].Err)
	}
	if swept[1].Err == nil {
		t.Error("telemetry point accepted; want error")
	}
	if swept[2].Err == nil {
		t.Error("checkpoint point accepted; want error")
	}
}
