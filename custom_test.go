package vax780

import (
	"bytes"
	"strings"
	"testing"
)

func TestRunCustomScalesContent(t *testing.T) {
	res, err := RunCustom(CustomWorkload{
		Name: "DECIMAL-HEAVY", Seed: 3, DecimalScale: 40, FloatScale: 0.1,
	}, 15000)
	if err != nil {
		t.Fatal(err)
	}
	var decimal, float float64
	for _, g := range res.OpcodeGroups() {
		switch g.Group {
		case "DECIMAL":
			decimal = g.Percent
		case "FLOAT":
			float = g.Percent
		}
	}
	if decimal < 0.5 {
		t.Errorf("DECIMAL = %.2f%%, scaling x40 had no effect", decimal)
	}
	if float > 1.5 {
		t.Errorf("FLOAT = %.2f%%, scaling x0.1 had no effect", float)
	}
	if res.CPI() < 7 || res.CPI() > 18 {
		t.Errorf("CPI = %.2f", res.CPI())
	}
}

// TestRunCustomRejectsOversizedCount: RunCustom checks the count
// against the same bound as Run before it sizes a trace.
func TestRunCustomRejectsOversizedCount(t *testing.T) {
	if _, err := RunCustom(CustomWorkload{Seed: 1}, 1<<60); err == nil || !strings.Contains(err.Error(), "Instructions") {
		t.Fatalf("RunCustom(1<<60): err %v, want an Instructions bound error", err)
	}
}

func TestRunCustomDefaultsMatchComposite(t *testing.T) {
	res, err := RunCustom(CustomWorkload{Seed: 5}, 15000)
	if err != nil {
		t.Fatal(err)
	}
	if res.CPI() < 9 || res.CPI() > 12.5 {
		t.Errorf("unscaled custom CPI = %.2f, want near 10.6", res.CPI())
	}
}

func TestIdleFractionBiasesStatistics(t *testing.T) {
	// The paper excluded the VMS Null process because it "would bias all
	// per-instruction statistics in proportion to the idleness of the
	// system" (§2.2). Verify the bias: more idle → lower CPI, more SIMPLE.
	busy, err := RunCustom(CustomWorkload{Seed: 9}, 15000)
	if err != nil {
		t.Fatal(err)
	}
	idle, err := RunCustom(CustomWorkload{Seed: 9, IdleFraction: 0.6}, 15000)
	if err != nil {
		t.Fatal(err)
	}
	if idle.CPI() >= busy.CPI() {
		t.Errorf("idle CPI %.2f should be below busy CPI %.2f", idle.CPI(), busy.CPI())
	}
	simple := func(r *Results) float64 {
		for _, g := range r.OpcodeGroups() {
			if g.Group == "SIMPLE" {
				return g.Percent
			}
		}
		return 0
	}
	if simple(idle) <= simple(busy) {
		t.Errorf("idle SIMPLE %.1f%% should exceed busy %.1f%%", simple(idle), simple(busy))
	}
	// PC-changing share balloons with branch-to-self spinning.
	pcIdle, _ := idle.PCChangingPercent()
	pcBusy, _ := busy.PCChangingPercent()
	if pcIdle <= pcBusy {
		t.Errorf("idle PC-changing %.1f%% should exceed busy %.1f%%", pcIdle, pcBusy)
	}
}

func TestHotSpots(t *testing.T) {
	res, err := Run(RunConfig{Instructions: 6000, Workloads: []WorkloadID{TimesharingA}})
	if err != nil {
		t.Fatal(err)
	}
	hs := res.HotSpots(10)
	if len(hs) != 10 {
		t.Fatalf("got %d hot spots", len(hs))
	}
	// Ranked descending.
	for i := 1; i < len(hs); i++ {
		if hs[i].Cycles > hs[i-1].Cycles {
			t.Errorf("hot spots not sorted: %d before %d", hs[i-1].Cycles, hs[i].Cycles)
		}
	}
	// The IRD location is the single most-executed non-stall location;
	// it must be near the top with the label "ird".
	foundIRD := false
	for _, h := range hs {
		if h.Label == "ird" {
			foundIRD = true
			if h.Cycles < res.Instructions() {
				t.Errorf("ird cycles %d < instructions %d", h.Cycles, res.Instructions())
			}
		}
		if h.Label == "" {
			t.Error("hot spot with empty label")
		}
		if h.Region == "" || strings.HasPrefix(h.Region, "Region(") {
			t.Errorf("bad region %q", h.Region)
		}
	}
	if !foundIRD {
		t.Error("ird not among the top 10 hot spots")
	}
	// Asking for more than exist returns all.
	all := res.HotSpots(0)
	if len(all) < 100 {
		t.Errorf("only %d populated locations", len(all))
	}
}

// TestRunIntervalsPublic: the public interval path is a Telemetry with
// an interval period attached to Run; its rows give a within-run CPI
// series around the paper's composite, and a zero period records none.
func TestRunIntervalsPublic(t *testing.T) {
	tel := NewTelemetry(30000, 0)
	res, err := Run(RunConfig{Instructions: 12000, Workloads: []WorkloadID{TimesharingA}, Telemetry: tel})
	if err != nil {
		t.Fatal(err)
	}
	rows := tel.IntervalRows()
	if len(rows) < 3 {
		t.Fatalf("only %d interval rows", len(rows))
	}
	var sum, minCPI, maxCPI float64
	var instrs uint64
	for i, r := range rows {
		instrs += r.Instructions
		sum += r.CPI
		if i == 0 || r.CPI < minCPI {
			minCPI = r.CPI
		}
		if r.CPI > maxCPI {
			maxCPI = r.CPI
		}
	}
	if mean := sum / float64(len(rows)); mean < 7 || mean > 15 {
		t.Errorf("mean CPI = %.2f", mean)
	}
	if minCPI > maxCPI {
		t.Error("min > max")
	}
	if instrs != res.Instructions() {
		t.Errorf("row instruction sum = %d, run = %d", instrs, res.Instructions())
	}

	off := NewTelemetry(0, 0)
	if _, err := Run(RunConfig{Instructions: 1000, Workloads: []WorkloadID{TimesharingA}, Telemetry: off}); err != nil {
		t.Fatal(err)
	}
	if rows := off.IntervalRows(); len(rows) != 0 {
		t.Errorf("zero interval period recorded %d rows", len(rows))
	}
}

func TestSaveLoadHistogram(t *testing.T) {
	res, err := Run(RunConfig{Instructions: 4000, Workloads: []WorkloadID{TimesharingA}})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.SaveHistogram(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadHistogram(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Instructions() != res.Instructions() {
		t.Errorf("loaded %d instructions, saved %d", loaded.Instructions(), res.Instructions())
	}
	if loaded.CPI() != res.CPI() {
		t.Errorf("loaded CPI %.4f != saved %.4f", loaded.CPI(), res.CPI())
	}
	// The §4 cache study needs hardware counters, which a dump lacks.
	if cs := loaded.CacheStudy(); cs.IBRefsPerInstr != 0 {
		t.Error("dump-backed results should have no cache study")
	}
	if !strings.Contains(loaded.Report(), "Table 8") {
		t.Error("dump-backed report incomplete")
	}
}

func TestMergeHistograms(t *testing.T) {
	a, err := Run(RunConfig{Instructions: 3000, Workloads: []WorkloadID{TimesharingA}})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(RunConfig{Instructions: 3000, Workloads: []WorkloadID{RTECommercial}})
	if err != nil {
		t.Fatal(err)
	}
	var bufA, bufB bytes.Buffer
	if err := a.SaveHistogram(&bufA); err != nil {
		t.Fatal(err)
	}
	if err := b.SaveHistogram(&bufB); err != nil {
		t.Fatal(err)
	}
	merged, err := MergeHistograms(&bufA, &bufB)
	if err != nil {
		t.Fatal(err)
	}
	if merged.Instructions() != a.Instructions()+b.Instructions() {
		t.Errorf("merged %d != %d + %d",
			merged.Instructions(), a.Instructions(), b.Instructions())
	}
}

func TestCacheStudyPublic(t *testing.T) {
	res, err := CacheStudy(TimesharingA, 8000, Study780Configs())
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(Study780Configs()) {
		t.Fatalf("got %d results", len(res))
	}
	// Find the production point and a smaller cache; the smaller one
	// must miss more.
	var prod, small float64
	for _, r := range res {
		switch r.Config.Name {
		case "8KB/2way/8B":
			prod = r.ReadMissRatio
		case "1KB/2way/8B":
			small = r.ReadMissRatio
		}
	}
	if small <= prod {
		t.Errorf("1KB (%.4f) should miss more than 8KB (%.4f)", small, prod)
	}
}

func TestTBStudyPublic(t *testing.T) {
	res, err := TBStudy(TimesharingA, 8000, StudyTBConfigs())
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(StudyTBConfigs()) {
		t.Fatalf("got %d results", len(res))
	}
	var small, big float64
	for _, r := range res {
		if r.Probes == 0 {
			t.Errorf("%s: no probes", r.Config.Name)
		}
		switch r.Config.Name {
		case "64e/2way":
			small = r.MissRatio
		case "512e/2way":
			big = r.MissRatio
		}
	}
	if big >= small {
		t.Errorf("512-entry TB (%.4f) should miss less than 64-entry (%.4f)", big, small)
	}
}
