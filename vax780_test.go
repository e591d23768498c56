package vax780

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"vax780/internal/machine"
	"vax780/internal/workload"
)

func TestRunDefaults(t *testing.T) {
	res, err := Run(RunConfig{Instructions: 6000})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerWorkload) != int(NumWorkloads) {
		t.Errorf("ran %d workloads, want %d", len(res.PerWorkload), NumWorkloads)
	}
	if res.Instructions() < 5*6000 {
		t.Errorf("composite instructions = %d", res.Instructions())
	}
	if cpi := res.CPI(); cpi < 7 || cpi > 15 {
		t.Errorf("CPI = %.2f", cpi)
	}
	if !strings.Contains(res.Report(), "Table 8") {
		t.Error("report missing Table 8")
	}
	if !strings.Contains(res.BlockDiagram(), "EBOX") {
		t.Error("block diagram missing EBOX")
	}
}

func TestRunSingleWorkload(t *testing.T) {
	res, err := Run(RunConfig{
		Instructions: 25000,
		Workloads:    []WorkloadID{RTEScientific},
		Strict:       true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerWorkload) != 1 || res.PerWorkload[0].Workload != RTEScientific {
		t.Errorf("per-workload results wrong: %+v", res.PerWorkload)
	}
	groups := res.OpcodeGroups()
	if len(groups) == 0 {
		t.Fatal("no group frequencies")
	}
	var float float64
	for _, g := range groups {
		if g.Group == "FLOAT" {
			float = g.Percent
		}
	}
	if float < 3 {
		t.Errorf("scientific workload FLOAT = %.1f%%, expected elevated", float)
	}
}

// TestStrictMatchesRecordDispatch: the EBOX dispatches from the trace
// record, and Strict only adds the IB decode as its oracle, so a Strict
// composite must count exactly the cycles of a plain one.
func TestStrictMatchesRecordDispatch(t *testing.T) {
	plain, err := Run(RunConfig{Instructions: 50_000, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	strict, err := Run(RunConfig{Instructions: 50_000, Parallelism: 1, Strict: true})
	if err != nil {
		t.Fatal(err)
	}
	if *plain.Histogram() != *strict.Histogram() {
		t.Error("Strict changed the composite histogram")
	}
	if !reflect.DeepEqual(plain.PerWorkload, strict.PerWorkload) {
		t.Errorf("Strict changed the per-workload rows:\nplain  %+v\nstrict %+v",
			plain.PerWorkload, strict.PerWorkload)
	}
}

func TestRunAccessors(t *testing.T) {
	res, err := Run(RunConfig{Instructions: 5000, Workloads: []WorkloadID{TimesharingA}})
	if err != nil {
		t.Fatal(err)
	}
	if rows := res.CPIRows(); len(rows) != 14 {
		t.Errorf("CPI rows = %d, want 14", len(rows))
	}
	if cols := res.CycleClasses(); len(cols) != 6 {
		t.Errorf("cycle classes = %d, want 6", len(cols))
	}
	tb := res.TBMiss()
	if tb.MissesPerInstr <= 0 || tb.CyclesPerMiss <= 0 {
		t.Errorf("TB stats empty: %+v", tb)
	}
	cs := res.CacheStudy()
	if cs.IBRefsPerInstr <= 0 {
		t.Errorf("cache study empty: %+v", cs)
	}
	pct, taken := res.PCChangingPercent()
	if pct < 25 || pct > 50 || taken < 50 || taken > 85 {
		t.Errorf("PC-changing %.1f%%/%.1f%%", pct, taken)
	}
	if b := res.AverageInstructionBytes(); b < 3 || b > 5 {
		t.Errorf("avg instruction bytes = %.2f", b)
	}
	if _, ints, _ := res.Headways(); ints < 300 || ints > 1500 {
		t.Errorf("interrupt headway = %.0f", ints)
	}
	if pg := res.PerGroupCycles(); pg["CALL/RET"] < 15 {
		t.Errorf("per-group CALL/RET = %.1f", pg["CALL/RET"])
	}
	if res.Histogram().TotalCycles() == 0 {
		t.Error("histogram empty")
	}
}

func TestWorkloadNames(t *testing.T) {
	for _, id := range AllWorkloads() {
		got, err := WorkloadByName(id.String())
		if err != nil || got != id {
			t.Errorf("round trip %v: %v %v", id, got, err)
		}
	}
	if _, err := WorkloadByName("NOPE"); err == nil {
		t.Error("unknown name should fail")
	}
	if WorkloadID(99).String() == "" {
		t.Error("out-of-range name empty")
	}
}

func TestHardwareOverrides(t *testing.T) {
	// A tiny cache must increase CPI.
	big, err := Run(RunConfig{Instructions: 8000, Workloads: []WorkloadID{TimesharingA}})
	if err != nil {
		t.Fatal(err)
	}
	small, err := Run(RunConfig{
		Instructions: 8000,
		Workloads:    []WorkloadID{TimesharingA},
		CacheBytes:   1 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if small.CPI() <= big.CPI() {
		t.Errorf("1KB cache CPI %.2f should exceed 8KB cache CPI %.2f",
			small.CPI(), big.CPI())
	}
}

// hardwareCase is one out-of-range hardware override.
type hardwareCase struct {
	field string
	set   func(*RunConfig)
}

// assertHardwareRejected runs each override and requires Run to refuse
// it with an error naming the field before any work starts — never a
// panic or a meaningless CPI.
func assertHardwareRejected(t *testing.T, cases []hardwareCase) {
	t.Helper()
	for _, c := range cases {
		t.Run(c.field, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("Run panicked: %v", r)
				}
			}()
			cfg := RunConfig{Instructions: 200, Workloads: []WorkloadID{TimesharingA}}
			c.set(&cfg)
			if _, err := Run(cfg); err == nil {
				t.Fatal("Run accepted an out-of-range override")
			} else if !strings.Contains(err.Error(), c.field) {
				t.Fatalf("error %q does not name %s", err, c.field)
			}
		})
	}
}

// TestNegativeHardwareRejected: a negative hardware override is an
// error before any work starts.
func TestNegativeHardwareRejected(t *testing.T) {
	assertHardwareRejected(t, []hardwareCase{
		{"CacheBytes", func(c *RunConfig) { c.CacheBytes = -8192 }},
		{"CacheWays", func(c *RunConfig) { c.CacheWays = -2 }},
		{"TBEntries", func(c *RunConfig) { c.TBEntries = -128 }},
		{"MissLatency", func(c *RunConfig) { c.MissLatency = -6 }},
		{"WriteBusy", func(c *RunConfig) { c.WriteBusy = -6 }},
		{"CtxSwitchHeadway", func(c *RunConfig) { c.CtxSwitchHeadway = -1 }},
	})
}

// TestOversizedHardwareRejected: an override far past any real design
// point is an error before any work starts. Unchecked, the cache and TB
// constructors overflow (CacheWays 1<<61 divides by zero) or fail to
// allocate (TBEntries 1<<62), a latency near the int range stalls
// one simulated cycle at a time without end, and an instruction count
// near the int range panics sizing the trace.
func TestOversizedHardwareRejected(t *testing.T) {
	assertHardwareRejected(t, []hardwareCase{
		{"Instructions", func(c *RunConfig) { c.Instructions = 1 << 60 }},
		{"CacheBytes", func(c *RunConfig) { c.CacheBytes = 1 << 40 }},
		{"CacheWays", func(c *RunConfig) { c.CacheWays = 1 << 61 }},
		{"TBEntries", func(c *RunConfig) { c.TBEntries = 1 << 62 }},
		{"MissLatency", func(c *RunConfig) { c.MissLatency = 1 << 62 }},
		{"WriteBusy", func(c *RunConfig) { c.WriteBusy = 1 << 62 }},
	})
}

// TestInexactGeometryRejected: a cache or TB size the model cannot
// build exactly is an error; unchecked, it used to simulate a rounded
// size under the requested name.
func TestInexactGeometryRejected(t *testing.T) {
	assertHardwareRejected(t, []hardwareCase{
		{"CacheBytes", func(c *RunConfig) { c.CacheBytes, c.CacheWays = 1024, 256 }},
		{"CacheBytes", func(c *RunConfig) { c.CacheWays = 3 }},
		{"CacheBytes", func(c *RunConfig) { c.CacheBytes = 8200 }},
		{"TBEntries", func(c *RunConfig) { c.TBEntries = 1 }},
		{"TBEntries", func(c *RunConfig) { c.TBEntries = 2 }},
		{"TBEntries", func(c *RunConfig) { c.TBEntries = 129 }},
	})
}

// TestGeometryMatchesDescribe: over a grid of cache and TB overrides,
// Validate accepts exactly the configurations whose built geometry is
// the requested one, and the block diagram prints that geometry.
func TestGeometryMatchesDescribe(t *testing.T) {
	accepted := 0
	for _, bytes := range []int{0, 16, 24, 1000, 1024, 1536, 2048, 6 << 10, 8 << 10, 24 << 10, 1 << 20} {
		for _, ways := range []int{0, 1, 2, 3, 4, 5, 256} {
			for _, entries := range []int{0, 1, 2, 4, 6, 12, 64, 128, 129, 130} {
				cfg := RunConfig{CacheBytes: bytes, CacheWays: ways, TBEntries: entries}
				want := cfg.memConfig().WithDefaults()
				m := machine.New(machine.Config{Mem: cfg.memConfig()}, workload.NewProgram())
				gotBytes, gotEntries := m.Mem.Geometry()
				exact := gotBytes == want.CacheBytes && gotEntries == want.TBEntries
				err := cfg.Validate()
				if (err == nil) != exact {
					t.Fatalf("%+v: Validate = %v, but built %d bytes / %d entries for %d / %d",
						cfg, err, gotBytes, gotEntries, want.CacheBytes, want.TBEntries)
				}
				if err != nil {
					continue
				}
				accepted++
				size := fmt.Sprintf("%d KB", gotBytes>>10)
				if gotBytes%1024 != 0 {
					size = fmt.Sprintf("%d bytes", gotBytes)
				}
				d := m.Describe()
				for _, line := range []string{
					fmt.Sprintf("Translation Buffer: %d entries, %d-way", gotEntries, want.TBWays),
					fmt.Sprintf("Cache: %s, %d-way, %d-byte blocks", size, want.CacheWays, want.CacheBlock),
				} {
					if !strings.Contains(d, line) {
						t.Fatalf("%+v: block diagram lacks %q:\n%s", cfg, line, d)
					}
				}
			}
		}
	}
	if accepted < 50 {
		t.Errorf("only %d configurations accepted; the grid is too narrow", accepted)
	}
}

func TestCtxSwitchHeadwaySweepChangesTBMisses(t *testing.T) {
	frequent, err := Run(RunConfig{
		Instructions: 40000, Workloads: []WorkloadID{TimesharingA},
		CtxSwitchHeadway: 200,
	})
	if err != nil {
		t.Fatal(err)
	}
	rare, err := Run(RunConfig{
		Instructions: 40000, Workloads: []WorkloadID{TimesharingA},
		CtxSwitchHeadway: 400000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if frequent.TBMiss().MissesPerInstr <= rare.TBMiss().MissesPerInstr {
		t.Errorf("frequent switching TB misses %.4f should exceed rare %.4f",
			frequent.TBMiss().MissesPerInstr, rare.TBMiss().MissesPerInstr)
	}
}

func TestCompareTraceDriven(t *testing.T) {
	cmp, err := CompareTraceDriven(TimesharingA, 10000)
	if err != nil {
		t.Fatal(err)
	}
	if cmp.EstimatedCPI >= cmp.MeasuredCPI {
		t.Errorf("trace-driven %.2f should underestimate measured %.2f",
			cmp.EstimatedCPI, cmp.MeasuredCPI)
	}
	if cmp.InvisibleFraction < 0.1 {
		t.Errorf("invisible fraction %.2f suspiciously small", cmp.InvisibleFraction)
	}
	if cmp.SkippedEvents == 0 {
		t.Error("no skipped interrupt deliveries")
	}
}

func TestDiagnostics(t *testing.T) {
	if !strings.Contains(BlockDiagram(), "Translation Buffer") {
		t.Error("block diagram incomplete")
	}
	l := ControlStoreListing()
	if !strings.Contains(l, "ird") || !strings.Contains(l, "tbmiss") {
		t.Error("control store listing incomplete")
	}
	s := ControlStoreSummary()
	for _, want := range []string{"Decode", "Spec1", "Mem Mgmt", "microwords"} {
		if !strings.Contains(s, want) {
			t.Errorf("summary missing %q", want)
		}
	}
}

func TestGroupNames(t *testing.T) {
	names := GroupNames()
	if len(names) != 7 || names[0] != "SIMPLE" || names[6] != "DECIMAL" {
		t.Errorf("GroupNames = %v", names)
	}
}

func TestWorkloadComparison(t *testing.T) {
	res, err := Run(RunConfig{Instructions: 5000})
	if err != nil {
		t.Fatal(err)
	}
	cmp := res.WorkloadComparison()
	for _, want := range []string{"TIMESHARING-A", "RTE-COM", "CPI", "FLOAT %", "TB miss/instr"} {
		if !strings.Contains(cmp, want) {
			t.Errorf("comparison missing %q", want)
		}
	}
	// A custom run (no per-workload histograms) renders empty.
	cres, err := RunCustom(CustomWorkload{Seed: 2}, 3000)
	if err != nil {
		t.Fatal(err)
	}
	if cres.WorkloadComparison() != "" {
		t.Error("custom run should have no comparison")
	}
}

func TestVerifyMicrocodeClean(t *testing.T) {
	if issues := VerifyMicrocode(); len(issues) != 0 {
		t.Errorf("microcode verifier found issues: %v", issues)
	}
}
