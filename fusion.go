package vax780

// RunConfig wiring of the flow-fusion superword engine
// (internal/ufuse): resolve the run's plan once up front — the cached
// whole-ROM compile, or nil when the NoFusion escape hatch is set —
// and hand it to every workload machine. This is also where ulint's
// proven segmentation (via the shared cached flow index) is bridged
// to the dependency-light fusion compiler: the machine layers never
// see the analyzer. The plan itself is immutable and shared; enabling
// or disabling fusion never changes measured data (the determinism
// suite holds fused runs byte-identical to interpreted ones), which is
// why NoFusion does not participate in the checkpoint fingerprint.

import (
	"sync"

	"vax780/internal/ufuse"
	"vax780/internal/ulint"
	"vax780/internal/urom"
)

// fusibleSegments exports the ulint-proven fusible segments of rom in
// the fusion compiler's plain form, via the per-ROM cached flow index.
func fusibleSegments(rom *urom.ROM) []ufuse.Segment {
	var out []ufuse.Segment
	for _, f := range ulint.IndexFor(rom).Flows() {
		for _, s := range f.Segments {
			if s.Fusible {
				out = append(out, ufuse.Segment{Start: s.Start, Len: s.Len})
			}
		}
	}
	return out
}

// defaultPlanOnce memoizes the whole-ROM superword plan: the control
// store is assembled once and immutable, so one compile serves every
// run in the process.
var defaultPlanOnce struct {
	sync.Once
	plan *ufuse.Plan
	err  error
}

func defaultFusionPlan() (*ufuse.Plan, error) {
	defaultPlanOnce.Do(func() {
		rom := machineROM()
		defaultPlanOnce.plan, defaultPlanOnce.err = ufuse.Compile(rom, fusibleSegments(rom))
	})
	return defaultPlanOnce.plan, defaultPlanOnce.err
}

// fusionPlan resolves the run's superword plan.
func (c *RunConfig) fusionPlan() (*ufuse.Plan, error) {
	if c.NoFusion {
		return nil, nil
	}
	return defaultFusionPlan()
}

// FusionAudit compiles the default superword plan over the shipped
// microprogram and verifies it against the ulint segmentation: every
// superword must be exactly one segment the analyzer proved fusible,
// re-checked word by word against the fusion legality rules. It
// returns the number of audited superwords — the vaxlint gate prints
// it and fails the build on any error.
func FusionAudit() (int, error) {
	plan, err := defaultFusionPlan()
	if err != nil {
		return 0, err
	}
	rom := machineROM()
	if err := ufuse.Audit(plan, rom, fusibleSegments(rom)); err != nil {
		return 0, err
	}
	return plan.Superwords(), nil
}
