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
	"fmt"
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

// EffectsAuditReport is the result of the effect-summary audit over the
// shipped microprogram, printed by vaxlint -effects.
type EffectsAuditReport struct {
	// FusibleSegments / SummarizedEffects are the analyzer's coverage
	// counts: the -effects gate requires them equal (a proven summary
	// for 100% of fusible segments).
	FusibleSegments   int
	SummarizedEffects int
	// Superwords is the number of compiled superwords whose replay
	// stream was cross-checked against its summary.
	Superwords int
	// ReturnEdges / FusibleReturnEdges count the cross-flow uret fusion
	// edges and how many land on a superword head (chainable returns).
	ReturnEdges        int
	FusibleReturnEdges int
}

// FusionEffectsAudit runs the effect-summary gate over the shipped
// microprogram: the analyzer must have derived a proven EffectSummary
// for every fusible segment, the compiled plan's every superword must
// carry one, and each summary's micro-PC trajectory must equal the
// replay stream ufuse derives independently from the image. It also
// checks the return-site fusion edges: every edge marked fusible must
// land on a compiled superword head. Any failure means the fused
// executor could feed the measurement hooks a stream the analyzer did
// not prove — vaxlint fails the build on it.
func FusionEffectsAudit() (EffectsAuditReport, error) {
	var rep EffectsAuditReport
	plan, err := defaultFusionPlan()
	if err != nil {
		return rep, err
	}
	rom := machineROM()
	lint := LintControlStore()
	rep.FusibleSegments = lint.FusibleSegments
	rep.SummarizedEffects = lint.SummarizedEffects
	if rep.SummarizedEffects != rep.FusibleSegments {
		return rep, fmt.Errorf("effects: %d of %d fusible segments have a proven summary",
			rep.SummarizedEffects, rep.FusibleSegments)
	}
	sums := make([]ufuse.Summary, 0, len(lint.Effects))
	for _, s := range lint.Effects {
		sums = append(sums, ufuse.Summary{Start: s.Start, Len: s.Len, UPCs: s.UPCs})
	}
	if err := ufuse.AuditEffects(plan, rom, sums); err != nil {
		return rep, err
	}
	rep.Superwords = plan.Superwords()
	for _, e := range lint.URetEdges {
		rep.ReturnEdges++
		if e.Fusible {
			rep.FusibleReturnEdges++
			if plan.Len(e.To) == 0 {
				return rep, fmt.Errorf("effects: return edge %05o->%05o marked fusible but %05o heads no superword",
					e.From, e.To, e.To)
			}
		}
	}
	return rep, nil
}
