package vax780

// Machine-readable lint report: the full static proof state of the
// shipped microprogram — findings and attribution coverage —
// serialized deterministically so CI can archive it as
// an artifact and diff it against the committed golden
// (vaxlint_golden.json). A diff means the shipped control store
// or an analyzer pass changed what is proven; both deserve a reviewed
// golden update, never a silent drift.

import (
	"encoding/json"
	"fmt"

	"vax780/internal/ulint"
)

// LintJSONFinding is one analyzer finding in the JSON report.
type LintJSONFinding struct {
	Pass     string `json:"pass"` // finding kind (the pass that emitted it)
	Addr     string `json:"addr"` // control-store address, octal
	Flow     string `json:"flow,omitempty"`
	Severity string `json:"severity"`
	Msg      string `json:"msg"`
}

// LintJSONReport is the report envelope. Field order is fixed by the
// struct (encoding/json preserves it), findings arrive in the
// analyzer's deterministic sort order, and no map participates — the
// bytes are reproducible run to run.
type LintJSONReport struct {
	Schema int `json:"schema"`

	Words             int `json:"words"`
	Reachable         int `json:"reachable"`
	TickableBuckets   int `json:"tickable_buckets"`
	AttributedBuckets int `json:"attributed_buckets"`

	Findings []LintJSONFinding `json:"findings"`
}

// lintJSONSchema versions the report shape; bump it when fields change
// meaning so a stale golden fails loudly instead of diffing confusingly.
const lintJSONSchema = 3

// buildLintJSON assembles the report from an analyzer run.
func buildLintJSON(rep *ulint.Report) *LintJSONReport {
	out := &LintJSONReport{
		Schema:            lintJSONSchema,
		Words:             rep.Words,
		Reachable:         rep.Reachable,
		TickableBuckets:   rep.TickableBuckets,
		AttributedBuckets: rep.AttributedBuckets,
		Findings:          []LintJSONFinding{}, // [] not null: stable goldens
	}
	for _, f := range rep.Findings {
		out.Findings = append(out.Findings, LintJSONFinding{
			Pass:     f.Kind.String(),
			Addr:     fmt.Sprintf("%05o", f.Addr),
			Flow:     f.Flow,
			Severity: f.Severity.String(),
			Msg:      f.Msg,
		})
	}
	return out
}

// LintJSON renders the shipped microprogram's full proof report as
// deterministic, newline-terminated, indented JSON.
func LintJSON() ([]byte, error) {
	b, err := json.MarshalIndent(buildLintJSON(LintControlStore()), "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
