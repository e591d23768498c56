package vax780

import (
	"os"
	"testing"
)

// TestLintJSONMatchesGolden regenerates the machine-readable proof
// report and diffs it byte for byte against the committed golden. CI
// archives the regenerated report as an artifact and gates on this
// test: any change to what the analyzer proves about the shipped
// control store — coverage counts and findings — must arrive as a reviewed golden update.
//
// To refresh after an intentional change:
//
//	go run ./cmd/vaxlint -json > vaxlint_golden.json
func TestLintJSONMatchesGolden(t *testing.T) {
	got, err := LintJSON()
	if err != nil {
		t.Fatalf("LintJSON: %v", err)
	}
	want, err := os.ReadFile("vaxlint_golden.json")
	if err != nil {
		t.Fatalf("reading golden: %v", err)
	}
	if string(got) != string(want) {
		t.Fatalf("lint JSON report drifted from vaxlint_golden.json\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestLintJSONDeterministic pins the property the golden diff depends
// on: two renders in one process are byte-identical.
func TestLintJSONDeterministic(t *testing.T) {
	a, err := LintJSON()
	if err != nil {
		t.Fatal(err)
	}
	b, err := LintJSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatal("LintJSON output is not deterministic")
	}
}
