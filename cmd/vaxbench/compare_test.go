package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeHistory(t *testing.T, dir, name string, results map[string]Result) string {
	t.Helper()
	h := History{Entries: []Entry{{Date: "2026-01-01", Label: "t", Results: results}}}
	data, err := json.Marshal(h)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompareResultsFlagsRegression(t *testing.T) {
	old := map[string]Result{
		"BenchmarkFaults/off": {NsPerOp: 1000},
		"BenchmarkProf/off":   {NsPerOp: 2000},
	}
	new := map[string]Result{
		"BenchmarkFaults/off": {NsPerOp: 1030}, // +3%: inside a 5% threshold
		"BenchmarkProf/off":   {NsPerOp: 2400}, // +20%: regression
	}
	deltas := compareResults(old, new, 5)
	if len(deltas) != 2 {
		t.Fatalf("deltas = %d, want 2", len(deltas))
	}
	// Sorted worst first.
	if deltas[0].name != "BenchmarkProf/off" || !deltas[0].regression {
		t.Fatalf("worst delta = %+v, want BenchmarkProf/off regression", deltas[0])
	}
	if deltas[1].regression {
		t.Fatalf("BenchmarkFaults/off at +3%% flagged as regression under 5%% threshold")
	}
}

func TestCompareResultsIgnoresDisjointBenchmarks(t *testing.T) {
	old := map[string]Result{"A": {NsPerOp: 100}, "OnlyOld": {NsPerOp: 5}}
	new := map[string]Result{"A": {NsPerOp: 90}, "OnlyNew": {NsPerOp: 5}}
	deltas := compareResults(old, new, 5)
	if len(deltas) != 1 || deltas[0].name != "A" {
		t.Fatalf("deltas = %+v, want only the shared benchmark", deltas)
	}
	if deltas[0].regression {
		t.Fatalf("an improvement flagged as regression")
	}
}

func TestRunCompareExitCodes(t *testing.T) {
	dir := t.TempDir()
	oldPath := writeHistory(t, dir, "old.json", map[string]Result{"B": {NsPerOp: 1000}})
	slow := writeHistory(t, dir, "slow.json", map[string]Result{"B": {NsPerOp: 1200}})
	same := writeHistory(t, dir, "same.json", map[string]Result{"B": {NsPerOp: 1010}})
	other := writeHistory(t, dir, "other.json", map[string]Result{"C": {NsPerOp: 1}})

	if code := runCompare(oldPath, same, 5, "", ""); code != 0 {
		t.Fatalf("clean compare exit = %d, want 0", code)
	}
	if code := runCompare(oldPath, slow, 5, "", ""); code != 1 {
		t.Fatalf("regressed compare exit = %d, want 1", code)
	}
	if code := runCompare(oldPath, other, 5, "", ""); code != 2 {
		t.Fatalf("disjoint compare exit = %d, want 2", code)
	}
	if code := runCompare(oldPath, filepath.Join(dir, "missing.json"), 5, "", ""); code != 1 {
		t.Fatalf("missing-file compare exit = %d, want 1", code)
	}
}

func TestLoadResultsSingleEntry(t *testing.T) {
	dir := t.TempDir()
	e := Entry{Results: map[string]Result{"X": {NsPerOp: 7}}}
	data, _ := json.Marshal(e)
	path := filepath.Join(dir, "entry.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := loadResults(path)
	if err != nil {
		t.Fatal(err)
	}
	if res["X"].NsPerOp != 7 {
		t.Fatalf("single-entry results = %+v", res)
	}
}

// TestLoadResultsLatestPerBenchmark: a ledger answers per benchmark, so
// a benchmark missing from the last entry still compares against the
// latest earlier entry that recorded it.
func TestLoadResultsLatestPerBenchmark(t *testing.T) {
	dir := t.TempDir()
	h := History{Entries: []Entry{
		{Label: "fusion", Results: map[string]Result{"X": {NsPerOp: 100}, "Y": {NsPerOp: 5}}},
		{Label: "hooks", Results: map[string]Result{"Y": {NsPerOp: 7}}},
	}}
	data, err := json.Marshal(h)
	if err != nil {
		t.Fatal(err)
	}
	ledger := filepath.Join(dir, "ledger.json")
	if err := os.WriteFile(ledger, data, 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := loadResults(ledger)
	if err != nil {
		t.Fatal(err)
	}
	if res["X"].NsPerOp != 100 || res["Y"].NsPerOp != 7 {
		t.Fatalf("per-benchmark latest = %+v, want X from the first entry and Y from the last", res)
	}
	head := writeHistory(t, dir, "head.json", map[string]Result{"X": {NsPerOp: 101}})
	if code := runCompare(ledger, head, 5, "", ""); code != 0 {
		t.Fatalf("compare of X against the ledger exit = %d, want 0", code)
	}
}

// TestProxyChangesExactAndUngated: a proxy change is listed with both
// exact values even when ns/op is flat, an unchanged or one-sided proxy
// is not, and no proxy change turns into a regression.
func TestProxyChangesExactAndUngated(t *testing.T) {
	f := func(v float64) *float64 { return &v }
	old := map[string]Result{
		"BenchmarkGenerate": {NsPerOp: 1000, BytesPerOp: f(8698823), AllocsPerOp: f(104691)},
		"BenchmarkSame":     {NsPerOp: 10, AllocsPerOp: f(3)},
		"BenchmarkOneSided": {NsPerOp: 10},
	}
	new := map[string]Result{
		"BenchmarkGenerate": {NsPerOp: 1000, BytesPerOp: f(4928290), AllocsPerOp: f(1223.5)},
		"BenchmarkSame":     {NsPerOp: 10, AllocsPerOp: f(3)},
		"BenchmarkOneSided": {NsPerOp: 10, AllocsPerOp: f(7)},
	}
	got := proxyChanges(old, new)
	if len(got) != 2 {
		t.Fatalf("proxy changes = %q, want BenchmarkGenerate's B/op and allocs/op only", got)
	}
	for i, want := range [][]string{{"8698823", "4928290", "B/op"}, {"104691", "1223.5", "allocs/op"}} {
		for _, w := range want {
			if !strings.Contains(got[i], w) {
				t.Fatalf("line %q lacks %q", got[i], w)
			}
		}
	}
	for _, d := range compareResults(old, new, 5) {
		if d.regression {
			t.Fatalf("%s flagged as a regression on proxies alone", d.name)
		}
	}
}

// TestCompareSamplesRoundTripLedger: an A/B keeps every round's ns/op,
// in round order, for both arms, and the samples survive the ledger
// entry's write and read back, so two sessions can be pooled.
func TestCompareSamplesRoundTripLedger(t *testing.T) {
	dir := t.TempDir()
	fakeArms(t, dir)
	ledger := filepath.Join(dir, "ledger.json")
	if code := runCompare(arm("old"), arm("new"), 5, ledger, "ab"); code != 0 {
		t.Fatalf("faster NEW arm exit = %d, want 0", code)
	}
	h, err := loadHistory(ledger)
	if err != nil {
		t.Fatal(err)
	}
	e := h.Entries[0]
	for _, side := range []struct {
		name string
		r    Result
		base float64
	}{
		{"results", e.Results["BenchmarkFake/new"], fakeNs["new"]},
		{"baseline", e.Baseline["BenchmarkFake/new"], fakeNs["old"]},
	} {
		var want []float64
		for k := 1; k <= abRounds; k++ {
			want = append(want, side.base+float64(k))
		}
		if fmt.Sprint(side.r.NsSamples) != fmt.Sprint(want) {
			t.Fatalf("%s samples = %v, want %v", side.name, side.r.NsSamples, want)
		}
		if got := iqr(side.r); got != "6" {
			t.Fatalf("%s quartile spread = %s, want 6 (q3 - q1 of twelve consecutive values)", side.name, got)
		}
	}
	loaded, err := loadResults(ledger)
	if err != nil {
		t.Fatal(err)
	}
	if got := loaded["BenchmarkFake/new"].NsSamples; len(got) != abRounds {
		t.Fatalf("loadResults kept %d samples, want %d", len(got), abRounds)
	}
	if iqr(Result{NsPerOp: 1}) != "-" {
		t.Fatal("a result without samples must print no spread")
	}
}
