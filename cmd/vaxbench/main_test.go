package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestParseBenchMedians: repetition lines reduce to medians, the
// GOMAXPROCS suffix strips from names, sim_cycles/op produces the
// derived ns-per-sim-cycle, and non-benchmark noise is skipped.
func TestParseBenchMedians(t *testing.T) {
	out := `goos: linux
goarch: amd64
pkg: vax780
BenchmarkFaults/off-8            100   6000000 ns/op   100000 sim_cycles/op
BenchmarkFaults/off-8            100   6600000 ns/op   100000 sim_cycles/op
BenchmarkFaults/off-8            100   6300000 ns/op   100000 sim_cycles/op
BenchmarkAlloc-8                 500      2000 ns/op      3 allocs/op
PASS
ok  	vax780	1.234s
`
	results, err := parseBench(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2: %+v", len(results), results)
	}

	r, ok := results["BenchmarkFaults/off"]
	if !ok {
		t.Fatal("GOMAXPROCS suffix not stripped from BenchmarkFaults/off-8")
	}
	if r.NsPerOp != 6300000 || r.Runs != 3 {
		t.Errorf("median = %v over %d runs, want 6300000 over 3", r.NsPerOp, r.Runs)
	}
	if math.Abs(r.NsPerSimCycle-63.0) > 1e-9 {
		t.Errorf("ns_per_sim_cycle = %v, want 63.0", r.NsPerSimCycle)
	}

	a := results["BenchmarkAlloc"]
	if a.NsPerOp != 2000 || a.NsPerSimCycle != 0 {
		t.Errorf("no-cycles benchmark = %+v, want bare ns/op", a)
	}
	if r.BytesPerOp != nil || r.AllocsPerOp != nil {
		t.Errorf("BenchmarkFaults/off without -benchmem got proxies %v %v", r.BytesPerOp, r.AllocsPerOp)
	}
}

// TestParseBenchProxies: -benchmem's B/op and allocs/op reduce to
// medians, a zero count included, and stay absent from the JSON of a
// result without them, so ledgers written before the proxies load and
// re-save unchanged.
func TestParseBenchProxies(t *testing.T) {
	out := `BenchmarkGenerate-2   10   14000000 ns/op   0.024 allocs/instr   4928290 B/op   1223 allocs/op
BenchmarkGenerate-2   10   15000000 ns/op   0.024 allocs/instr   4928300 B/op   1225 allocs/op
BenchmarkGenerate-2   10   16000000 ns/op   0.024 allocs/instr   4928310 B/op   1224 allocs/op
BenchmarkTraceCacheHit-2   1000   72 ns/op   0 B/op   0 allocs/op
`
	results, err := parseBench(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	g := results["BenchmarkGenerate"]
	if g.BytesPerOp == nil || *g.BytesPerOp != 4928300 || g.AllocsPerOp == nil || *g.AllocsPerOp != 1224 {
		t.Fatalf("BenchmarkGenerate proxies = %v %v, want medians 4928300 B/op, 1224 allocs/op", g.BytesPerOp, g.AllocsPerOp)
	}
	h := results["BenchmarkTraceCacheHit"]
	if h.AllocsPerOp == nil || *h.AllocsPerOp != 0 {
		t.Fatalf("a zero allocs/op must be recorded, got %v", h.AllocsPerOp)
	}
	enc, err := json.Marshal(Result{NsPerOp: 5, Runs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if string(enc) != `{"ns_per_op":5,"runs":1}` {
		t.Fatalf("proxy-free result encodes as %s", enc)
	}
}

// TestMedianEvenCount: even repetition counts average the middle pair.
func TestMedianEvenCount(t *testing.T) {
	if got := median([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("median(1,2,3,4) = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median(nil) = %v, want 0", got)
	}
}

// TestHistoryRoundTrip: loading the committed BENCH_history.json and
// saving it again keeps every entry's keys and values, so appending an
// entry never rewrites the entries already recorded.
func TestHistoryRoundTrip(t *testing.T) {
	const committed = "../../BENCH_history.json"
	h, err := loadHistory(committed)
	if err != nil {
		t.Fatal(err)
	}
	saved := filepath.Join(t.TempDir(), "history.json")
	if err := saveHistory(saved, h); err != nil {
		t.Fatal(err)
	}
	entries := func(path string) []map[string]any {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var doc struct{ Entries []map[string]any }
		if err := json.Unmarshal(data, &doc); err != nil {
			t.Fatal(err)
		}
		return doc.Entries
	}
	want, got := entries(committed), entries(saved)
	if len(got) != len(want) {
		t.Fatalf("round trip kept %d entries, want %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("entry %d (%v) changed:\n got %v\nwant %v", i, want[i]["label"], got[i], want[i])
		}
	}
}
