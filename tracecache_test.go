package vax780

// The shared trace cache must hand repeated runs of one workload shape
// the identical immutable trace (that is the perf win), keep distinct
// shapes distinct (that is correctness), and evict LRU-first under its
// bound (that is vaxd not hoarding memory).

import (
	"testing"

	"vax780/internal/workload"
)

// cachedTrace resolves id's trace through tc exactly as a run would.
func cachedTrace(t testing.TB, tc *traceCache, id WorkloadID, instr int) *workload.Trace {
	t.Helper()
	cfg := RunConfig{Instructions: instr}
	cfg.fill()
	p, err := id.profile(cfg.Instructions)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := tc.get(id, p, &cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// BenchmarkTraceCacheHit prices a warm lookup in the process-wide trace
// cache: what a run pays for its trace when the shape is cached, against
// internal/workload's BenchmarkGenerate when it is not.
func BenchmarkTraceCacheHit(b *testing.B) {
	cfg := RunConfig{Instructions: 50_000}
	cfg.fill()
	p, err := TimesharingA.profile(cfg.Instructions)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := sharedTraces.get(TimesharingA, p, &cfg); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sharedTraces.get(TimesharingA, p, &cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func TestTraceCacheReusesSameShape(t *testing.T) {
	tc := newTraceCache()
	a := cachedTrace(t, tc, TimesharingA, 300)
	b := cachedTrace(t, tc, TimesharingA, 300)
	if a != b {
		t.Error("same shape regenerated instead of reusing the cached trace")
	}
	if c := cachedTrace(t, tc, TimesharingA, 400); c == a {
		t.Error("different instruction count shared a trace")
	}
	if d := cachedTrace(t, tc, RTEScientific, 300); d == a {
		t.Error("different workload shared a trace")
	}
}

func TestTraceCacheEvictsLRU(t *testing.T) {
	tc := &traceCache{m: make(map[traceKey]*workload.Trace), cap: 2}
	a := cachedTrace(t, tc, TimesharingA, 300)
	cachedTrace(t, tc, TimesharingB, 300)
	// Touch A so B is now the least recently used, then overflow.
	cachedTrace(t, tc, TimesharingA, 300)
	cachedTrace(t, tc, RTEScientific, 300)
	if len(tc.m) != 2 {
		t.Fatalf("cache holds %d entries, cap is 2", len(tc.m))
	}
	if a2 := cachedTrace(t, tc, TimesharingA, 300); a2 != a {
		t.Error("recently used entry was evicted")
	}
}

// TestRunUsesSharedTraceCache: two plain runs of one shape resolve the
// identical trace object through the process-wide cache.
func TestRunUsesSharedTraceCache(t *testing.T) {
	cfg := RunConfig{Instructions: 300}
	cfg.fill()
	p, err := TimesharingA.profile(cfg.Instructions)
	if err != nil {
		t.Fatal(err)
	}
	a, err := cfg.trace(TimesharingA, p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := cfg.trace(TimesharingA, p)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("Run's trace resolution bypassed the shared cache")
	}
}
