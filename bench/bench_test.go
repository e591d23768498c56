package main

import (
	"math"
	"path/filepath"
	"slices"
	"sort"
	"testing"

	"vax780/internal/jobs"
)

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{7}, 7},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
}

// ramp returns n, n-1, ..., 1: percentile must sort a copy to read it.
func ramp(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i)
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	xs := ramp(200)
	for _, c := range []struct {
		p    float64
		want float64
	}{{0.5, 100}, {0.9, 180}, {0.95, 190}, {0.01, 2}} {
		if got, _ := percentile(xs, c.p); got != c.want {
			t.Errorf("p%v of 1..200 = %v, want %v", c.p*100, got, c.want)
		}
	}
	if xs[0] != 200 {
		t.Error("percentile reordered its input")
	}
}

// TestPercentileTailRule pins the reporting rule: a percentile is only
// reported with at least minBeyond samples above it.
func TestPercentileTailRule(t *testing.T) {
	for _, c := range []struct {
		n  int
		p  float64
		ok bool
	}{
		{100, 0.9, true}, {99, 0.9, false}, {110, 0.9, true},
		{20, 0.5, true}, {19, 0.5, false},
		{200, 0.95, true}, {199, 0.95, false},
	} {
		if _, ok := percentile(ramp(c.n), c.p); ok != c.ok {
			t.Errorf("n=%d p=%v: ok=%v, want %v", c.n, c.p, ok, c.ok)
		}
	}
	if got := minSamples(0.9); got != 100 {
		t.Errorf("minSamples(0.9) = %d, want 100", got)
	}
	if !math.IsNaN(tail(ramp(50), 0.9)) {
		t.Error("tail must refuse a p90 with 5 samples beyond it")
	}
	if got := tail(ramp(100), 0.9); got != 90 {
		t.Errorf("tail(1..100, 0.9) = %v, want 90", got)
	}
}

func TestSelfTimeSubtractsChildCoverage(t *testing.T) {
	tr := &tracer{}
	root := tr.add(0, 0, "op", 0, 100)
	tr.add(0, root, "a", 10, 30)
	tr.add(0, root, "b", 20, 50) // overlaps a: the union counts once
	tr.add(0, root, "c", 90, 120)
	tr.finish()
	for name, want := range map[string]float64{"op": 100 - 40 - 10, "a": 20, "b": 30, "c": 30} {
		if got := tr.self(name)[0]; got != want {
			t.Errorf("self(%s) = %v, want %v", name, got, want)
		}
	}
}

func TestBenchmarkJSONConsistent(t *testing.T) {
	sp, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.EndToEnd) > 16 || len(sp.PerLayer) > 128 || len(sp.Workloads) < 2 || len(sp.Workloads) > 8 {
		t.Errorf("counts out of range: %d end-to-end, %d per-layer, %d workloads",
			len(sp.EndToEnd), len(sp.PerLayer), len(sp.Workloads))
	}
	layer := make(map[string]bool)
	for _, m := range sp.PerLayer {
		layer[m.Name] = true
	}
	for w, names := range offPath {
		for _, name := range names {
			if !layer[name] {
				t.Errorf("offPath[%s] names undeclared metric %s", w, name)
			}
		}
	}
	var setup bool
	for _, m := range sp.EndToEnd {
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
			for _, o := range sp.EndToEnd {
				if o.Bound > m.Bound {
					t.Errorf("setup_s bound %v below %s's %v", m.Bound, o.Name, o.Bound)
				}
			}
		}
	}
	if !setup {
		t.Error("setup_s (s, lower) not declared")
	}
}

// draw takes the first n submissions of seed's plan.
func draw(t *testing.T, seed int64, n int) []submission {
	t.Helper()
	p := newMixPlan(seed)
	subs := make([]submission, n)
	for i := range subs {
		var err error
		if subs[i], err = p.next(); err != nil {
			t.Fatal(err)
		}
	}
	return subs
}

func specKey(t *testing.T, s submission) string {
	t.Helper()
	k, err := s.spec.Key()
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func TestMixPlanDeterministic(t *testing.T) {
	const n = 3000
	a, b, c := draw(t, 7, n), draw(t, 7, n), draw(t, 8, n)
	order := make(map[string]int) // cold spec → how many cold specs went before it
	cold, hits := 0, 0
	for i := range a {
		ka := specKey(t, a[i])
		if ka != specKey(t, b[i]) || a[i].hit != b[i].hit {
			t.Fatalf("submission %d differs between two plans of one seed", i)
		}
		if !a[i].hit {
			if _, dup := order[ka]; dup {
				t.Fatalf("cold submission %d repeats an earlier cold spec", i)
			}
			order[ka] = cold
			cold++
			continue
		}
		hits++
		// Only specs older than the newest hitLag can be repeated: those
		// jobs are done, so the repeat is a cache hit.
		if j, ok := order[ka]; !ok || cold-j <= hitLag {
			t.Fatalf("hit %d repeats a spec %d cold specs old, want more than %d", i, cold-j, hitLag)
		}
	}
	// Once hitLag cold specs are out, each submission is a hit with
	// probability hitShare: about 3000 draws here, so within 3% of it.
	if share := float64(hits) / float64(n-hitLag); share < hitShare-0.03 || share > hitShare+0.03 {
		t.Errorf("%d hits in %d submissions: share %.3f, want about %.3f", hits, n, share, hitShare)
	}
	// Shapes are drawn at random: an eight-entry LRU over ten equally
	// likely shapes holds the next one about 80% of the time.
	if r := traceReusePct(a, traceCacheEntries); r < 70 || r > 90 {
		t.Errorf("trace-shape reuse %.1f%%, want about 80%% for random shapes", r)
	}
	same := 0
	for i := range a {
		if specKey(t, a[i]) == specKey(t, c[i]) {
			same++
		}
	}
	if same == n {
		t.Error("seeds 7 and 8 planned identical traffic")
	}
}

// TestMixPlanRunsOut checks that a plan that has sent every distinct
// cold spec refuses to draw another instead of drawing forever.
func TestMixPlanRunsOut(t *testing.T) {
	p := newMixPlan(7)
	for i := 0; i < 10*specSpace; i++ {
		if _, err := p.next(); err != nil {
			if len(p.cold) != specSpace {
				t.Errorf("plan ran out after %d cold specs, the space holds %d", len(p.cold), specSpace)
			}
			return
		}
	}
	t.Errorf("%d submissions drawn without running out of %d cold specs", 10*specSpace, specSpace)
}

func TestParseStatCPU(t *testing.T) {
	// utime 150 and stime 25 ticks, after a command name with a space
	// and a parenthesis in it.
	stat := "4242 (va)xd d) S 1 4242 4242 0 -1 4194560 1000 0 0 0 150 25 0 0 20 0 9 0 100 0 0"
	got, err := parseStatCPU(stat)
	if err != nil {
		t.Fatal(err)
	}
	if want := 1.75e9; got != want {
		t.Errorf("parseStatCPU = %v ns, want %v", got, want)
	}
	for _, bad := range []string{"4242 vaxd S 1", "4242 (vaxd) S 1 2 3", "4242 (vaxd) S 1 4242 4242 0 -1 4194560 1000 0 0 0 x 25"} {
		if _, err := parseStatCPU(bad); err == nil {
			t.Errorf("parseStatCPU(%q) gave no error", bad)
		}
	}
}

func TestTraceReusePct(t *testing.T) {
	plan := func(shapes ...int) []submission {
		var p []submission
		for _, n := range shapes {
			p = append(p, submission{spec: jobs.Spec{Workloads: []string{"w"}, Instructions: n}})
		}
		// A hit runs nothing, so it never touches the trace cache.
		return append(p, submission{spec: jobs.Spec{Workloads: []string{"w"}, Instructions: -1}, hit: true})
	}
	for _, c := range []struct {
		shapes []int
		want   float64
	}{
		{[]int{1, 2, 3, 1, 2, 3}, 50},                 // the second round hits
		{[]int{1, 2, 3, 4, 1}, 0},                     // 1 was evicted by 4
		{[]int{1, 2, 3, 1, 4, 1}, 100.0 / 3},          // touching 1 saved it from 4
		{[]int{1, 1, 1, 1}, 75},                       // only the first one misses
		{[]int{1, 2, 3, 4, 5, 4, 3, 2, 1}, 200.0 / 9}, // 4, 3 hit; 2 and 1 are gone
	} {
		if got := traceReusePct(plan(c.shapes...), 3); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("shapes %v, LRU of 3: reuse %v%%, want %v%%", c.shapes, got, c.want)
		}
	}
}

// TestSmokeAllWorkloads runs every workload for a few ops with the
// correctness gate on — the traced variant (vaxd-mix with its manager
// in process) and, for the closed loops, the untraced one — and checks
// that each prints exactly the metrics BENCHMARK.json declares.
func TestSmokeAllWorkloads(t *testing.T) {
	sp, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	declared := func(name string, traced bool) []string {
		var names []string
		for _, m := range sp.declaredFor(traced) {
			// The parent process measures these two from the outside, and
			// vaxd-mix here has no vaxd binary to reach over HTTP.
			fromParent := m.Name == "setup_s" || m.Name == "rss_max_mb"
			if !fromParent && !(name == "vaxd-mix" && slices.Contains(httpMetrics, m.Name)) {
				names = append(names, m.Name)
			}
		}
		sort.Strings(names)
		return names
	}
	for _, name := range workloadOrder {
		for _, traced := range []bool{true, false} {
			if name == "vaxd-mix" && !traced {
				continue // needs the vaxd binary; bench/run.sh covers it
			}
			dir := t.TempDir()
			cfg := runConfig{name: name, seed: 1, minOps: 2, traced: traced, work: dir,
				spans: filepath.Join(dir, "spans.jsonl")}
			if name == "vaxd-mix" {
				cfg.seconds = 2 // long enough for repeats to be sent
			}
			s, err := workloads[name](cfg)
			if err != nil {
				t.Fatalf("%s: setup: %v", name, err)
			}
			out, err := s.measure()
			if cerr := s.close(); err == nil {
				err = cerr
			}
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if len(out.errs) > 0 || out.failed > 0 || out.attempted == 0 {
				t.Errorf("%s traced=%v: attempted %d, failed %d, errors %v",
					name, traced, out.attempted, out.failed, out.errs)
			}
			var got []string
			for k := range out.metrics {
				got = append(got, k)
			}
			sort.Strings(got)
			if want := declared(name, traced); !slices.Equal(got, want) {
				t.Errorf("%s traced=%v prints %v, declared %v", name, traced, got, want)
			}
		}
	}
}
