package vax780

import (
	"testing"

	"vax780/internal/machine"
	"vax780/internal/mem"
	"vax780/internal/workload"
)

// The exact counts of every companion-study result over TimesharingA at
// 8000 instructions: the shipped study lists plus geometries that reach
// the replay's normalization (ways 0, blocks under 4 or not a power of
// two, a set count that is not a power of two, flush intervals, write
// allocate, TBs smaller than one set per half, ignored flushes).

var pinnedCacheConfigs = append(Study780Configs(),
	CacheConfig{Name: "8KB/0way/8B", Bytes: 8 << 10, Ways: 0, Block: 8},
	CacheConfig{Name: "8KB/2way/2B", Bytes: 8 << 10, Ways: 2, Block: 2},
	CacheConfig{Name: "8KB/2way/6B", Bytes: 8 << 10, Ways: 2, Block: 6},
	CacheConfig{Name: "8KB/3way/8B", Bytes: 8 << 10, Ways: 3, Block: 8},
	CacheConfig{Name: "8KB/2way/8B/flush1000", Bytes: 8 << 10, Ways: 2, Block: 8, FlushEvery: 1000},
	CacheConfig{Name: "1KB/3way/6B+WA/flush500", Bytes: 1 << 10, Ways: 3, Block: 6, WriteAllocate: true, FlushEvery: 500},
)

var pinnedCacheCounts = []struct {
	name                                                  string
	reads, readMisses, iReads, iReadMisses, writes, wMiss uint64
}{
	{"1KB/2way/8B", 5833, 3663, 18216, 3322, 3791, 2057},
	{"2KB/2way/8B", 5833, 2332, 18216, 1919, 3791, 1739},
	{"4KB/2way/8B", 5833, 1436, 18216, 1359, 3791, 1444},
	{"8KB/2way/8B", 5833, 1030, 18216, 1175, 3791, 1268},
	{"16KB/2way/8B", 5833, 945, 18216, 1149, 3791, 1233},
	{"8KB/1way/8B", 5833, 1143, 18216, 1248, 3791, 1343},
	{"8KB/4way/8B", 5833, 1029, 18216, 1173, 3791, 1268},
	{"8KB/2way/4B", 5833, 1372, 18216, 2393, 3791, 1371},
	{"8KB/2way/16B", 5833, 838, 18216, 553, 3791, 1128},
	{"8KB/2way/8B+WA", 5833, 816, 18216, 1150, 3791, 483},
	{"8KB/0way/8B", 5833, 1143, 18216, 1248, 3791, 1343},
	{"8KB/2way/2B", 5833, 1372, 18216, 2393, 3791, 1371},
	{"8KB/2way/6B", 5833, 1063, 18216, 1208, 3791, 1283},
	{"8KB/3way/8B", 5833, 1079, 18216, 1186, 3791, 1280},
	{"8KB/2way/8B/flush1000", 5833, 3134, 18216, 3148, 3791, 1930},
	{"1KB/3way/6B+WA/flush500", 5833, 3821, 18216, 4505, 3791, 1694},
}

var pinnedTBConfigs = append(StudyTBConfigs(),
	TBConfig{Name: "6e/2way", Entries: 6, Ways: 2},
	TBConfig{Name: "128e/0way", Entries: 128, Ways: 0},
	TBConfig{Name: "0e/2way", Entries: 0, Ways: 2},
	TBConfig{Name: "64e/1way/noflush", Entries: 64, Ways: 1, IgnoreFlushes: true},
	TBConfig{Name: "96e/3way", Entries: 96, Ways: 3},
)

var pinnedTBCounts = []struct {
	name                    string
	probes, misses, flushes uint64
}{
	{"64e/2way", 27868, 302, 2},
	{"128e/2way", 27868, 173, 2},
	{"256e/2way", 27868, 168, 2},
	{"512e/2way", 27868, 162, 2},
	{"128e/1way", 27868, 1604, 2},
	{"128e/4way", 27868, 167, 2},
	{"128e/2way/noflush", 27868, 184, 2},
	{"6e/2way", 27868, 7972, 2},
	{"128e/0way", 27868, 1604, 2},
	{"0e/2way", 27868, 7972, 2},
	{"64e/1way/noflush", 27868, 1668, 2},
	{"96e/3way", 27868, 176, 2},
}

func TestCacheStudyPinnedCounts(t *testing.T) {
	res, err := CacheStudy(TimesharingA, 8000, pinnedCacheConfigs)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(pinnedCacheCounts) {
		t.Fatalf("%d results, want %d", len(res), len(pinnedCacheCounts))
	}
	for i, w := range pinnedCacheCounts {
		r := res[i]
		got := [6]uint64{r.Reads, r.ReadMisses, r.IReads, r.IReadMisses, r.Writes, r.WriteMisses}
		want := [6]uint64{w.reads, w.readMisses, w.iReads, w.iReadMisses, w.writes, w.wMiss}
		if r.Config.Name != w.name || got != want {
			t.Errorf("%s: counts %v, want %s %v", r.Config.Name, got, w.name, want)
		}
		reads := float64(r.Reads + r.IReads)
		if r.ReadMissRatio != float64(r.ReadMisses+r.IReadMisses)/reads {
			t.Errorf("%s: read-miss ratio %v disagrees with its counts", r.Config.Name, r.ReadMissRatio)
		}
		if r.MissesPerRef != float64(r.ReadMisses+r.IReadMisses+r.WriteMisses)/(reads+float64(r.Writes)) {
			t.Errorf("%s: misses/ref %v disagrees with its counts", r.Config.Name, r.MissesPerRef)
		}
	}
}

func TestTBStudyPinnedCounts(t *testing.T) {
	res, err := TBStudy(TimesharingA, 8000, pinnedTBConfigs)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(pinnedTBCounts) {
		t.Fatalf("%d results, want %d", len(res), len(pinnedTBCounts))
	}
	for i, w := range pinnedTBCounts {
		r := res[i]
		got := [3]uint64{r.Probes, r.Misses, r.Flushes}
		want := [3]uint64{w.probes, w.misses, w.flushes}
		if r.Config.Name != w.name || got != want {
			t.Errorf("%s: counts %v, want %s %v", r.Config.Name, got, w.name, want)
		}
		if r.MissRatio != float64(r.Misses)/float64(r.Probes) {
			t.Errorf("%s: miss ratio %v disagrees with its counts", r.Config.Name, r.MissRatio)
		}
	}
}

// captureRefs runs one workload with reference tracing attached.
func captureRefs(t *testing.T) *mem.RefTrace {
	t.Helper()
	tr, err := workload.Generate(workload.TimesharingA(10000))
	if err != nil {
		t.Fatal(err)
	}
	m := machine.New(machine.Config{Mem: mem.Config{}}, tr.Program)
	m.Mem.Trace = &mem.RefTrace{}
	if err := m.Run(tr.Stream()); err != nil {
		t.Fatal(err)
	}
	return m.Mem.Trace
}

func replayCaches(trace *mem.RefTrace, cfgs []CacheConfig) []CacheStudyResult {
	out := make([]CacheStudyResult, 0, len(cfgs))
	for _, cfg := range cfgs {
		out = append(out, replayCache(trace, cfg))
	}
	return out
}

func TestCaptureProducesRefs(t *testing.T) {
	trace := captureRefs(t)
	if len(trace.Refs) < 10000 {
		t.Fatalf("only %d references captured", len(trace.Refs))
	}
	var kinds [4]int
	for _, r := range trace.Refs {
		kinds[r.Kind]++
	}
	for k, n := range kinds {
		if n == 0 {
			t.Errorf("no %v references", mem.RefKind(k))
		}
	}
}

func TestSimulateMatchesLiveCache(t *testing.T) {
	// Replaying the captured trace against the production configuration
	// must reproduce the live machine's miss counts (same stream, same
	// geometry, same replacement policy).
	tr, err := workload.Generate(workload.TimesharingA(10000))
	if err != nil {
		t.Fatal(err)
	}
	m := machine.New(machine.Config{Mem: mem.Config{}}, tr.Program)
	m.Mem.Trace = &mem.RefTrace{}
	if err := m.Run(tr.Stream()); err != nil {
		t.Fatal(err)
	}
	res := replayCache(m.Mem.Trace, CacheConfig{Name: "prod", Bytes: 8 << 10, Ways: 2, Block: 8})
	liveMisses := m.Mem.Stats.DReadMisses + m.Mem.Stats.PTEReadMisses
	if res.ReadMisses != liveMisses {
		t.Errorf("replay D+PTE read misses %d != live %d", res.ReadMisses, liveMisses)
	}
	if res.IReadMisses != m.Mem.Stats.IReadMisses {
		t.Errorf("replay I misses %d != live %d", res.IReadMisses, m.Mem.Stats.IReadMisses)
	}
}

func TestCacheSweepMonotoneInSize(t *testing.T) {
	trace := captureRefs(t)
	results := replayCaches(trace, []CacheConfig{
		{Name: "1K", Bytes: 1 << 10, Ways: 2, Block: 8},
		{Name: "4K", Bytes: 4 << 10, Ways: 2, Block: 8},
		{Name: "16K", Bytes: 16 << 10, Ways: 2, Block: 8},
		{Name: "64K", Bytes: 64 << 10, Ways: 2, Block: 8},
	})
	for i := 1; i < len(results); i++ {
		if results[i].ReadMissRatio > results[i-1].ReadMissRatio*1.02 {
			t.Errorf("%s misses more than %s: %.4f > %.4f",
				results[i].Config.Name, results[i-1].Config.Name,
				results[i].ReadMissRatio, results[i-1].ReadMissRatio)
		}
	}
}

func TestWriteAllocateChangesWrites(t *testing.T) {
	trace := captureRefs(t)
	noWA := replayCache(trace, CacheConfig{Bytes: 8 << 10, Ways: 2, Block: 8})
	wa := replayCache(trace, CacheConfig{Bytes: 8 << 10, Ways: 2, Block: 8, WriteAllocate: true})
	// Write-allocate turns later reads of written blocks into hits: read
	// misses should not increase; write misses counted either way.
	if wa.ReadMisses > noWA.ReadMisses {
		t.Errorf("write-allocate raised read misses: %d > %d", wa.ReadMisses, noWA.ReadMisses)
	}
}

func TestFlushIntervalRaisesMisses(t *testing.T) {
	trace := captureRefs(t)
	never := replayCache(trace, CacheConfig{Bytes: 8 << 10, Ways: 2, Block: 8})
	often := replayCache(trace, CacheConfig{Bytes: 8 << 10, Ways: 2, Block: 8, FlushEvery: 2000})
	if often.ReadMissRatio <= never.ReadMissRatio {
		t.Errorf("flushing every 2000 refs should raise the miss ratio (%.4f vs %.4f)",
			often.ReadMissRatio, never.ReadMissRatio)
	}
}

func TestStudy780Configs(t *testing.T) {
	cfgs := Study780Configs()
	if len(cfgs) < 8 {
		t.Fatal("study sweep too small")
	}
	trace := captureRefs(t)
	for _, r := range replayCaches(trace, cfgs) {
		if r.Reads == 0 || r.IReads == 0 {
			t.Errorf("%s: empty result", r.Config.Name)
		}
	}
}

func TestCacheReplayEmptyTrace(t *testing.T) {
	r := replayCache(&mem.RefTrace{}, CacheConfig{Bytes: 8 << 10, Ways: 2, Block: 8})
	if r.ReadMissRatio != 0 || r.MissesPerRef != 0 {
		t.Error("empty trace should give zero ratios")
	}
}

// captureVA runs one workload with TB probe tracing attached.
func captureVA(t *testing.T) (*mem.VATrace, *machine.Machine) {
	t.Helper()
	p := workload.TimesharingA(12000)
	p.CtxSwitchHeadway = 1200 // plenty of flushes in a short run
	tr, err := workload.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	m := machine.New(machine.Config{Mem: mem.Config{}}, tr.Program)
	m.Mem.VTrace = &mem.VATrace{}
	if err := m.Run(tr.Stream()); err != nil {
		t.Fatal(err)
	}
	return m.Mem.VTrace, m
}

func TestCaptureHasProbesAndFlushes(t *testing.T) {
	trace, _ := captureVA(t)
	probes, flushes := 0, 0
	for _, r := range trace.Refs {
		if r.Flush {
			flushes++
		} else {
			probes++
		}
	}
	if probes < 10000 {
		t.Errorf("only %d probes", probes)
	}
	if flushes < 3 {
		t.Errorf("only %d flushes", flushes)
	}
}

func TestReplayMatchesLiveTB(t *testing.T) {
	// The production configuration replayed over the captured probe
	// stream must closely reproduce the live machine's miss count. It is
	// not bit-exact: on the live machine a missing translation is
	// installed ~20 cycles AFTER the probe (the service routine runs, and
	// the IB keeps probing other pages meanwhile), so insertion order —
	// and therefore round-robin victim choice — differs slightly. The
	// companion paper's own simulation-vs-measurement comparison has the
	// same character.
	trace, m := captureVA(t)
	res := replayTB(trace, TBConfig{Name: "prod", Entries: 128, Ways: 2})
	live := float64(m.Mem.Stats.DTBMisses + m.Mem.Stats.ITBMisses)
	got := float64(res.Misses)
	if got < live*0.85 || got > live*1.15 {
		t.Errorf("replay misses %.0f vs live %.0f: more than 15%% apart", got, live)
	}
	t.Logf("replay %d misses, live %.0f", res.Misses, live)
}

func TestTBSweepMonotoneInEntries(t *testing.T) {
	trace, _ := captureVA(t)
	var prev float64 = -1
	for _, entries := range []int{32, 128, 512} {
		r := replayTB(trace, TBConfig{Entries: entries, Ways: 2})
		t.Logf("%4d entries: miss ratio %.4f", entries, r.MissRatio)
		if prev >= 0 && r.MissRatio > prev*1.02 {
			t.Errorf("%d entries misses more than smaller TB", entries)
		}
		prev = r.MissRatio
	}
}

func TestFlushWhatIf(t *testing.T) {
	// The flush/no-flush what-if (address-space tags) must replay the
	// flush markers and produce a different outcome. The direction is
	// workload- and geometry-dependent: stale entries saved by skipping
	// the flush also steal ways from live ones (round-robin victims), so
	// at the production size no-flush can lose — a finding, not a bug.
	trace, _ := captureVA(t)
	flush := replayTB(trace, TBConfig{Entries: 128, Ways: 2})
	noflush := replayTB(trace, TBConfig{Entries: 128, Ways: 2, IgnoreFlushes: true})
	if flush.Flushes == 0 {
		t.Fatal("no flush markers replayed")
	}
	if noflush.Flushes != flush.Flushes {
		t.Error("flush markers should be counted either way")
	}
	if noflush.Misses == flush.Misses {
		t.Error("ignoring flushes should change the outcome")
	}
	t.Logf("with flushes: %d misses; without: %d", flush.Misses, noflush.Misses)
}

func TestStudyTBConfigs(t *testing.T) {
	trace, _ := captureVA(t)
	cfgs := StudyTBConfigs()
	if len(cfgs) < 6 {
		t.Fatal("sweep too small")
	}
	for _, cfg := range cfgs {
		if r := replayTB(trace, cfg); r.Probes == 0 {
			t.Errorf("%s: bad result", r.Config.Name)
		}
	}
}

func TestTBReplayEmptyTrace(t *testing.T) {
	r := replayTB(&mem.VATrace{}, TBConfig{Entries: 128, Ways: 2})
	if r.MissRatio != 0 {
		t.Error("empty trace should give zero ratio")
	}
}
