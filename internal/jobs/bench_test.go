package jobs

import (
	"path/filepath"
	"testing"
	"time"

	"vax780/internal/castore"
)

// BenchmarkCacheHit measures the O(1) path the service exists for: a
// resubmission of an already-committed measurement answered from the
// content-addressed store without simulating. The seed value is pinned
// in the "vaxd cache-hit seed" entry of BENCH_history.json and gated by
// vaxbench -compare in CI — a
// regression here means the cache path started doing real work (the
// same measurement simulated fresh costs ~10^6x more).
func BenchmarkCacheHit(b *testing.B) {
	store, err := castore.Open(filepath.Join(b.TempDir(), "store"))
	if err != nil {
		b.Fatal(err)
	}
	defer store.Close()
	m, err := New(Config{Store: store})
	if err != nil {
		b.Fatal(err)
	}
	defer m.Close()

	spec := Spec{Workloads: []string{"TIMESHARING-A"}, Instructions: 2000}
	first, err := m.Submit(spec)
	if err != nil {
		b.Fatal(err)
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		j, err := m.Get(first.ID)
		if err != nil {
			b.Fatal(err)
		}
		if j.State == StateDone {
			break
		}
		if j.State.Terminal() {
			b.Fatalf("seed job ended %s (%s)", j.State, j.Cause)
		}
		if time.Now().After(deadline) {
			b.Fatal("seed job never finished")
		}
		time.Sleep(2 * time.Millisecond)
	}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j, err := m.Submit(spec)
		if err != nil {
			b.Fatal(err)
		}
		if !j.Cached {
			b.Fatal("cache miss on resubmission")
		}
	}
}
