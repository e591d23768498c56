package ulint

// The shared flow-index cache: one analysis per assembled ROM image,
// reused by the prof sampler and vaxlint.

import (
	"sync"
	"testing"

	"vax780/internal/urom"
)

// TestIndexForCachesPerROM: repeated lookups of one ROM return the
// identical index (the analysis ran once); a distinct ROM gets its
// own.
func TestIndexForCachesPerROM(t *testing.T) {
	a, b := urom.Build(), urom.Build()
	if IndexFor(a) != IndexFor(a) {
		t.Error("IndexFor re-derived the analysis for the same ROM")
	}
	if IndexFor(a) == IndexFor(b) {
		t.Error("IndexFor shared one analysis across distinct ROM instances")
	}
}

// TestIndexForConcurrent hammers the cache from many goroutines: every
// caller must observe the same index for the same ROM.
func TestIndexForConcurrent(t *testing.T) {
	rom := urom.Build()
	want := IndexFor(rom)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if IndexFor(rom) != want {
				t.Error("concurrent IndexFor returned a different index")
			}
		}()
	}
	wg.Wait()
}
