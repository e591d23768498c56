package telemetry_test

// The streaming Chrome trace encoder against the reference encoder
// (trace_oracle_test.go) on real runs, its write-error contract, and
// its cost per event.

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"unsafe"

	"vax780"
	"vax780/internal/machine"
	"vax780/internal/telemetry"
)

// tracedRun returns a finished telemetry layer whose tracer observed a
// TimesharingA run of instrs instructions under the given event cap
// (instrs 0: no run, only the metadata events).
func tracedRun(tb testing.TB, instrs, maxEvents int) *telemetry.Telemetry {
	tb.Helper()
	tel := telemetry.New(telemetry.Options{ROM: machine.ROM(), TraceMaxEvents: maxEvents})
	if instrs > 0 {
		runInstrumented(tb, tel, instrs)
	}
	tel.Finish()
	return tel
}

// layerOf returns the telemetry layer a vax780.Telemetry built for its
// run. The public wrapper exposes only the exporters, and the reference
// encoder needs the collected events, so the test reads the unexported
// field.
func layerOf(t *testing.T, tel *vax780.Telemetry) *telemetry.Telemetry {
	t.Helper()
	f := reflect.ValueOf(tel).Elem().FieldByName("inner")
	if !f.IsValid() {
		t.Fatal("vax780.Telemetry has no inner layer field")
	}
	layer := reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Elem().Interface().(*telemetry.Telemetry)
	if layer == nil {
		t.Fatal("telemetry layer was never built")
	}
	return layer
}

// TestWriteTraceMatchesOracle holds the streaming encoder to the
// reference encoder's bytes on a metadata-only tracer, on single runs
// truncated by a small cap, filling a 50 000-event cap and uncapped,
// and on the 10k-instruction composite. The root package's
// TestParallelTelemetryBitExact holds the composite's trace
// byte-identical at -j 1/2/4, so one composite configuration covers
// the others.
func TestWriteTraceMatchesOracle(t *testing.T) {
	t.Run("metadata-only", func(t *testing.T) {
		telemetry.MatchOracle(t, tracedRun(t, 0, 100))
	})
	for _, c := range []struct{ instrs, cap int }{{2000, 100}, {12000, 50000}, {3000, -1}} {
		t.Run(fmt.Sprintf("cap=%d", c.cap), func(t *testing.T) {
			tel := tracedRun(t, c.instrs, c.cap)
			if c.cap > 0 && !tel.Tracer().Truncated() {
				t.Fatalf("%d instructions did not fill the %d-event cap", c.instrs, c.cap)
			}
			telemetry.MatchOracle(t, tel)
		})
	}
	t.Run("composite", func(t *testing.T) {
		cfg := vax780.RunConfig{
			Instructions: 10_000,
			Parallelism:  1,
			Telemetry:    vax780.NewTelemetry(100_000, 50_000),
		}
		if _, err := vax780.Run(cfg); err != nil {
			t.Fatal(err)
		}
		telemetry.MatchOracle(t, layerOf(t, cfg.Telemetry))
	})
}

var errDiskFull = errors.New("disk full")

// failingWriter accepts limit bytes, then fails every write and counts
// the writes it saw after the first failure.
type failingWriter struct {
	limit, written int
	failed         bool
	lateWrites     int
}

func (w *failingWriter) Write(p []byte) (int, error) {
	if w.failed {
		w.lateWrites++
		return 0, errDiskFull
	}
	if n := w.limit - w.written; len(p) > n {
		w.written, w.failed = w.limit, true
		return n, errDiskFull
	}
	w.written += len(p)
	return len(p), nil
}

// TestWriteTraceSurfacesWriteError: the encoder writes a multi-megabyte
// trace in many pieces; a writer failing at any point must make
// WriteTrace return its error and see no further writes.
func TestWriteTraceSurfacesWriteError(t *testing.T) {
	tel := tracedRun(t, 12000, 50000)
	var full bytes.Buffer
	if err := tel.WriteTrace(&full); err != nil {
		t.Fatal(err)
	}
	size := full.Len()
	for _, limit := range []int{0, 1, 64<<10 - 1, 64 << 10, size / 2, size - 1} {
		w := &failingWriter{limit: limit}
		if err := tel.WriteTrace(w); !errors.Is(err, errDiskFull) {
			t.Errorf("limit %d of %d: WriteTrace returned %v, want the writer's error", limit, size, err)
		}
		if w.lateWrites != 0 {
			t.Errorf("limit %d of %d: %d writes after the failing one", limit, size, w.lateWrites)
		}
	}
	w := &failingWriter{limit: size}
	if err := tel.WriteTrace(w); err != nil || w.written != size {
		t.Errorf("exact-size writer: err %v, %d of %d bytes", err, w.written, size)
	}
}

// countingWriter discards what it is given and counts the bytes.
type countingWriter struct{ n int64 }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

// BenchmarkWriteTrace prices one export of a 50 000-event trace; the
// tracer is built once, outside the timer. Besides ns/op and the
// allocation counts it reports ns and output bytes per event.
func BenchmarkWriteTrace(b *testing.B) {
	tel := tracedRun(b, 12000, 50000)
	events := tel.Tracer().Events()
	if events != 50000 {
		b.Fatalf("tracer holds %d events, want 50000", events)
	}
	var w countingWriter
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tel.WriteTrace(&w); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(events), "ns/event")
	b.ReportMetric(float64(w.n)/float64(b.N)/float64(events), "bytes/event")
}
