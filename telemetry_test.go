package vax780

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// TestTelemetryIntervalInvariant is the acceptance check of the live
// telemetry layer: over a full composite run, the summed per-interval
// histogram cycles equal the composite histogram's total cycles — the
// board seen as a time series recomposes exactly to the board seen as
// the paper's averages.
func TestTelemetryIntervalInvariant(t *testing.T) {
	tel := NewTelemetry(2000, 0)
	res, err := Run(RunConfig{
		Instructions: 2000,
		Workloads:    []WorkloadID{TimesharingA, RTEScientific},
		Telemetry:    tel,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := tel.IntervalCycleTotal(), res.Histogram().TotalCycles(); got != want {
		t.Errorf("interval cycle sum = %d, composite histogram total = %d", got, want)
	}

	c := tel.Counters()
	if c.Cycles != res.Histogram().TotalCycles() {
		t.Errorf("live cycle counter = %d, histogram total = %d",
			c.Cycles, res.Histogram().TotalCycles())
	}
	var instrs uint64
	for _, w := range res.PerWorkload {
		instrs += w.Instructions
	}
	if c.Instrs != instrs {
		t.Errorf("live instruction counter = %d, per-workload sum = %d", c.Instrs, instrs)
	}
	if c.Intervals == 0 {
		t.Error("no intervals recorded")
	}

	rows := tel.IntervalRows()
	if len(rows) != int(c.Intervals) {
		t.Errorf("%d rows for %d rolled intervals", len(rows), c.Intervals)
	}
	var rowInstrs uint64
	for _, r := range rows {
		rowInstrs += r.Instructions
	}
	// Row instruction counts come from the IRD bucket of each interval
	// histogram; their sum is the composite's instruction count.
	if rowInstrs != res.Instructions() {
		t.Errorf("row instruction sum = %d, composite = %d", rowInstrs, res.Instructions())
	}
}

// TestTelemetryAttachmentIsPassive verifies the paper's core discipline:
// the attached monitor must not perturb the measurement. Each hook —
// the telemetry stack, a forced-on flight recorder, the profiler, the
// run ledger, and a fault plan whose every rate is zero —
// is attached alone, and the run must be bit-identical to the bare run
// at the same parallelism.
func TestTelemetryAttachmentIsPassive(t *testing.T) {
	hooks := []struct {
		name   string
		attach func(*RunConfig)
	}{
		{"telemetry", func(c *RunConfig) { c.Telemetry = NewTelemetry(1000, 100000) }},
		{"flight", func(c *RunConfig) { c.FlightDepth = 64 }},
		{"profiler", func(c *RunConfig) { c.Profiler = &Profiler{} }},
		{"ledger", func(c *RunConfig) { c.Ledger = io.Discard }},
		{"faults", func(c *RunConfig) { c.Faults = &FaultConfig{Seed: 12345} }},
	}
	for _, workers := range []int{1, 2} {
		cfg := RunConfig{
			Instructions: 1500,
			Workloads:    []WorkloadID{TimesharingB, RTEScientific},
			Parallelism:  workers,
		}
		bare, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, h := range hooks {
			t.Run(fmt.Sprintf("%s/j=%d", h.name, workers), func(t *testing.T) {
				hcfg := cfg
				h.attach(&hcfg)
				hooked, err := Run(hcfg)
				if err != nil {
					t.Fatal(err)
				}
				if hcfg.Faults != nil {
					// A plan adds its injection summary; zero rates
					// must report that nothing was injected.
					if hooked.FaultInjections != "none" {
						t.Errorf("zero-rate plan injected: %s", hooked.FaultInjections)
					}
					hooked.FaultInjections = bare.FaultInjections
				}
				compareResults(t, bare, hooked)
			})
		}
	}
}

func TestTelemetryExportsAndHandler(t *testing.T) {
	tel := NewTelemetry(1000, 200000)
	srv := httptest.NewServer(tel.Handler())
	defer srv.Close()

	// Serve while the run executes — the live-monitor mode.
	var wg sync.WaitGroup
	wg.Add(1)
	var runErr error
	go func() {
		defer wg.Done()
		_, runErr = Run(RunConfig{
			Instructions: 2000,
			Workloads:    []WorkloadID{TimesharingA},
			Telemetry:    tel,
		})
	}()
	wg.Wait()
	if runErr != nil {
		t.Fatal(runErr)
	}

	r, err := httpGet(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(r, "vax780_cycles_total") {
		t.Error("metrics endpoint lacks cycle counter")
	}

	var csv, js, trace bytes.Buffer
	if err := tel.WriteIntervalsCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(csv.String(), "interval,start_cycle") {
		t.Error("CSV header missing")
	}
	if err := tel.WriteIntervalsJSON(&js); err != nil {
		t.Fatal(err)
	}
	var rows []map[string]any
	if err := json.Unmarshal(js.Bytes(), &rows); err != nil {
		t.Fatalf("interval JSON invalid: %v", err)
	}
	if err := tel.WriteTrace(&trace); err != nil {
		t.Fatal(err)
	}
	var tf map[string]any
	if err := json.Unmarshal(trace.Bytes(), &tf); err != nil {
		t.Fatalf("trace JSON invalid: %v", err)
	}
	if _, ok := tf["traceEvents"].([]any); !ok {
		t.Error("trace lacks traceEvents array")
	}
}

func TestDescribeTelemetryProbes(t *testing.T) {
	d := DescribeTelemetryProbes()
	for _, want := range []string{"ebox.tick", "Cycle", "Recorder", "Tracer"} {
		if !strings.Contains(d, want) {
			t.Errorf("probe description lacks %q", want)
		}
	}
}

func httpGet(url string) (string, error) {
	resp, err := http.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return string(b), err
}

// TestTraceGoldenBytes pins the Chrome trace bytes of the 10k
// composite under four caps: 50 000 truncates inside the first
// workload, 150 000 in the third, 250 000 in the fifth, and the
// unlimited trace keeps every event. The oracle and seq-vs-par suites compare two
// encoders or two worker counts on the same events; these hashes pin
// the events themselves, so a change to collection, interning or
// truncation that moves a byte fails here.
func TestTraceGoldenBytes(t *testing.T) {
	for _, c := range []struct {
		maxEvents int
		sha256    string
	}{
		{50_000, "4e2f9f4ba06a7d0b929c08a9ba38a1f287126118b023e1576482027838a94e86"},
		{150_000, "683960fb0f148bda5251dc9e45a22a771c140c37cf488ee6043ece2225fc5f62"},
		{250_000, "b1f2b583a3a54ea408ac65a9389d7d8003db4741f0824f9e1ae636790e9491fd"},
		{-1, "568693db88744c7344bfac890c92952bce2de04ae512ecdf3951fb6282ec4528"},
	} {
		for _, workers := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("cap=%d/j=%d", c.maxEvents, workers), func(t *testing.T) {
				tel := NewTelemetry(100_000, c.maxEvents)
				if _, err := Run(RunConfig{Instructions: 10_000, Parallelism: workers, Telemetry: tel}); err != nil {
					t.Fatal(err)
				}
				h := sha256.New()
				if err := tel.WriteTrace(h); err != nil {
					t.Fatal(err)
				}
				if got := hex.EncodeToString(h.Sum(nil)); got != c.sha256 {
					t.Errorf("trace sha256 %s, want %s", got, c.sha256)
				}
			})
		}
	}
}

// TestHeadlessRunPublishesNoSnapshot: board snapshots are published
// only for a mounted HTTP view, at any worker count. A headless run
// leaves Snapshot nil at -j 1 and -j 2; with Handler mounted, a -j 2
// run publishes the board as it splices each workload, ending at the
// run's last cycle.
func TestHeadlessRunPublishesNoSnapshot(t *testing.T) {
	run := func(workers int, watch bool) (*Results, *Telemetry) {
		t.Helper()
		tel := NewTelemetry(1000, 0)
		if watch {
			tel.Handler()
		}
		res, err := Run(RunConfig{Instructions: 2000, Parallelism: workers, Telemetry: tel})
		if err != nil {
			t.Fatal(err)
		}
		return res, tel
	}
	for _, workers := range []int{1, 2} {
		_, tel := run(workers, false)
		if _, h := tel.inner.Snapshot(); h != nil {
			t.Errorf("-j %d: headless run published a board snapshot", workers)
		}
	}
	res, tel := run(2, true)
	cycle, h := tel.inner.Snapshot()
	if h == nil {
		t.Fatal("-j 2 with Handler mounted: no board snapshot published")
	}
	if want := res.Histogram().TotalCycles(); cycle != want {
		t.Errorf("last snapshot at cycle %d, run ended at %d", cycle, want)
	}
}
