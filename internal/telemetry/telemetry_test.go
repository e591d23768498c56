// External test package: the telemetry layer is exercised through real
// machine runs (machine imports only the probe interfaces, so this
// direction is cycle-free).
package telemetry_test

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"vax780/internal/analysis"
	"vax780/internal/machine"
	"vax780/internal/mem"
	"vax780/internal/telemetry"
	"vax780/internal/upc"
	"vax780/internal/workload"
)

// runInstrumented executes one generated workload on a machine with the
// given telemetry layer attached and returns the machine and monitor.
func runInstrumented(t testing.TB, tel *telemetry.Telemetry, instrs int) (*machine.Machine, *upc.Monitor) {
	t.Helper()
	tr, err := workload.Generate(workload.TimesharingA(instrs))
	if err != nil {
		t.Fatal(err)
	}
	mon := upc.New()
	mon.Start()
	m := machine.New(machine.Config{
		Mem:       mem.Config{},
		Monitor:   mon,
		Telemetry: tel,
	}, tr.Program)
	if err := m.Run(tr.Stream()); err != nil {
		t.Fatal(err)
	}
	mon.Stop()
	return m, mon
}

func TestCountersMatchMachine(t *testing.T) {
	tel := telemetry.New(telemetry.Options{ROM: machine.ROM()})
	m, _ := runInstrumented(t, tel, 3000)
	tel.Finish()

	c := &tel.C
	if got, want := c.Cycles.Load(), m.E.Now; got != want {
		t.Errorf("Cycles = %d, want machine's %d", got, want)
	}
	if got, want := c.Instrs.Load(), m.Stats.Instrs; got != want {
		t.Errorf("Instrs = %d, want machine's %d", got, want)
	}
	st := m.Mem.Stats
	if got, want := c.CacheMissD.Load(), st.DReadMisses+st.PTEReadMisses; got != want {
		t.Errorf("CacheMissD = %d, want %d (DReadMisses+PTEReadMisses)", got, want)
	}
	if got, want := c.CacheMissI.Load(), st.IReadMisses; got != want {
		t.Errorf("CacheMissI = %d, want %d", got, want)
	}
	if got, want := c.TBMissD.Load(), st.DTBMisses; got != want {
		t.Errorf("TBMissD = %d, want %d", got, want)
	}
	if got, want := c.TBMissI.Load(), st.ITBMisses; got != want {
		t.Errorf("TBMissI = %d, want %d", got, want)
	}
	if got, want := c.IBRefills.Load(), m.IB.Refs; got != want {
		t.Errorf("IBRefills = %d, want %d", got, want)
	}
	if got, want := c.Interrupts.Load(), m.Stats.Interrupts; got != want {
		t.Errorf("Interrupts = %d, want %d", got, want)
	}
	if got, want := c.StallCycles.Load(), st.ReadStall+st.WriteStall; got != want {
		t.Errorf("StallCycles = %d, want %d (ReadStall+WriteStall)", got, want)
	}
	if cpi := c.CPI(); cpi < 1 || cpi > 100 {
		t.Errorf("CPI = %g, implausible", cpi)
	}
}

func TestIntervalSumsEqualHistogram(t *testing.T) {
	tel := telemetry.New(telemetry.Options{ROM: machine.ROM(), IntervalCycles: 1000})
	m, mon := runInstrumented(t, tel, 3000)
	tel.Finish()

	rec := tel.Recorder()
	if rec == nil {
		t.Fatal("recorder not enabled")
	}
	if len(rec.Intervals()) < 2 {
		t.Fatalf("only %d intervals recorded", len(rec.Intervals()))
	}
	// The acceptance invariant: summed interval cycles equal the final
	// histogram's total cycles.
	if got, want := rec.TotalCycles(), mon.Snapshot().TotalCycles(); got != want {
		t.Errorf("interval cycle sum = %d, histogram total = %d", got, want)
	}
	// The hardware-counter deltas recompose to the run totals.
	if got := rec.CompositeStats(); got != m.Mem.Stats {
		t.Errorf("composite stats mismatch:\n got %+v\nwant %+v", got, m.Mem.Stats)
	}
	// Interval boundaries are contiguous and instruction deltas sum up.
	var prevEnd, instrs uint64
	for i, iv := range rec.Intervals() {
		if iv.StartCycle != prevEnd {
			t.Errorf("interval %d starts at %d, previous ended at %d", i, iv.StartCycle, prevEnd)
		}
		if iv.EndCycle <= iv.StartCycle {
			t.Errorf("interval %d is empty [%d,%d)", i, iv.StartCycle, iv.EndCycle)
		}
		prevEnd = iv.EndCycle
		instrs += iv.Instrs
	}
	if instrs != m.Stats.Instrs {
		t.Errorf("interval instruction sum = %d, machine ran %d", instrs, m.Stats.Instrs)
	}
}

func TestBindContinuesTimeline(t *testing.T) {
	// Two sequential machines on one telemetry layer: the paper's board
	// stayed attached across experiments. The combined interval series
	// must cover both runs with a continuous cycle axis.
	tel := telemetry.New(telemetry.Options{ROM: machine.ROM(), IntervalCycles: 1000})
	m1, mon1 := runInstrumented(t, tel, 1500)
	m2, mon2 := runInstrumented(t, tel, 1500)
	tel.Finish()

	if got, want := tel.C.Cycles.Load(), m1.E.Now+m2.E.Now; got != want {
		t.Errorf("Cycles = %d, want %d across two machines", got, want)
	}
	rec := tel.Recorder()
	total := mon1.Snapshot().TotalCycles() + mon2.Snapshot().TotalCycles()
	if got := rec.TotalCycles(); got != total {
		t.Errorf("interval cycle sum = %d, summed histograms = %d", got, total)
	}
	var prevEnd uint64
	for i, iv := range rec.Intervals() {
		if iv.StartCycle < prevEnd {
			t.Errorf("interval %d rewinds the timeline: start %d < previous end %d",
				i, iv.StartCycle, prevEnd)
		}
		prevEnd = iv.EndCycle
	}
}

func TestRowsAndExports(t *testing.T) {
	tel := telemetry.New(telemetry.Options{ROM: machine.ROM(), IntervalCycles: 1000})
	m, _ := runInstrumented(t, tel, 3000)

	rows := tel.Rows()
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	var cycles, instrs uint64
	var weighted float64
	for i, r := range rows {
		if r.Index != i {
			t.Errorf("row %d has index %d", i, r.Index)
		}
		cycles += r.Cycles
		instrs += r.Instructions
		weighted += r.CPI * float64(r.Instructions)
		// The Table 8 row-sum identity holds per interval, not just on
		// the composite.
		perClass := r.Compute + r.Read + r.ReadStall + r.Write + r.WriteStall + r.IBStall
		if r.CPI > 0 && math.Abs(perClass-r.CPI) > 1e-9*r.CPI {
			t.Errorf("row %d: per-class sum %.12f != CPI %.12f", i, perClass, r.CPI)
		}
		if r.Compute <= 0 || r.IBStall < 0 {
			t.Errorf("row %d: implausible classes compute %.4f ib_stall %.4f", i, r.Compute, r.IBStall)
		}
		if r.SimplePct < 50 || r.SimplePct > 95 {
			t.Errorf("row %d: SIMPLE%% = %.1f", i, r.SimplePct)
		}
	}
	if cycles != m.E.Now {
		t.Errorf("row cycle sum = %d, machine ran %d", cycles, m.E.Now)
	}
	// The histogram counts instructions at the IRD microinstruction; the
	// machine counts decode events — identical on an unperturbed run.
	if instrs != m.Stats.Instrs {
		t.Errorf("row instruction sum = %d, machine ran %d", instrs, m.Stats.Instrs)
	}
	// The instruction-weighted mean of the row CPIs is the CPI of the
	// summed interval histograms.
	sum := &upc.Histogram{}
	for _, iv := range tel.Recorder().Intervals() {
		sum.Add(iv.Hist)
	}
	whole := float64(sum.TotalCycles()) / float64(analysis.New(machine.ROM(), sum).Instructions())
	if weighted /= float64(instrs); math.Abs(weighted-whole) > 1e-9*whole {
		t.Errorf("weighted row CPI %.12f != summed-histogram CPI %.12f", weighted, whole)
	}

	var csv bytes.Buffer
	if err := tel.WriteIntervalsCSV(&csv); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
	if len(lines) != len(rows)+1 {
		t.Errorf("CSV has %d lines, want header + %d rows", len(lines), len(rows))
	}
	wantCols := len(strings.Split(lines[0], ","))
	for i, ln := range lines {
		if got := len(strings.Split(ln, ",")); got != wantCols {
			t.Errorf("CSV line %d has %d fields, header has %d", i, got, wantCols)
		}
	}

	var jsonBuf bytes.Buffer
	if err := tel.WriteIntervalsJSON(&jsonBuf); err != nil {
		t.Fatal(err)
	}
	var decoded []map[string]any
	if err := json.Unmarshal(jsonBuf.Bytes(), &decoded); err != nil {
		t.Fatalf("interval JSON does not parse: %v", err)
	}
	if len(decoded) != len(rows) {
		t.Errorf("JSON has %d rows, want %d", len(decoded), len(rows))
	}
}

func TestTraceIsValidTraceEventJSON(t *testing.T) {
	tel := telemetry.New(telemetry.Options{ROM: machine.ROM(), TraceMaxEvents: 50000})
	m, _ := runInstrumented(t, tel, 500)
	tel.Finish()

	var buf bytes.Buffer
	if err := tel.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			Pid  int     `json:"pid"`
			Tid  int     `json:"tid"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatalf("trace JSON does not parse: %v", err)
	}
	if len(tf.TraceEvents) == 0 {
		t.Fatal("no trace events")
	}
	phases := map[string]bool{}
	var lastEnd float64
	for _, ev := range tf.TraceEvents {
		phases[ev.Ph] = true
		switch ev.Ph {
		case "X":
			if ev.Dur <= 0 {
				t.Fatalf("complete event %q has dur %g", ev.Name, ev.Dur)
			}
			if end := ev.Ts + ev.Dur; end > lastEnd {
				lastEnd = end
			}
		case "M", "i", "I":
		default:
			t.Fatalf("unexpected event phase %q", ev.Ph)
		}
	}
	if !phases["X"] || !phases["M"] {
		t.Errorf("trace lacks slices or metadata: phases %v", phases)
	}
	// Timestamps are microseconds at 200 ns per cycle: the last slice
	// ends at 0.2 µs × total cycles.
	if want := float64(m.E.Now) * 0.2; lastEnd < want*0.9 || lastEnd > want*1.1 {
		t.Errorf("trace ends at %.1f µs, machine ran %.1f µs", lastEnd, want)
	}
}

func TestTraceRespectsEventCap(t *testing.T) {
	tel := telemetry.New(telemetry.Options{ROM: machine.ROM(), TraceMaxEvents: 100})
	runInstrumented(t, tel, 2000)
	tel.Finish()

	var buf bytes.Buffer
	if err := tel.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
		OtherData   map[string]any    `json:"otherData"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatal(err)
	}
	// The cap bounds retained events (metadata records ride on top).
	if len(tf.TraceEvents) > 120 {
		t.Errorf("cap 100 retained %d events", len(tf.TraceEvents))
	}
	if tf.OtherData["truncated"] != true {
		t.Error("truncated dump not flagged in otherData")
	}
}

func TestWriteTraceDisabled(t *testing.T) {
	tel := telemetry.New(telemetry.Options{ROM: machine.ROM()})
	if err := tel.WriteTrace(&bytes.Buffer{}); err == nil {
		t.Error("WriteTrace with tracing disabled should error")
	}
}

func TestBoardCommands(t *testing.T) {
	tel := telemetry.New(telemetry.Options{ROM: machine.ROM()})
	if err := tel.Command("bogus"); err == nil {
		t.Error("unknown command accepted")
	}

	mon := upc.New()
	mon.Start()
	var st mem.Stats
	tel.Attach(mon, &st, nil)

	// A pending stop is applied at the next simulated cycle, not
	// immediately — the Unibus write semantics.
	if err := tel.Command("stop"); err != nil {
		t.Fatal(err)
	}
	if !mon.Running() {
		t.Fatal("command applied before a cycle ran")
	}
	tel.Cycle(0, 0x10, false)
	if mon.Running() {
		t.Error("stop command not applied on the next cycle")
	}
	if tel.Status()&telemetry.StatusRunning != 0 {
		t.Error("published status still shows running")
	}
	// Applying a command publishes a readable snapshot.
	if _, h := tel.Snapshot(); h == nil {
		t.Error("no snapshot published after a board command")
	}

	tel.Command("clear")
	tel.Command("start")
	tel.Cycle(1, 0x10, false)
	if !mon.Running() {
		t.Error("start command not applied")
	}
	if n, s := mon.Read(0x10); n != 0 || s != 0 {
		t.Errorf("clear command did not clear: bucket 0x10 = %d/%d", n, s)
	}
}

func TestServerEndpoints(t *testing.T) {
	tel := telemetry.New(telemetry.Options{ROM: machine.ROM(), IntervalCycles: 500})
	srv := httptest.NewServer(tel.Handler())
	defer srv.Close()

	// Before any published snapshot, /board/read is unavailable.
	if got := get(t, srv.URL+"/board/read?addr=1").code; got != 503 {
		t.Errorf("/board/read before snapshot: status %d, want 503", got)
	}

	runInstrumented(t, tel, 2000)
	tel.Finish()

	metrics := get(t, srv.URL+"/metrics")
	if metrics.code != 200 {
		t.Fatalf("/metrics status %d", metrics.code)
	}
	for _, want := range []string{
		"# TYPE vax780_cycles_total counter",
		"# TYPE vax780_cpi gauge",
		`vax780_cache_miss_total{stream="d"}`,
		"vax780_intervals_total",
	} {
		if !strings.Contains(metrics.body, want) {
			t.Errorf("/metrics lacks %q", want)
		}
	}

	vars := get(t, srv.URL+"/debug/vars")
	if vars.code != 200 || !strings.Contains(vars.body, `"vax780"`) {
		t.Errorf("/debug/vars status %d, vax780 map present: %v",
			vars.code, strings.Contains(vars.body, `"vax780"`))
	}

	pprofIdx := get(t, srv.URL+"/debug/pprof/")
	if pprofIdx.code != 200 {
		t.Errorf("/debug/pprof/ status %d", pprofIdx.code)
	}

	csr := get(t, srv.URL+"/board/csr")
	if csr.code != 200 {
		t.Fatalf("/board/csr status %d", csr.code)
	}
	var csrResp map[string]any
	if err := json.Unmarshal([]byte(csr.body), &csrResp); err != nil {
		t.Fatalf("/board/csr is not JSON: %v", err)
	}
	if csrResp["has_snapshot"] != true {
		t.Error("/board/csr reports no snapshot after a recorded run")
	}

	read := get(t, srv.URL+"/board/read?hot=5")
	if read.code != 200 {
		t.Fatalf("/board/read?hot=5 status %d", read.code)
	}
	var hotResp struct {
		Buckets []struct {
			Addr   int    `json:"addr"`
			Normal uint64 `json:"normal"`
		} `json:"buckets"`
	}
	if err := json.Unmarshal([]byte(read.body), &hotResp); err != nil {
		t.Fatal(err)
	}
	if len(hotResp.Buckets) != 5 {
		t.Errorf("hot=5 returned %d buckets", len(hotResp.Buckets))
	}

	// Single-bucket read of the hottest location agrees with the list.
	if len(hotResp.Buckets) > 0 {
		one := get(t, srv.URL+"/board/read?addr="+strconv.Itoa(hotResp.Buckets[0].Addr))
		if one.code != 200 || !strings.Contains(one.body, `"normal"`) {
			t.Errorf("/board/read?addr status %d body %q", one.code, one.body)
		}
	}

	// Board command endpoints accept and defer.
	if got := get(t, srv.URL+"/board/stop").code; got != 202 {
		t.Errorf("/board/stop status %d, want 202", got)
	}
}

type resp struct {
	code int
	body string
}

func get(t *testing.T, url string) resp {
	t.Helper()
	r, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	body, err := io.ReadAll(r.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp{code: r.StatusCode, body: string(body)}
}
