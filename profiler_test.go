package vax780

// Tests of the host-time profiler: the board attribution is bit-exact
// across Parallelism (exact board counts, workload-order merge), the
// exact engine's attribution is byte-identical seq↔par, the two
// engines agree on the hot flows, the /prof endpoint serves
// the live profile, the span exports carry the run→workload→flow
// hierarchy, and FlightDepth validation rejects non-power-of-two
// rings up front.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"

	"vax780/internal/obs"
)

// profiledRun executes cfg with a fresh profiler attached and returns
// the profiler, the results, and the stripped ledger bytes.
func profiledRun(t *testing.T, cfg RunConfig, parallelism int) (*Profiler, *Results, []byte) {
	t.Helper()
	p := &Profiler{}
	cfg.Profiler = p
	cfg.Parallelism = parallelism
	var led bytes.Buffer
	cfg.Ledger = &led
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if verr := ValidateLedger(led.Bytes()); verr != nil {
		t.Fatalf("profiled ledger fails schema validation: %v", verr)
	}
	stripped, err := StripLedgerWallClock(led.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	return p, res, stripped
}

// boardFingerprint reduces a board profile to its deterministic core:
// everything except the wall-clock-derived ns fields.
func boardFingerprint(p *Profile) string {
	var b strings.Builder
	fmt.Fprintf(&b, "engine=%s cycles=%d unattr=%d\n",
		p.Engine, p.TotalCycles, p.Unattributed)
	for _, f := range p.Flows {
		fmt.Fprintf(&b, "%s %05o %d %.9f %v\n", f.Name, f.Entry, f.Cycles, f.Share, f.ClassCycles)
	}
	return b.String()
}

// TestProfilerParallelBitExact: the board profile — flows, cycles,
// shares, class vectors — and the stripped ledger (including the prof
// event) are identical at Parallelism 1 and 4. Each workload's board
// counts are exact and merge in workload order, so parallel scheduling
// cannot move a single count.
func TestProfilerParallelBitExact(t *testing.T) {
	cfg := RunConfig{
		Instructions: 1500,
		Workloads:    []WorkloadID{TimesharingA, RTEScientific, RTECommercial},
	}
	sp, sres, sled := profiledRun(t, cfg, 1)
	pp, pres, pled := profiledRun(t, cfg, 4)

	sprof, pprof := sp.Profile(), pp.Profile()
	if sprof == nil || pprof == nil {
		t.Fatal("profiler published no profile")
	}
	if sf, pf := boardFingerprint(sprof), boardFingerprint(pprof); sf != pf {
		t.Errorf("board profiles differ across parallelism:\nseq:\n%s\npar:\n%s", sf, pf)
	}
	if !bytes.Equal(sled, pled) {
		t.Error("stripped profiled ledgers differ across parallelism")
	}
	if !strings.Contains(string(sled), `"msg":"prof"`) {
		t.Error("profiled ledger carries no prof event")
	}

	// The exact engine attributes the composite histogram, which is
	// already bit-exact seq↔par; its serialized attribution must match too.
	sj, err := json.Marshal(sres.Profile())
	if err != nil {
		t.Fatal(err)
	}
	pj, err := json.Marshal(pres.Profile())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sj, pj) {
		t.Error("exact profiles differ across parallelism")
	}
}

// TestExactSampledTopFlowsAgree: the two engines rank the same five
// flows hottest, and the in-run profile's cycles are the board's exact
// counts.
func TestExactSampledTopFlowsAgree(t *testing.T) {
	p := &Profiler{}
	res, err := Run(RunConfig{
		Instructions: 20_000,
		Workloads:    []WorkloadID{TimesharingA},
		Profiler:     p,
	})
	if err != nil {
		t.Fatal(err)
	}
	exact := res.Profile()
	board := p.Profile()
	if board == nil {
		t.Fatal("no in-run profile")
	}
	names := func(pr *Profile) map[string]bool {
		m := map[string]bool{}
		for _, f := range pr.Top(5) {
			m[f.Name] = true
		}
		return m
	}
	en, bn := names(exact), names(board)
	if len(en) != 5 || len(bn) != 5 {
		t.Fatalf("top-5 sizes: exact %d, in-run %d", len(en), len(bn))
	}
	for n := range en {
		if !bn[n] {
			t.Errorf("exact top-5 flow %q missing from in-run top-5 %v", n, bn)
		}
	}

	// The in-run profile prices the board's own counts, so the hottest
	// flow's cycles are the exact count.
	eTop, sTop := exact.Top(1)[0], board.Top(1)[0]
	if eTop.Name != sTop.Name {
		t.Fatalf("hottest flow: exact %q, in-run %q", eTop.Name, sTop.Name)
	}
	if sTop.Cycles != eTop.Cycles || board.TotalCycles != exact.TotalCycles {
		t.Errorf("hottest flow %q: in-run %d of %d cycles, exact %d of %d",
			eTop.Name, sTop.Cycles, board.TotalCycles, eTop.Cycles, exact.TotalCycles)
	}
}

// TestProfEndpointServesProfile: /prof is 503 before any profiler run
// and serves the latest profile JSON afterwards.
func TestProfEndpointServesProfile(t *testing.T) {
	tel := NewTelemetry(1500, 0)
	srv := httptest.NewServer(tel.Handler())
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/prof")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 503 {
		t.Fatalf("/prof before any run: status %d, want 503", resp.StatusCode)
	}

	p := &Profiler{}
	if _, err := Run(RunConfig{
		Instructions: 1500,
		Workloads:    []WorkloadID{TimesharingA},
		Telemetry:    tel,
		Profiler:     p,
	}); err != nil {
		t.Fatal(err)
	}

	resp, err = srv.Client().Get(srv.URL + "/prof")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/prof after run: status %d, want 200", resp.StatusCode)
	}
	var served Profile
	if err := json.NewDecoder(resp.Body).Decode(&served); err != nil {
		t.Fatal(err)
	}
	if served.Engine != "board" || len(served.Flows) == 0 {
		t.Fatalf("served profile: engine %q, %d flows", served.Engine, len(served.Flows))
	}
}

// TestProfilerSpanExports: the span tree has the run → workload → flow
// shape, the Chrome export carries it, and it round-trips through the
// obs JSONL rows.
func TestProfilerSpanExports(t *testing.T) {
	var trace bytes.Buffer
	p := &Profiler{Trace: &trace}
	ids := []WorkloadID{TimesharingA, RTEEducational}
	if _, err := Run(RunConfig{
		Instructions: 1500,
		Workloads:    ids,
		Profiler:     p,
	}); err != nil {
		t.Fatal(err)
	}

	root := p.SpanTree()
	if root == nil || root.Kind != "run" {
		t.Fatalf("span root = %+v, want a run span", root)
	}
	if len(root.Children()) != len(ids) {
		t.Fatalf("run span has %d children, want %d workloads", len(root.Children()), len(ids))
	}
	for _, ws := range root.Children() {
		if ws.Kind != "workload" {
			t.Errorf("child span kind %q, want workload", ws.Kind)
		}
		if len(ws.Children()) == 0 {
			t.Errorf("workload span %q has no flow children", ws.Name)
		}
	}

	var chrome struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(trace.Bytes(), &chrome); err != nil {
		t.Fatalf("Chrome trace is not JSON: %v", err)
	}
	if len(chrome.TraceEvents) != len(obs.Flatten(root.Name, root)) {
		t.Errorf("Chrome trace has %d events for %d spans",
			len(chrome.TraceEvents), len(obs.Flatten(root.Name, root)))
	}

	var rows bytes.Buffer
	if err := obs.WriteRows(&rows, root.Name, root); err != nil {
		t.Fatal(err)
	}
	trID, parsed, err := obs.ParseRows(rows.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if err := obs.WriteRows(&again, trID, parsed); err != nil {
		t.Fatal(err)
	}
	if trID != root.Name || !bytes.Equal(rows.Bytes(), again.Bytes()) {
		t.Fatalf("span rows do not round-trip:\n%s\nvs\n%s", rows.Bytes(), again.Bytes())
	}
}

// TestFlightDepthValidation: a positive non-power-of-two FlightDepth
// is rejected before any work; powers of two, zero, and negative
// depths pass.
func TestFlightDepthValidation(t *testing.T) {
	base := RunConfig{Instructions: 200, Workloads: []WorkloadID{TimesharingA}}

	cfg := base
	cfg.FlightDepth = 100
	if _, err := Run(cfg); err == nil {
		t.Fatal("FlightDepth=100 accepted, want rejection")
	} else if !strings.Contains(err.Error(), "power of two") {
		t.Fatalf("FlightDepth=100 rejection says %q, want a power-of-two hint", err)
	}

	for _, depth := range []int{0, -1, 64, 256} {
		cfg := base
		cfg.FlightDepth = depth
		if _, err := Run(cfg); err != nil {
			t.Errorf("FlightDepth=%d rejected: %v", depth, err)
		}
	}
}
