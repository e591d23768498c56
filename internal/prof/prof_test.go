package prof

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"vax780/internal/analysis"
	"vax780/internal/obs"
	"vax780/internal/ulint"
	"vax780/internal/upc"
	"vax780/internal/urom"
)

func testIndex(t testing.TB) (*urom.ROM, *ulint.FlowIndex) {
	t.Helper()
	rom := urom.Build()
	return rom, ulint.NewFlowIndex(rom)
}

// synthetic histogram: every owned word of the first few flows ticked,
// restricted to buckets the EBOX can physically pulse.
func synthHist(ix *ulint.FlowIndex) *upc.Histogram {
	rom := urom.Build()
	h := &upc.Histogram{}
	for i, f := range ix.Flows() {
		if i >= 8 {
			break
		}
		for _, w := range f.Words {
			mi := rom.Image.At(w)
			if analysis.BucketTickable(mi, false) {
				h.Normal[w] = uint64(100 * (i + 1))
			}
			if analysis.BucketTickable(mi, true) {
				h.Stalled[w] = uint64(10 * (i + 1))
			}
		}
	}
	return h
}

func TestExactAttributesAllCycles(t *testing.T) {
	rom, ix := testIndex(t)
	h := synthHist(ix)
	p := Exact(rom, ix, h)
	if p.Engine != "exact" {
		t.Fatalf("engine = %q", p.Engine)
	}
	if p.TotalCycles != h.TotalCycles() {
		t.Fatalf("total %d, histogram holds %d", p.TotalCycles, h.TotalCycles())
	}
	var flowCycles uint64
	var shares float64
	for _, f := range p.Flows {
		flowCycles += f.Cycles
		shares += f.Share
	}
	if flowCycles+p.Unattributed != p.TotalCycles {
		t.Fatalf("flows %d + unattributed %d != total %d",
			flowCycles, p.Unattributed, p.TotalCycles)
	}
	if p.Unattributed > 0 {
		t.Fatalf("synthetic histogram over owned words left %d unattributed", p.Unattributed)
	}
	if math.Abs(shares-1) > 1e-9 {
		t.Fatalf("shares sum to %v", shares)
	}
	// Hottest-first order.
	for i := 1; i < len(p.Flows); i++ {
		if p.Flows[i].Cycles > p.Flows[i-1].Cycles {
			t.Fatal("flows not sorted hottest first")
		}
	}
}

// TestBoardPricesWallByShare: the board engine attributes the same
// exact cycles as the exact engine and hands each flow its share of
// the measured wall time.
func TestBoardPricesWallByShare(t *testing.T) {
	rom, ix := testIndex(t)
	h := synthHist(ix)
	p := Board(rom, ix, h, 1e9)
	if p.Engine != "board" {
		t.Fatalf("engine = %q", p.Engine)
	}
	ex := Exact(rom, ix, h)
	if p.TotalCycles != ex.TotalCycles || len(p.Flows) != len(ex.Flows) {
		t.Fatalf("board %d cycles in %d flows, exact %d in %d",
			p.TotalCycles, len(p.Flows), ex.TotalCycles, len(ex.Flows))
	}
	for i, f := range p.Flows {
		if f.Name != ex.Flows[i].Name || f.Cycles != ex.Flows[i].Cycles {
			t.Errorf("flow %d: board %s %d, exact %s %d", i, f.Name, f.Cycles,
				ex.Flows[i].Name, ex.Flows[i].Cycles)
		}
		if math.Abs(f.Ns-f.Share*1e9) > 1e-6 {
			t.Errorf("flow %s: %v ns for share %v", f.Name, f.Ns, f.Share)
		}
	}
	if math.Abs(p.TotalNs-1e9) > 1e-3*1e9 {
		t.Fatalf("board total ns %v should equal wall ns 1e9", p.TotalNs)
	}
}

func TestProfileJSONRoundTrip(t *testing.T) {
	rom, ix := testIndex(t)
	p := Board(rom, ix, synthHist(ix), 5e8)
	var buf bytes.Buffer
	if err := p.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	q, err := ReadProfile(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if q.TotalCycles != p.TotalCycles || len(q.Flows) != len(p.Flows) {
		t.Fatal("round trip lost data")
	}
}

func TestTableRenders(t *testing.T) {
	rom, ix := testIndex(t)
	p := Board(rom, ix, synthHist(ix), 5e8)
	tbl := p.Table(5)
	if !strings.Contains(tbl, "hot flows") || !strings.Contains(tbl, p.Flows[0].Name) {
		t.Fatalf("table missing content:\n%s", tbl)
	}
}

func TestDiffProfiles(t *testing.T) {
	rom, ix := testIndex(t)
	h1 := synthHist(ix)
	p1 := Exact(rom, ix, h1)
	// Double the hottest flow's counts in the second profile.
	h2 := synthHist(ix)
	hot := p1.Flows[0]
	for fi, f := range ix.Flows() {
		if f.Name != hot.Name {
			continue
		}
		_ = fi
		for _, w := range f.Words {
			h2.Normal[w] *= 2
			h2.Stalled[w] *= 2
		}
	}
	p2 := Exact(rom, ix, h2)
	deltas := DiffProfiles(p1, p2)
	if len(deltas) == 0 || deltas[0].Name != hot.Name || deltas[0].ShareDelta <= 0 {
		t.Fatalf("hottest mover should be %s gaining share; got %+v", hot.Name, deltas[0])
	}
	out := RenderDiff(deltas, 10, 0)
	if !strings.Contains(out, hot.Name) {
		t.Fatalf("render missing mover:\n%s", out)
	}
}

func TestSpansExport(t *testing.T) {
	rom, ix := testIndex(t)
	p := Board(rom, ix, synthHist(ix), 5e8)
	root := (&obs.Span{Kind: "run", Name: "composite"}).SetWall(0, 1e9)
	ws := root.Child("workload", "TIMESHARING-A").SetWall(0, 5e8)
	FlowSpans(ws, p, 4)
	if len(ws.Children()) == 0 {
		t.Fatal("no flow spans synthesized")
	}
	var total float64
	for _, c := range ws.Children() {
		if c.Kind != "flow" {
			t.Fatalf("child kind %q", c.Kind)
		}
		total += c.DurNs
	}
	if math.Abs(total-ws.DurNs)/ws.DurNs > 1e-6 {
		t.Fatalf("flow spans cover %v of %v ns", total, ws.DurNs)
	}

	var chrome bytes.Buffer
	if err := obs.WriteChromeTrace(&chrome, "prof", root); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(chrome.Bytes(), &parsed); err != nil {
		t.Fatalf("chrome trace not valid JSON: %v", err)
	}
	if len(parsed.TraceEvents) != 2+len(ws.Children()) {
		t.Fatalf("chrome trace has %d events", len(parsed.TraceEvents))
	}

	var rows bytes.Buffer
	if err := obs.WriteRows(&rows, "prof", root); err != nil {
		t.Fatal(err)
	}
	if got, want := bytes.Count(rows.Bytes(), []byte("\n")), 2+len(ws.Children()); got != want {
		t.Fatalf("%d span rows, want %d", got, want)
	}
}
