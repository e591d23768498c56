package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"strings"
	"testing"

	"vax780/internal/runlog"
)

// sampleTree builds a small run-shaped trace exercising every run-side
// span kind.
func sampleTree() (*Recorder, *Span) {
	rec := NewRecorder("k-0123")
	root := rec.Begin("run", "TIMESHARING-A,TIMESHARING-A")
	root.Attr("config", "00000000deadbeef").Attr("workloads", 2).
		Attr("instructions", 1000).Attr("retries", 1).Attr("resumed", 1)
	root.SetCycles(21900)
	rs := root.Child("resume", "resume")
	rs.Attr("restored", 1)
	for i := 0; i < 2; i++ {
		ws := root.Child("workload", "TIMESHARING-A")
		ws.Attr("index", i).Attr("instructions", 1000).Attr("cpi", 10.95)
		ws.SetCycles(10950)
		fs := ws.Child("flow", "IRD")
		fs.Attr("entry", 16).Attr("share", 0.41)
		fs.SetCycles(4000)
		cs := ws.Child("checkpoint", "checkpoint")
		cs.Attr("records", i+1)
	}
	rt := root.Children()[1].Child("retry", "retries")
	rt.Attr("count", 1)
	return rec, root
}

func TestPathIDDeterministic(t *testing.T) {
	a := PathID("trace-1", "run/0:wl")
	if a != PathID("trace-1", "run/0:wl") {
		t.Fatal("PathID not stable")
	}
	if a == PathID("trace-2", "run/0:wl") || a == PathID("trace-1", "run/1:wl") {
		t.Fatal("PathID does not separate trace/path")
	}
	if len(a) != 16 {
		t.Fatalf("PathID %q not 16 hex digits", a)
	}
}

func TestWriteRowsValidatesAndRoundTrips(t *testing.T) {
	rec, _ := sampleTree()
	var buf bytes.Buffer
	if err := rec.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if err := ValidateSpans(buf.Bytes()); err != nil {
		t.Fatalf("sample trace fails its own schema: %v", err)
	}
	// Duplicate workload names must still produce distinct IDs.
	trace, root, err := ParseRows(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if trace != "k-0123" {
		t.Fatalf("trace = %q", trace)
	}
	var buf2 bytes.Buffer
	if err := WriteRows(&buf2, trace, root); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatalf("ParseRows/WriteRows does not round-trip:\n%s\nvs\n%s", buf.Bytes(), buf2.Bytes())
	}
	// The export is repeatable byte for byte.
	var buf3 bytes.Buffer
	if err := rec.WriteJSONL(&buf3); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf3.Bytes()) {
		t.Fatal("re-export changed bytes")
	}
}

func TestValidateSpansRejects(t *testing.T) {
	rec, _ := sampleTree()
	var buf bytes.Buffer
	if err := rec.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")

	mutate := func(name string, fn func(rows []map[string]any)) {
		rows := make([]map[string]any, len(lines))
		for i, l := range lines {
			if err := json.Unmarshal([]byte(l), &rows[i]); err != nil {
				t.Fatal(err)
			}
		}
		fn(rows)
		var out bytes.Buffer
		for _, r := range rows {
			enc, _ := json.Marshal(r)
			out.Write(append(enc, '\n'))
		}
		if err := ValidateSpans(out.Bytes()); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	mutate("id not derived from path", func(rows []map[string]any) {
		rows[2]["id"] = "0000000000000000"
	})
	mutate("orphan parent", func(rows []map[string]any) {
		rows[2]["parent"] = PathID("k-0123", "nowhere")
	})
	mutate("unknown kind", func(rows []map[string]any) {
		rows[0]["kind"] = "mystery"
	})
	mutate("extra attr", func(rows []map[string]any) {
		attrsOf(t, rows[1])["bogus"] = 1
	})
	mutate("missing required attr", func(rows []map[string]any) {
		delete(attrsOf(t, rows[1]), "restored")
	})
	mutate("second trace id", func(rows []map[string]any) {
		rows[3]["trace"] = "other"
		rows[3]["id"] = PathID("other", rows[3]["path"].(string))
	})
	mutate("key outside envelope", func(rows []map[string]any) {
		rows[0]["wall"] = 5
	})
	if err := ValidateSpans(nil); err == nil {
		t.Error("empty trace accepted")
	}
}

// attrsOf digs the attrs map out of a decoded row.
func attrsOf(t *testing.T, row map[string]any) map[string]any {
	t.Helper()
	m, ok := row["attrs"].(map[string]any)
	if !ok {
		t.Fatal("row has no attrs")
	}
	return m
}

func TestStripWall(t *testing.T) {
	rec, root := sampleTree()
	root.Children()[1].SetWall(1e6, 2e6) // profiler splice on one workload
	var walled bytes.Buffer
	if err := rec.WriteJSONL(&walled); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(walled.Bytes(), []byte("start_ns")) {
		t.Fatal("wall placement not exported")
	}
	stripped, err := StripWall(walled.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(stripped, []byte("start_ns")) || bytes.Contains(stripped, []byte("dur_ns")) {
		t.Fatal("StripWall left wall keys")
	}
	// A wall-free export strips to the same canonical bytes.
	rec2, _ := sampleTree()
	var plain bytes.Buffer
	if err := rec2.WriteJSONL(&plain); err != nil {
		t.Fatal(err)
	}
	stripped2, err := StripWall(plain.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stripped, stripped2) {
		t.Fatalf("wall placement leaked into stripped bytes:\n%s\nvs\n%s", stripped, stripped2)
	}
	if err := ValidateSpans(stripped); err != nil {
		t.Fatalf("stripped trace fails schema: %v", err)
	}
}

// TestStripEntryPoints: the ledger and trace strippers share one
// canonicalizer (runlog.Canonicalize). Each drops only its own
// wall-clock keys, re-encodes with sorted keys, skips blank lines, and
// keeps a complete final record that lacks its newline; a torn final
// record is an error, never silently dropped.
func TestStripEntryPoints(t *testing.T) {
	rec := `{"z":1,"time":"t","start_ns":5,"host":{"b":2,"a":1},"dur_ns":7,"a":{"y":2,"x":1}}`
	ledger := `{"a":{"x":1,"y":2},"dur_ns":7,"start_ns":5,"z":1}` + "\n"
	trace := `{"a":{"x":1,"y":2},"host":{"a":1,"b":2},"time":"t","z":1}` + "\n"
	for _, c := range []struct {
		name, in              string
		wantLedger, wantTrace string
		wantErr               bool
	}{
		{name: "sorted keys", in: rec + "\n", wantLedger: ledger, wantTrace: trace},
		{name: "blank lines", in: "\n  \n" + rec + "\n\n" + rec + "\n\t\n",
			wantLedger: ledger + ledger, wantTrace: trace + trace},
		{name: "unterminated final line", in: rec + "\n" + rec,
			wantLedger: ledger + ledger, wantTrace: trace + trace},
		{name: "torn final line", in: rec + "\n" + rec[:20], wantErr: true},
		{name: "empty", in: ""},
	} {
		for _, e := range []struct {
			strip func([]byte) ([]byte, error)
			want  string
		}{
			{runlog.StripWallClock, c.wantLedger},
			{StripWall, c.wantTrace},
		} {
			got, err := e.strip([]byte(c.in))
			if c.wantErr {
				if err == nil || !strings.Contains(err.Error(), "line 2") {
					t.Errorf("%s: err = %v, want a line-2 error", c.name, err)
				}
				continue
			}
			if err != nil || string(got) != e.want {
				t.Errorf("%s: got %q, %v; want %q", c.name, got, err, e.want)
			}
		}
	}
}

// wallTree builds a profiler-shaped tree whose two wall-placed
// workloads overlap in time, as concurrently running workloads do.
func wallTree() (*Recorder, *Span) {
	rec := NewRecorder("k-wall")
	root := rec.Begin("run", "A,B").SetWall(0, 3e6)
	a := root.Child("workload", "A").SetWall(0, 2e6)
	a.Child("flow", "IRD").SetWall(0, 1e6)
	root.Child("workload", "B").SetWall(5e5, 2e6)
	return rec, root
}

// wallTreeRows pins wallTree's JSONL export: the Chrome writer's track
// rule must not leak into the row bytes.
const wallTreeRows = `{"trace":"k-wall","id":"64c5d12101612570","kind":"run","name":"A,B","path":"A,B","dur_ns":3000000}
{"trace":"k-wall","id":"01f6ae57783f59d2","parent":"64c5d12101612570","kind":"workload","name":"A","path":"A,B/0:A","dur_ns":2000000}
{"trace":"k-wall","id":"08ce1d09b0c7e6aa","parent":"01f6ae57783f59d2","kind":"flow","name":"IRD","path":"A,B/0:A/0:IRD","dur_ns":1000000}
{"trace":"k-wall","id":"f8ed8a577305a778","parent":"64c5d12101612570","kind":"workload","name":"B","path":"A,B/1:B","start_ns":500000,"dur_ns":2000000}
`

func TestChromeExport(t *testing.T) {
	for _, build := range []func() (*Recorder, *Span){sampleTree, wallTree} {
		rec, root := build()
		var a, b bytes.Buffer
		if err := WriteChromeTrace(&a, rec.TraceID(), root); err != nil {
			t.Fatal(err)
		}
		if err := WriteChromeTrace(&b, rec.TraceID(), root); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatal("Chrome export not deterministic")
		}
		var out struct {
			TraceEvents []struct {
				Name string  `json:"name"`
				Cat  string  `json:"cat"`
				Ph   string  `json:"ph"`
				Dur  float64 `json:"dur"`
				Tid  int     `json:"tid"`
			} `json:"traceEvents"`
		}
		if err := json.Unmarshal(a.Bytes(), &out); err != nil {
			t.Fatal(err)
		}
		if want := len(Flatten(rec.TraceID(), root)); len(out.TraceEvents) != want {
			t.Fatalf("chrome events %d, spans %d", len(out.TraceEvents), want)
		}
		// Track rule: the root on tid 0, each depth-1 span on its own
		// tid, deeper spans on their parent's.
		tids := make(map[int]bool)
		for i, ev := range out.TraceEvents {
			if ev.Ph != "X" || ev.Dur <= 0 {
				t.Fatalf("bad chrome event %+v", ev)
			}
			switch {
			case i == 0 && ev.Tid != 0:
				t.Fatalf("root on tid %d", ev.Tid)
			case ev.Cat == "workload":
				if tids[ev.Tid] {
					t.Fatalf("workload %q shares tid %d", ev.Name, ev.Tid)
				}
				tids[ev.Tid] = true
			case ev.Cat == "flow" && ev.Tid != out.TraceEvents[i-1].Tid:
				t.Fatalf("flow %q on tid %d, its workload on %d", ev.Name, ev.Tid, out.TraceEvents[i-1].Tid)
			}
		}
		if len(tids) != 2 {
			t.Fatalf("%d workload tracks, want 2", len(tids))
		}
	}

	rec, root := wallTree()
	var rows bytes.Buffer
	if err := WriteRows(&rows, rec.TraceID(), root); err != nil {
		t.Fatal(err)
	}
	if rows.String() != wallTreeRows {
		t.Fatalf("wall-placed rows changed:\n%s", rows.Bytes())
	}
}

func TestNilHooksAreSafe(t *testing.T) {
	var r *Recorder
	s := r.Begin("run", "x")
	s.Child("workload", "y").Attr("k", 1).SetCycles(5).SetWall(1, 2)
	if r.TraceID() != "" || r.Root() != nil || s.Children() != nil || s.AttrMap() != nil {
		t.Fatal("nil recorder leaked state")
	}
	var m *Metrics
	m.Count(Rec{Msg: runlog.EvJobQueued})
	m.Observe("vaxd_job_duration_seconds", "t", 1)
	m.Gauge("g", "h", func() float64 { return 0 })
	if m.Counters() != nil {
		t.Fatal("nil metrics returned counters")
	}
	if err := m.WritePrometheus(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
}

// journalLine fabricates one journal record the way the manager's
// slog handler would render it.
func journalLine(tm string, ev runlog.Event) string {
	rec := map[string]any{"time": tm, "level": "INFO", "msg": ev.Type}
	for _, a := range ev.Attrs {
		rec[a.Key] = attrVal(a.Value)
	}
	b, _ := json.Marshal(rec)
	return string(b)
}

// attrVal renders a slog value json-marshalable, groups as objects —
// matching the slog JSON handler's wire form.
func attrVal(v slog.Value) any {
	v = v.Resolve()
	if v.Kind() == slog.KindGroup {
		m := map[string]any{}
		for _, a := range v.Group() {
			m[a.Key] = attrVal(a.Value)
		}
		return m
	}
	return v.Any()
}

func sampleJournal() string {
	t := func(ms int) string { return fmt.Sprintf("2026-08-08T10:00:%02d.%03d000000Z", ms/1000, ms%1000) }
	lines := []string{
		journalLine(t(0), runlog.JobQueuedEvent("j-0001", "k-0123", "alice", 30000, map[string]any{"instructions": 1000})),
		journalLine(t(1), runlog.JobHTTPEvent("j-0001", "POST /jobs", "alice", 202, 1e6)),
		journalLine(t(2), runlog.JobStartEvent("j-0001", "k-0123", 0)),
		journalLine(t(400), runlog.JobDoneEvent("j-0001", "k-0123", "evicted", "drain", false, 0, 0, 0)),
		journalLine(t(401), runlog.DrainEvent("SIGTERM", 1)),
		journalLine(t(500), runlog.JobStartEvent("j-0001", "k-0123", 1)),
		journalLine(t(900), runlog.JobDoneEvent("j-0001", "k-0123", "done", "", false, 1000, 21900, 10.95)),
		journalLine(t(950), runlog.JobShedEvent("bob", "queue-full")),
		journalLine(t(951), runlog.JobHTTPEvent("", "POST /jobs", "bob", 429, 0.5e6)),
		journalLine(t(960), runlog.CommitRaceEvent("k-0123")),
		journalLine(t(970), runlog.JournalTornEvent(1)),
	}
	return strings.Join(lines, "\n") + "\n"
}

func TestRecomposeAndValidate(t *testing.T) {
	journal := sampleJournal()
	m := NewMetrics()
	for _, line := range strings.Split(strings.TrimSpace(journal), "\n") {
		if r, ok := ParseRec([]byte(line)); ok {
			m.Count(r)
		}
	}
	if err := Validate(m.Counters(), strings.NewReader(journal)); err != nil {
		t.Fatalf("live counters fed from the same journal do not validate: %v", err)
	}
	got := m.Counters()
	for key, want := range map[string]float64{
		`vaxd_jobs_submitted_total{tenant="alice"}`: 1,
		`vaxd_job_starts_total`:                     2,
		`vaxd_jobs_done_total{state="evicted"}`:     1,
		`vaxd_jobs_done_total{state="done"}`:        1,
		`vaxd_jobs_shed_total{reason="queue-full"}`: 1,
		`vaxd_requests_total{tenant="alice"}`:       1,
		`vaxd_requests_total{tenant="bob"}`:         1,
		`vaxd_request_errors_total{tenant="bob"}`:   1,
		`vaxd_drains_total`:                         1,
		`vaxd_castore_commit_races_total`:           1,
		`vaxd_castore_torn_tails_total`:             1,
	} {
		if got[key] != want {
			t.Errorf("%s = %g, want %g", key, got[key], want)
		}
	}
	// A counter moved without journal support must be caught...
	m.Count(Rec{Msg: runlog.EvJobShed, Tenant: "bob", Reason: "quota"})
	if err := Validate(m.Counters(), strings.NewReader(journal)); err == nil {
		t.Fatal("Validate missed an unsupported live counter")
	}
	// ...and so must a journaled event that was never counted.
	m2 := NewMetrics()
	if err := Validate(m2.Counters(), strings.NewReader(journal)); err == nil {
		t.Fatal("Validate missed missing live counters")
	}
}

func TestPrometheusRendering(t *testing.T) {
	m := NewMetrics()
	m.Count(Rec{Msg: runlog.EvJobQueued, Tenant: "alice"})
	m.Count(Rec{Msg: runlog.EvJobQueued, Tenant: "bob"})
	m.Observe("vaxd_request_duration_seconds", "alice", 0.002)
	m.Observe("vaxd_request_duration_seconds", "alice", 120)
	m.Gauge("vaxd_queue_depth", "jobs waiting", func() float64 { return 3 })
	var buf bytes.Buffer
	if err := m.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE vaxd_jobs_submitted_total counter",
		`vaxd_jobs_submitted_total{tenant="alice"} 1`,
		`vaxd_jobs_submitted_total{tenant="bob"} 1`,
		"# TYPE vaxd_request_duration_seconds histogram",
		`vaxd_request_duration_seconds_bucket{tenant="alice",le="0.005"} 1`,
		`vaxd_request_duration_seconds_bucket{tenant="alice",le="+Inf"} 2`,
		`vaxd_request_duration_seconds_count{tenant="alice"} 2`,
		"# TYPE vaxd_queue_depth gauge",
		"vaxd_queue_depth 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("rendering missing %q:\n%s", want, out)
		}
	}
	// Rendering is deterministic.
	var buf2 bytes.Buffer
	if err := m.WritePrometheus(&buf2); err != nil {
		t.Fatal(err)
	}
	if buf.String() != buf2.String() {
		t.Fatal("Prometheus rendering not deterministic")
	}
}

func TestAssembleJob(t *testing.T) {
	// The bundle's run trace, as runSingle would stage it.
	rec, _ := sampleTree()
	var bundle bytes.Buffer
	if err := rec.WriteJSONL(&bundle); err != nil {
		t.Fatal(err)
	}
	trace, root, err := AssembleJob(strings.NewReader(sampleJournal()), "j-0001", bundle.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if trace != "job-j-0001" {
		t.Fatalf("trace = %q", trace)
	}
	var out bytes.Buffer
	if err := WriteRows(&out, trace, root); err != nil {
		t.Fatal(err)
	}
	if err := ValidateSpans(out.Bytes()); err != nil {
		t.Fatalf("assembled trace fails schema: %v\n%s", err, out.Bytes())
	}
	kinds := map[string]int{}
	for _, row := range Flatten(trace, root) {
		kinds[row.Kind]++
	}
	// Two lives: two queue waits, two attempts (evicted + done), the
	// admission http span, and the spliced run subtree.
	for kind, want := range map[string]int{
		"job": 1, "http": 1, "queue": 2, "attempt": 2,
		"run": 1, "resume": 1, "workload": 2, "flow": 2, "checkpoint": 2, "retry": 1,
	} {
		if kinds[kind] != want {
			t.Errorf("%s spans = %d, want %d (kinds: %v)", kind, kinds[kind], want, kinds)
		}
	}
	if root.AttrMap()["state"] != "done" || root.AttrMap()["requeues"] != 1 {
		t.Fatalf("job span attrs: %v", root.AttrMap())
	}
	if root.StartNs != 0 || root.DurNs <= 0 {
		t.Fatalf("job span not normalized: start %g dur %g", root.StartNs, root.DurNs)
	}
	// Chrome form of the assembled trace must also encode.
	var chrome bytes.Buffer
	if err := WriteChromeTrace(&chrome, trace, root); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(chrome.Bytes()) {
		t.Fatal("assembled chrome trace invalid")
	}

	// A job with no events is an error.
	if _, _, err := AssembleJob(strings.NewReader(sampleJournal()), "j-9999", nil); err == nil {
		t.Fatal("AssembleJob accepted an unknown job")
	}
	// A cached hit (queued + done, no start) still assembles.
	cached := journalLine("2026-08-08T11:00:00Z", runlog.JobQueuedEvent("j-0002", "k-0123", "alice", 0, nil)) + "\n" +
		journalLine("2026-08-08T11:00:00.001Z", runlog.JobDoneEvent("j-0002", "k-0123", "done", "", true, 1000, 21900, 10.95)) + "\n"
	_, cr, err := AssembleJob(strings.NewReader(cached), "j-0002", nil)
	if err != nil {
		t.Fatal(err)
	}
	if cr.AttrMap()["cached"] != true || len(cr.Children()) != 0 {
		t.Fatalf("cached job span: attrs %v, %d children", cr.AttrMap(), len(cr.Children()))
	}
}

// TestSpanStreamOutcomes is the accept/reject table of span-stream
// validation and parsing: blank, whitespace-only and CRLF rows and an
// unterminated tail are skipped; a second root is rejected by both.
func TestSpanStreamOutcomes(t *testing.T) {
	rec, _ := sampleTree()
	var buf bytes.Buffer
	if err := rec.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	valid := buf.String()
	rows := strings.SplitAfter(valid, "\n")
	root := rows[0]
	var other map[string]any
	if err := json.Unmarshal([]byte(root), &other); err != nil {
		t.Fatal(err)
	}
	other["path"] = "other"
	other["id"] = PathID("k-0123", "other")
	second, _ := json.Marshal(other)
	cases := []struct {
		name, stream string
		validate     string // ValidateSpans' error; "" accepts
		parse        string // ParseRows' error; "" accepts
	}{
		{"export", valid, "", ""},
		{"torn tail", valid + root[:30], "", ""},
		{"complete row unterminated", valid + strings.TrimSuffix(root, "\n"), "", ""},
		{"blank rows", "\n" + strings.Join(rows, "\n"), "", ""},
		{"whitespace-only rows", " \t\n" + strings.Join(rows, "  \n"), "", ""},
		{"crlf", strings.ReplaceAll(valid, "\n", "\r\n"), "", ""},
		{"empty", "", "empty trace", "obs: empty trace"},
		{"blank only", "\n \n\t\n", "empty trace", "obs: empty trace"},
		{"only torn", root[:30], "empty trace", "obs: empty trace"},
		{"second root", valid + string(second) + "\n", "row 10: second root (no parent)",
			"obs: row 10: second root"},
		{"not json", valid + "nope\n",
			"row 10: not a JSON object: invalid character 'o' in literal null (expecting 'u')",
			"obs: row 10: invalid character 'o' in literal null (expecting 'u')"},
	}
	for _, tc := range cases {
		errText := func(err error) string {
			if err == nil {
				return ""
			}
			return err.Error()
		}
		if got := errText(ValidateSpans([]byte(tc.stream))); got != tc.validate {
			t.Errorf("%s: ValidateSpans = %q, want %q", tc.name, got, tc.validate)
		}
		_, _, err := ParseRows([]byte(tc.stream))
		if got := errText(err); got != tc.parse {
			t.Errorf("%s: ParseRows = %q, want %q", tc.name, got, tc.parse)
		}
	}
}

// TestWritePrometheusGolden pins vaxd's /metrics bytes: counter
// families with escaped labels, histograms with their +Inf bucket,
// and gauges, whose values print in %g form.
func TestWritePrometheusGolden(t *testing.T) {
	m := NewMetrics()
	m.Count(Rec{Msg: runlog.EvJobQueued, Tenant: "alice"})
	m.Count(Rec{Msg: runlog.EvJobQueued, Tenant: "a\"b\\c\nd"})
	m.Count(Rec{Msg: runlog.EvJobQueued, Tenant: "alice"})
	m.Count(Rec{Msg: runlog.EvJobDone, State: "done", Cached: true})
	m.Count(Rec{Msg: runlog.EvDrain})
	m.Observe("vaxd_request_duration_seconds", "alice", 0.002)
	m.Observe("vaxd_request_duration_seconds", "alice", 120)
	m.Observe("vaxd_job_duration_seconds", `x"y`, 3)
	m.Gauge("vaxd_queue_depth", "jobs waiting", func() float64 { return 3 })
	m.Gauge("vaxd_big", "a large gauge", func() float64 { return 1e6 })
	m.Gauge("vaxd_ratio", "a fraction", func() float64 { return 0.125 })
	var buf bytes.Buffer
	if err := m.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	const want = `# HELP vaxd_cache_hits_total submissions answered from the content-addressed store
# TYPE vaxd_cache_hits_total counter
vaxd_cache_hits_total 1
# HELP vaxd_drains_total graceful drains (admission stopped, in-flight jobs requeued)
# TYPE vaxd_drains_total counter
vaxd_drains_total 1
# HELP vaxd_jobs_done_total jobs reaching a terminal or requeue state, by state
# TYPE vaxd_jobs_done_total counter
vaxd_jobs_done_total{state="done"} 1
# HELP vaxd_jobs_submitted_total jobs admitted to the queue or served from cache, by tenant
# TYPE vaxd_jobs_submitted_total counter
vaxd_jobs_submitted_total{tenant="a\"b\\c\nd"} 1
vaxd_jobs_submitted_total{tenant="alice"} 2
# HELP vaxd_job_duration_seconds job execution time, queue exit to terminal state
# TYPE vaxd_job_duration_seconds histogram
vaxd_job_duration_seconds_bucket{tenant="x\"y",le="0.001"} 0
vaxd_job_duration_seconds_bucket{tenant="x\"y",le="0.005"} 0
vaxd_job_duration_seconds_bucket{tenant="x\"y",le="0.025"} 0
vaxd_job_duration_seconds_bucket{tenant="x\"y",le="0.1"} 0
vaxd_job_duration_seconds_bucket{tenant="x\"y",le="0.5"} 0
vaxd_job_duration_seconds_bucket{tenant="x\"y",le="2.5"} 0
vaxd_job_duration_seconds_bucket{tenant="x\"y",le="10"} 1
vaxd_job_duration_seconds_bucket{tenant="x\"y",le="60"} 1
vaxd_job_duration_seconds_bucket{tenant="x\"y",le="+Inf"} 1
vaxd_job_duration_seconds_sum{tenant="x\"y"} 3
vaxd_job_duration_seconds_count{tenant="x\"y"} 1
# HELP vaxd_request_duration_seconds settled POST /jobs request latency
# TYPE vaxd_request_duration_seconds histogram
vaxd_request_duration_seconds_bucket{tenant="alice",le="0.001"} 0
vaxd_request_duration_seconds_bucket{tenant="alice",le="0.005"} 1
vaxd_request_duration_seconds_bucket{tenant="alice",le="0.025"} 1
vaxd_request_duration_seconds_bucket{tenant="alice",le="0.1"} 1
vaxd_request_duration_seconds_bucket{tenant="alice",le="0.5"} 1
vaxd_request_duration_seconds_bucket{tenant="alice",le="2.5"} 1
vaxd_request_duration_seconds_bucket{tenant="alice",le="10"} 1
vaxd_request_duration_seconds_bucket{tenant="alice",le="60"} 1
vaxd_request_duration_seconds_bucket{tenant="alice",le="+Inf"} 2
vaxd_request_duration_seconds_sum{tenant="alice"} 120.002
vaxd_request_duration_seconds_count{tenant="alice"} 2
# HELP vaxd_big a large gauge
# TYPE vaxd_big gauge
vaxd_big 1e+06
# HELP vaxd_queue_depth jobs waiting
# TYPE vaxd_queue_depth gauge
vaxd_queue_depth 3
# HELP vaxd_ratio a fraction
# TYPE vaxd_ratio gauge
vaxd_ratio 0.125
`
	if got := buf.String(); got != want {
		t.Errorf("WritePrometheus body:\n%s\nwant:\n%s", got, want)
	}
}

// TestRecomposeSkipsBlankAndTorn: the journal replay behind Recompose
// counts every complete record, whatever its line ending, and nothing
// from blank lines or an unterminated tail.
func TestRecomposeSkipsBlankAndTorn(t *testing.T) {
	journal := "\n" + `{"msg":"job-queued","tenant":"a"}` + "\r\n \t\n" +
		`  {"msg":"drain"}` + "\n" + `{"msg":"drain"}`
	got, err := Recompose(strings.NewReader(journal))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{`vaxd_jobs_submitted_total{tenant="a"}`: 1, "vaxd_drains_total": 1}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("Recompose = %v, want %v", got, want)
	}
}
