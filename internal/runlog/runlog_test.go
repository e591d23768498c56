package runlog

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"strings"
	"sync"
	"testing"
	"time"
)

// sampleEvents returns one instance of every persistable event type,
// exercising each constructor.
func sampleEvents() []Event {
	flight := []map[string]any{
		{"cycle": 100, "upc": 16, "stalled": false, "class": "exec", "region": "base"},
		{"cycle": 101, "upc": 17, "stalled": true, "class": "exec", "region": "base"},
	}
	return []Event{
		RunStartEvent(0xdeadbeef, "direct,loop", 2, 1000, 42, true),
		ResumeEvent("run.ckpt", 1),
		WlStartEvent("direct", 0, 1000),
		FaultsEvent("direct", 0, 3, "mem-parity=2 tb-glitch=1"),
		RetryEvent("direct", 0, 1, "mem-parity", 0x22, 555, 50),
		WlDoneEvent("direct", 0, 1000, 10949, 10.9, 1, false),
		CheckpointEvent("run.ckpt", 1),
		FaultEvent("loop", 4, 0x31, 777, "ebox", "microcode-hang", false, flight),
		ProfEvent("board", 9600,
			[]map[string]any{{"name": "IRD", "cycles": 4000, "share": 0.41}},
			map[string]any{"wall_ns": 1.5e6}),
		RunDoneEvent(2, 2000, 21900, 10.95, 1, 1, "total=3",
			[]slog.Attr{slog.Float64("COMPUTE", 3.5)},
			[]slog.Attr{slog.String("engine", "board"), slog.Uint64("cycles", 9600),
				slog.String("top_flow", "IRD")},
			HostStats{ElapsedSeconds: 0.5}),
		SweepStartEvent(3),
		PointDoneEvent("cache=0", 0, 1000, 12000, 12.0, ""),
		SweepDoneEvent(3, 0),
		JobQueuedEvent("j-0001", "a1b2c3d4e5f60789", "alice", 30000,
			map[string]any{"instructions": 1000, "workloads": []string{"TIMESHARING-A"}}),
		JobStartEvent("j-0001", "a1b2c3d4e5f60789", 1),
		JobDoneEvent("j-0001", "a1b2c3d4e5f60789", "done", "", false, 1000, 10949, 10.9),
		DrainEvent("SIGTERM", 2),
		JobHTTPEvent("j-0001", "POST /jobs", "alice", 202, 1500000),
		JobShedEvent("bob", "queue-full"),
		CommitRaceEvent("a1b2c3d4e5f60789"),
		JournalTornEvent(1),
	}
}

func TestLedgerJSONLMatchesGoldenSchema(t *testing.T) {
	var buf bytes.Buffer
	led := New(&buf)
	for _, ev := range sampleEvents() {
		led.Emit(ev)
	}
	if err := Validate(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("ledger fails its own schema: %v", err)
	}
	// Every schema type must have been exercised.
	seen := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var rec struct {
			Msg string `json:"msg"`
			Seq uint64 `json:"seq"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("bad line: %v", err)
		}
		seen[rec.Msg] = true
	}
	for typ := range Schema() {
		if !seen[typ] {
			t.Errorf("schema type %q not covered by sampleEvents", typ)
		}
	}
}

func TestLedgerSequenceNumbers(t *testing.T) {
	var buf bytes.Buffer
	led := New(&buf)
	for _, ev := range sampleEvents() {
		led.Emit(ev)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	for i, line := range lines {
		var rec struct {
			Seq uint64 `json:"seq"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatal(err)
		}
		if rec.Seq != uint64(i) {
			t.Fatalf("line %d has seq %d", i, rec.Seq)
		}
	}
}

func TestValidateRejectsBadLines(t *testing.T) {
	cases := map[string]string{
		"unknown type":     `{"time":"t","level":"INFO","msg":"mystery","seq":0}`,
		"missing required": `{"time":"t","level":"INFO","msg":"workload-start","seq":0,"workload":"direct"}`,
		"extra attr":       `{"time":"t","level":"INFO","msg":"sweep-start","seq":0,"points":3,"bogus":1}`,
		"progress in file": `{"time":"t","level":"INFO","msg":"progress","seq":0}`,
		"not json":         `nope`,
	}
	for name, line := range cases {
		if err := ValidateLine([]byte(line)); err == nil {
			t.Errorf("%s: ValidateLine accepted %s", name, line)
		}
	}
	if err := Validate(strings.NewReader("")); err == nil {
		t.Error("Validate accepted an empty ledger")
	}
}

func TestChildAbsorbOrderIsCanonical(t *testing.T) {
	// Two workloads finishing out of order must still persist in the
	// order they are absorbed — the merge's workload order.
	var buf bytes.Buffer
	led := New(&buf)
	c0 := led.Child()
	c1 := led.Child()
	c1.Emit(WlStartEvent("loop", 1, 10)) // "finishes" first
	c0.Emit(WlStartEvent("direct", 0, 10))
	led.Absorb(c0)
	led.Absorb(c1)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("want 2 lines, got %d", len(lines))
	}
	if !strings.Contains(lines[0], `"workload":"direct"`) {
		t.Fatalf("absorb order not canonical: %s", lines[0])
	}
	if !strings.Contains(lines[1], `"workload":"loop"`) {
		t.Fatalf("absorb order not canonical: %s", lines[1])
	}
}

func TestChildPublishesLiveBeforeAbsorb(t *testing.T) {
	led := New(nil)
	ch, cancel := led.Bus().Subscribe(4)
	defer cancel()
	c := led.Child()
	c.Emit(WlStartEvent("direct", 0, 10))
	select {
	case ev := <-ch:
		if ev.Type != EvWlStart {
			t.Fatalf("got %q", ev.Type)
		}
	default:
		t.Fatal("child emit not visible on bus before absorb")
	}
	led.Absorb(c)
	select {
	case ev := <-ch:
		t.Fatalf("absorb re-published %q", ev.Type)
	default:
	}
}

func TestStripWallClock(t *testing.T) {
	var a, b bytes.Buffer
	la := New(&a)
	for _, ev := range sampleEvents() {
		la.Emit(ev)
	}
	time.Sleep(2 * time.Millisecond) // force different timestamps
	lb := New(&b)
	for _, ev := range sampleEvents() {
		lb.Emit(ev)
	}
	if bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("expected raw ledgers to differ by timestamp")
	}
	sa, err := StripWallClock(a.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	sb, err := StripWallClock(b.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sa, sb) {
		t.Fatalf("stripped ledgers differ:\n%s\nvs\n%s", sa, sb)
	}
	if bytes.Contains(sa, []byte(`"time"`)) || bytes.Contains(sa, []byte(`"host"`)) {
		t.Fatal("wall-clock fields survived stripping")
	}
}

func TestNilLedgerIsSafe(t *testing.T) {
	var l *Ledger
	l.Emit(SweepStartEvent(1))
	l.Publish(SweepStartEvent(1))
	c := l.Child()
	c.Emit(SweepStartEvent(1))
	l.Absorb(c)
	if l.Bus() != nil {
		t.Fatal("nil ledger bus should be nil")
	}
	if h := l.Host(100); h != (HostStats{}) {
		t.Fatal("nil ledger host stats should be zero")
	}
	if l.Elapsed() != 0 {
		t.Fatal("nil ledger elapsed should be zero")
	}
	var b *Bus
	b.Publish(SweepStartEvent(1))
	ch, cancel := b.Subscribe(1)
	cancel()
	if _, ok := <-ch; ok {
		t.Fatal("nil bus channel should be closed")
	}
}

func TestBusDropsWhenFull(t *testing.T) {
	b := NewBus()
	ch, cancel := b.Subscribe(1)
	defer cancel()
	done := make(chan struct{})
	go func() {
		for i := 0; i < 100; i++ {
			b.Publish(SweepStartEvent(i))
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("publish blocked on a full subscriber")
	}
	// Exactly one event fits the buffer; the rest dropped.
	ev := <-ch
	if ev.Type != EvSweepStart {
		t.Fatalf("got %q", ev.Type)
	}
}

func TestBusCancelDuringPublish(t *testing.T) {
	b := NewBus()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ch, cancel := b.Subscribe(2)
			for range ch {
			}
			_ = cancel
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				b.Publish(SweepStartEvent(j))
			}
		}()
	}
	// Cancel all subscribers so range loops terminate.
	time.Sleep(10 * time.Millisecond)
	b.mu.Lock()
	subs := make([]*subscriber, 0, len(b.subs))
	for id, s := range b.subs {
		subs = append(subs, s)
		delete(b.subs, id)
	}
	b.mu.Unlock()
	for _, s := range subs {
		close(s.ch)
	}
	wg.Wait()
	if n := b.Subscribers(); n != 0 {
		t.Fatalf("subscribers left: %d", n)
	}
}

func TestEventJSON(t *testing.T) {
	ev := RunDoneEvent(2, 2000, 21900, 10.95, 1, 0, "total=0",
		[]slog.Attr{slog.Float64("COMPUTE", 3.5)}, nil, HostStats{Goroutines: 4})
	var rec map[string]any
	if err := json.Unmarshal(ev.JSON(), &rec); err != nil {
		t.Fatalf("Event.JSON not valid JSON: %v\n%s", err, ev.JSON())
	}
	if rec["ev"] != EvRunDone {
		t.Fatalf("ev field = %v", rec["ev"])
	}
	t8, ok := rec["table8"].(map[string]any)
	if !ok || t8["COMPUTE"] != 3.5 {
		t.Fatalf("table8 group mangled: %v", rec["table8"])
	}
	host, ok := rec["host"].(map[string]any)
	if !ok || host["goroutines"] != float64(4) {
		t.Fatalf("host any-value mangled: %v", rec["host"])
	}
}

func TestTrackerSnapshots(t *testing.T) {
	var mu sync.Mutex
	instrs := uint64(0)
	sample := func() FleetSample {
		mu.Lock()
		defer mu.Unlock()
		return FleetSample{
			Workers: []WorkerSample{{
				Worker: 0, Label: "direct", Instrs: instrs,
				TotalInstrs: 1000, Cycles: instrs * 11, Busy: true,
			}},
			TotalUnits:  2,
			TotalInstrs: 2000,
		}
	}
	var sunk []Snapshot
	var sinkMu sync.Mutex
	tr := NewTracker(10*time.Millisecond, sample, func(s Snapshot) {
		sinkMu.Lock()
		sunk = append(sunk, s)
		sinkMu.Unlock()
	})
	led := New(nil)
	tr.Attach(led)
	ch, cancel := led.Bus().Subscribe(64)
	defer cancel()

	tr.Start()
	for i := 0; i < 5; i++ {
		mu.Lock()
		instrs += 100
		mu.Unlock()
		time.Sleep(12 * time.Millisecond)
	}
	final := tr.Stop()
	if !final.Final {
		t.Fatal("Stop snapshot not marked final")
	}
	if final.Instrs == 0 || final.Cycles == 0 {
		t.Fatalf("final snapshot empty: %+v", final)
	}
	if final.TotalUnits != 2 {
		t.Fatalf("total units = %d", final.TotalUnits)
	}
	if len(final.Workers) != 1 || final.Workers[0].Label != "direct" {
		t.Fatalf("workers: %+v", final.Workers)
	}
	if s, ok := tr.Latest(); !ok || !s.Final {
		t.Fatal("Latest should return the final snapshot")
	}
	sinkMu.Lock()
	n := len(sunk)
	sinkMu.Unlock()
	if n == 0 {
		t.Fatal("sink never called")
	}
	// The bus must have seen progress events.
	sawProgress := false
	for {
		select {
		case ev := <-ch:
			if ev.Type == EvProgress {
				sawProgress = true
			}
			continue
		default:
		}
		break
	}
	if !sawProgress {
		t.Fatal("no progress events on bus")
	}
	// Stop twice is safe.
	tr.Stop()
	var nilTr *Tracker
	nilTr.Start()
	nilTr.Stop()
	nilTr.Attach(nil)
}

func TestCaptureHost(t *testing.T) {
	h := CaptureHost(2*time.Second, 1_000_000)
	if h.ElapsedSeconds != 2 {
		t.Fatalf("elapsed = %v", h.ElapsedSeconds)
	}
	if h.NsPerSimCycle != 2000 {
		t.Fatalf("ns/sim-cycle = %v", h.NsPerSimCycle)
	}
	if h.SysBytes == 0 || h.Goroutines == 0 {
		t.Fatalf("memstats not captured: %+v", h)
	}
	if z := CaptureHost(time.Second, 0); z.NsPerSimCycle != 0 {
		t.Fatal("zero cycles should not divide")
	}
}

// TestValidateOutcomes is the accept/reject table of ledger
// validation and canonicalization: blank, whitespace-only and CRLF
// lines, complete and torn unterminated tails, and the 1-based input
// line an error names (blank lines count).
func TestValidateOutcomes(t *testing.T) {
	const (
		ok  = `{"time":"t","level":"INFO","msg":"sweep-start","seq":0,"points":3}`
		bad = `{"time":"t","level":"INFO","msg":"sweep-start","seq":1}`
	)
	cases := []struct {
		name, ledger string
		validate     string // Validate's error; "" accepts
		canonical    string // StripWallClock's error; "" accepts
		records      int    // canonical records when accepted
	}{
		{"one record", ok + "\n", "", "", 1},
		{"unterminated complete tail", ok + "\n" + ok, "", "", 2},
		{"torn tail", ok + "\n" + ok[:20],
			"line 2: not a JSON object: unexpected end of JSON input",
			"line 2: unexpected end of JSON input", 0},
		{"blank lines", "\n" + ok + "\n\n" + ok + "\n\n", "", "", 2},
		{"whitespace-only lines", " \t\n" + ok + "\n  \n", "", "", 1},
		{"crlf", ok + "\r\n" + ok + "\r\n", "", "", 2},
		{"indented", "  " + ok + "\n", "", "", 1},
		{"whitespace tail", ok + "\n  ", "", "", 1},
		{"empty", "", "empty ledger", "", 0},
		{"bad after blank", "\n" + ok + "\n\n" + bad + "\n",
			`line 4: sweep-start: missing required attribute "points"`, "", 2},
		{"not json after blank", ok + "\n\nnope\n",
			"line 3: not a JSON object: invalid character 'o' in literal null (expecting 'u')",
			"line 3: invalid character 'o' in literal null (expecting 'u')", 0},
	}
	for _, tc := range cases {
		errText := func(err error) string {
			if err == nil {
				return ""
			}
			return err.Error()
		}
		if got := errText(Validate(strings.NewReader(tc.ledger))); got != tc.validate {
			t.Errorf("%s: Validate = %q, want %q", tc.name, got, tc.validate)
		}
		out, err := StripWallClock([]byte(tc.ledger))
		if got := errText(err); got != tc.canonical {
			t.Errorf("%s: StripWallClock = %q, want %q", tc.name, got, tc.canonical)
		}
		if n := bytes.Count(out, []byte("\n")); err == nil && n != tc.records {
			t.Errorf("%s: StripWallClock kept %d records, want %d", tc.name, n, tc.records)
		}
	}
}

// TestValidateRejectsBlankOnlyLedger: blank and whitespace-only lines
// are not records, so a ledger of nothing else is empty.
func TestValidateRejectsBlankOnlyLedger(t *testing.T) {
	for _, ledger := range []string{"\n", "\n\n\n", " \t\n\r\n  "} {
		err := Validate(strings.NewReader(ledger))
		if err == nil || err.Error() != "empty ledger" {
			t.Errorf("Validate(%q) = %v, want empty ledger", ledger, err)
		}
	}
}

// TestValidateAcceptsLargeRecord: a record has no size limit — the
// 5 MiB record StripWallClock accepts validates too.
func TestValidateAcceptsLargeRecord(t *testing.T) {
	line := `{"time":"t","level":"INFO","msg":"sweep-start","seq":0,"points":"` +
		strings.Repeat("x", 5<<20) + `"}` + "\n"
	if _, err := StripWallClock([]byte(line)); err != nil {
		t.Fatalf("StripWallClock: %v", err)
	}
	if err := Validate(strings.NewReader(line)); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

// TestRecordsSplitsCompleteRecordsAndTail pins Records' tail rule: a
// record is a newline-terminated line with a non-space byte, returned as
// written minus its newline; blank lines are skipped; whatever follows
// the last newline is the tail, whole input included when it has none.
func TestRecordsSplitsCompleteRecordsAndTail(t *testing.T) {
	for _, c := range []struct {
		name, data string
		records    []string
		tail       string
	}{
		{"records, blanks and a torn tail", "\n{\"a\":1}\r\n \t\n  {\"b\":2}\n{\"c\"",
			[]string{"{\"a\":1}\r", "  {\"b\":2}"}, `{"c"`},
		{"terminated", "x\n", []string{"x"}, ""},
		{"no newline", `{"a":1}`, nil, `{"a":1}`},
		{"blank tail", "x\n \t", []string{"x"}, " \t"},
		{"blank only", "\n\n \n", nil, ""},
		{"empty", "", nil, ""},
	} {
		recs, tail := Records([]byte(c.data))
		got := make([]string, len(recs))
		for i, r := range recs {
			got[i] = string(r)
		}
		if len(got) != len(c.records) || strings.Join(got, "|") != strings.Join(c.records, "|") {
			t.Errorf("%s: records %q, want %q", c.name, got, c.records)
		}
		if string(tail) != c.tail {
			t.Errorf("%s: tail %q, want %q", c.name, tail, c.tail)
		}
	}
}
