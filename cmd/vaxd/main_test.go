package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"vax780"
	"vax780/internal/castore"
	"vax780/internal/jobs"
	"vax780/internal/obs"
)

func newTestService(t *testing.T, cfg jobs.Config) (*handler, *jobs.Manager, *obs.Metrics) {
	t.Helper()
	if cfg.Store == nil {
		store, err := castore.Open(filepath.Join(t.TempDir(), "store"))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { store.Close() })
		cfg.Store = store
	}
	met := obs.NewMetrics()
	cfg.Metrics = met
	mgr, err := jobs.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mgr.Close)
	return newHandler(mgr, met), mgr, met
}

func newTestHandler(t *testing.T) http.Handler {
	t.Helper()
	h, _, _ := newTestService(t, jobs.Config{})
	return h.routes()
}

func postJob(t *testing.T, srv *httptest.Server, body string) (int, jobs.Job) {
	t.Helper()
	resp, err := http.Post(srv.URL+"/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var j jobs.Job
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode < 300 {
		if err := json.Unmarshal(data, &j); err != nil {
			t.Fatalf("decoding job: %v (%s)", err, data)
		}
	}
	return resp.StatusCode, j
}

func getJSON(t *testing.T, url string, v any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

func waitDone(t *testing.T, srv *httptest.Server, id string) jobs.Job {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		var j jobs.Job
		if code := getJSON(t, srv.URL+"/jobs/"+id, &j); code != http.StatusOK {
			t.Fatalf("GET /jobs/%s: status %d", id, code)
		}
		if j.State.Terminal() {
			return j
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s", id, j.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestAPISubmitPollFetch(t *testing.T) {
	srv := httptest.NewServer(newTestHandler(t))
	defer srv.Close()

	spec := `{"workloads":["TIMESHARING-A"],"instructions":1500}`
	code, job := postJob(t, srv, spec)
	if code != http.StatusAccepted {
		t.Fatalf("fresh submit: status %d, want 202", code)
	}
	done := waitDone(t, srv, job.ID)
	if done.State != jobs.StateDone {
		t.Fatalf("state = %s (%s)", done.State, done.Cause)
	}

	// Bundle list and file fetch.
	var bundle struct {
		Key   string   `json:"key"`
		Files []string `json:"files"`
	}
	if code := getJSON(t, srv.URL+"/results/"+done.Key, &bundle); code != http.StatusOK {
		t.Fatalf("GET /results/{key}: status %d", code)
	}
	if len(bundle.Files) != 5 {
		t.Fatalf("bundle files = %v", bundle.Files)
	}
	resp, err := http.Get(srv.URL + "/results/" + done.Key + "/report.txt")
	if err != nil {
		t.Fatal(err)
	}
	report, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Contains(report, []byte("CPI")) {
		t.Fatalf("report fetch: status %d, %d bytes", resp.StatusCode, len(report))
	}

	// Cache hit on resubmission: 200, not 202.
	code, again := postJob(t, srv, spec)
	if code != http.StatusOK || !again.Cached {
		t.Fatalf("resubmit: status %d cached %v, want 200 cached", code, again.Cached)
	}

	// Job list includes both submissions.
	var list []jobs.Job
	if code := getJSON(t, srv.URL+"/jobs", &list); code != http.StatusOK || len(list) != 2 {
		t.Fatalf("GET /jobs: status %d, %d jobs", code, len(list))
	}
}

func TestAPIErrorMapping(t *testing.T) {
	srv := httptest.NewServer(newTestHandler(t))
	defer srv.Close()

	if code, _ := postJob(t, srv, `{not json`); code != http.StatusBadRequest {
		t.Errorf("malformed body: status %d, want 400", code)
	}
	if code, _ := postJob(t, srv, `{"workloads":["PDP-11"]}`); code != http.StatusBadRequest {
		t.Errorf("unknown workload: status %d, want 400", code)
	}
	if code, _ := postJob(t, srv, `{"bogus_field":1}`); code != http.StatusBadRequest {
		t.Errorf("unknown field: status %d, want 400", code)
	}
	if code, _ := postJob(t, srv, `{"cache_bytes":1024,"cache_ways":256}`); code != http.StatusBadRequest {
		t.Errorf("cache smaller than one set: status %d, want 400", code)
	}
	if code := getJSON(t, srv.URL+"/jobs/j-999999", nil); code != http.StatusNotFound {
		t.Errorf("unknown job: status %d, want 404", code)
	}
	if code := getJSON(t, srv.URL+"/results/0123456789abcdef", nil); code != http.StatusNotFound {
		t.Errorf("unknown bundle: status %d, want 404", code)
	}
	if code := getJSON(t, srv.URL+"/healthz", nil); code != http.StatusOK {
		t.Errorf("healthz: status %d", code)
	}
}

func TestAPIJobEventsSSE(t *testing.T) {
	srv := httptest.NewServer(newTestHandler(t))
	defer srv.Close()

	// Three long workloads (~200ms of simulation) so the subscription
	// below lands while the job is still running; the bus only carries
	// live events, and job-done is published at classification.
	code, job := postJob(t, srv, `{"workloads":["TIMESHARING-A","TIMESHARING-B","RTE-EDU"],"instructions":60000}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	resp, err := http.Get(srv.URL + "/jobs/" + job.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	r := bufio.NewReader(resp.Body)
	deadline := time.Now().Add(60 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("no job-done event on the SSE stream")
		}
		line, err := r.ReadString('\n')
		if err != nil {
			t.Fatalf("SSE stream ended early: %v", err)
		}
		if strings.HasPrefix(line, "event: job-done") {
			return
		}
	}
}

// TestHealthzReadinessAndDrainWindow pins the liveness/readiness
// split: before the manager is installed (journal replay in progress)
// /healthz is 503 "starting" while /livez is 200; once draining
// begins, /healthz turns 503 "draining" for the whole drain window and
// stays there after the drain completes.
func TestHealthzReadinessAndDrainWindow(t *testing.T) {
	// Phase 1: booting — no manager behind the handler yet.
	h := newHandler(nil, obs.NewMetrics())
	srv := httptest.NewServer(h.routes())
	defer srv.Close()

	if code, reason := getHealth(t, srv.URL); code != http.StatusServiceUnavailable || reason != "starting" {
		t.Fatalf("booting healthz: status %d reason %q, want 503 starting", code, reason)
	}
	if code := getJSON(t, srv.URL+"/livez", nil); code != http.StatusOK {
		t.Fatalf("booting livez: status %d, want 200", code)
	}
	if code, _ := postJob(t, srv, `{"workloads":["TIMESHARING-A"],"instructions":1000}`); code != http.StatusServiceUnavailable {
		t.Fatalf("booting submit: status %d, want 503", code)
	}

	// Phase 2: ready — install a manager whose runner blocks until
	// released, so the drain window below stays open.
	block := make(chan struct{})
	var once sync.Once
	release := func() { once.Do(func() { close(block) }) }
	t.Cleanup(release) // unblock the worker even if an assertion fails
	runner := func(ctx context.Context, cfg vax780.RunConfig) (*vax780.Results, error) {
		<-block
		return nil, errors.New("released")
	}
	store, err := castore.Open(filepath.Join(t.TempDir(), "store"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	met := obs.NewMetrics()
	mgr, err := jobs.New(jobs.Config{Store: store, Runner: runner, Metrics: met})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mgr.Close)
	h.setManager(mgr)
	if code, _ := getHealth(t, srv.URL); code != http.StatusOK {
		t.Fatalf("ready healthz: status %d, want 200", code)
	}

	// Phase 3: draining — a job is mid-run (ignoring cancellation), so
	// Drain blocks; readiness must already be failing.
	code, job := postJob(t, srv, `{"workloads":["TIMESHARING-A"],"instructions":1000}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if j, _ := mgr.Get(job.ID); j.State == jobs.StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(time.Millisecond)
	}
	drained := make(chan int, 1)
	go func() { drained <- mgr.Drain("test") }()
	deadline = time.Now().Add(10 * time.Second)
	for {
		code, reason := getHealth(t, srv.URL)
		if code == http.StatusServiceUnavailable {
			if reason != "draining" {
				t.Fatalf("drain-window reason = %q, want draining", reason)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("healthz never failed during drain window")
		}
		time.Sleep(time.Millisecond)
	}
	if code := getJSON(t, srv.URL+"/livez", nil); code != http.StatusOK {
		t.Fatal("livez must stay 200 while draining")
	}
	release()
	select {
	case <-drained:
	case <-time.After(30 * time.Second):
		t.Fatal("drain never completed")
	}
	// Drained is terminal for this process: readiness stays down.
	if code, reason := getHealth(t, srv.URL); code != http.StatusServiceUnavailable || reason != "draining" {
		t.Fatalf("post-drain healthz: status %d reason %q, want 503 draining", code, reason)
	}
}

// getHealth fetches /healthz, decoding the body whatever the status.
func getHealth(t *testing.T, base string) (int, string) {
	t.Helper()
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var health struct {
		OK     bool   `json:"ok"`
		Reason string `json:"reason"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatalf("decoding healthz: %v", err)
	}
	return resp.StatusCode, health.Reason
}

// TestMetricsEndpoint checks the Prometheus surface end to end: the
// counters move with traffic, render deterministically, and recompose
// exactly from the service journal.
func TestMetricsEndpoint(t *testing.T) {
	h, mgr, met := newTestService(t, jobs.Config{})
	srv := httptest.NewServer(h.routes())
	defer srv.Close()

	spec := `{"workloads":["TIMESHARING-A"],"instructions":1200,"tenant":"alice"}`
	code, job := postJob(t, srv, spec)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	waitDone(t, srv, job.ID)
	if code, _ := postJob(t, srv, spec); code != http.StatusOK {
		t.Fatalf("resubmit: status %d, want cache hit", code)
	}

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	for _, series := range []string{
		`vaxd_jobs_submitted_total{tenant="alice"} 2`,
		`vaxd_cache_hits_total 1`,
		`vaxd_job_starts_total 1`,
		`vaxd_requests_total{tenant="alice"} 2`,
		`vaxd_queue_depth 0`,
		`vaxd_store_objects 1`,
		`vaxd_request_duration_seconds_count{tenant="alice"} 2`,
	} {
		if !strings.Contains(string(body), series) {
			t.Errorf("/metrics missing %q", series)
		}
	}

	// The exported counters must recompose from the journal.
	var journal bytes.Buffer
	err = mgr.Store().ReplayJournal(func(line []byte) error {
		journal.Write(line)
		journal.WriteByte('\n')
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.Validate(met.Counters(), &journal); err != nil {
		t.Fatalf("counters do not recompose: %v", err)
	}
}

// TestTraceEndpoint checks /trace/{id}: a schema-valid connected span
// tree from HTTP admission down to control-store flows, plus the
// chrome://tracing rendering.
func TestTraceEndpoint(t *testing.T) {
	h, _, _ := newTestService(t, jobs.Config{})
	srv := httptest.NewServer(h.routes())
	defer srv.Close()

	code, job := postJob(t, srv, `{"workloads":["TIMESHARING-A"],"instructions":1500}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	waitDone(t, srv, job.ID)

	resp, err := http.Get(srv.URL + "/trace/" + job.ID)
	if err != nil {
		t.Fatal(err)
	}
	rows, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /trace: status %d (%s)", resp.StatusCode, rows)
	}
	if err := obs.ValidateSpans(rows); err != nil {
		t.Fatalf("trace invalid: %v", err)
	}
	kinds := traceKinds(t, rows)
	for _, k := range []string{"job", "http", "queue", "attempt", "run", "workload", "flow"} {
		if kinds[k] == 0 {
			t.Errorf("trace has no %s span: %v", k, kinds)
		}
	}

	resp, err = http.Get(srv.URL + "/trace/" + job.ID + "?format=chrome")
	if err != nil {
		t.Fatal(err)
	}
	chrome, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(chrome, &doc); err != nil || len(doc.TraceEvents) == 0 {
		t.Fatalf("chrome trace: %v (%d events)", err, len(doc.TraceEvents))
	}

	if code := getJSON(t, srv.URL+"/trace/j-999999", nil); code != http.StatusNotFound {
		t.Fatalf("unknown job trace: status %d, want 404", code)
	}
}

// traceKinds tallies span kinds in a JSONL trace export.
func traceKinds(t *testing.T, rows []byte) map[string]int {
	t.Helper()
	_, root, err := obs.ParseRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]int{}
	var walk func(s *obs.Span)
	walk = func(s *obs.Span) {
		kinds[s.Kind]++
		for _, c := range s.Children() {
			walk(c)
		}
	}
	walk(root)
	return kinds
}

// startVaxd launches a built vaxd binary and returns its base URL plus
// a channel that yields the exit error when the process ends.
func startVaxd(t *testing.T, bin, data string) (*exec.Cmd, string, chan error) {
	t.Helper()
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-data", data)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cmd.Process.Kill() })

	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if i := strings.Index(line, "listening on "); i >= 0 {
				rest := line[i+len("listening on "):]
				addrCh <- strings.TrimSuffix(strings.Fields(rest)[0], ",")
			}
		}
	}()
	waitCh := make(chan error, 1)
	go func() { waitCh <- cmd.Wait() }()

	select {
	case addr := <-addrCh:
		url := "http://" + addr
		// The socket answers before recovery finishes; wait for
		// readiness so tests can submit immediately.
		deadline := time.Now().Add(30 * time.Second)
		for {
			resp, err := http.Get(url + "/healthz")
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return cmd, url, waitCh
				}
			}
			if time.Now().After(deadline) {
				t.Fatal("vaxd never became ready")
			}
			time.Sleep(5 * time.Millisecond)
		}
	case err := <-waitCh:
		t.Fatalf("vaxd exited before listening: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("vaxd never reported its listen address")
	}
	panic("unreachable")
}

// TestVaxdSIGTERMDrainRestart is the full crash-tolerance contract,
// end to end against the real binary: SIGTERM mid-job exits 0 after
// draining, a restart over the same data directory requeues and
// resumes the job from its checkpoint, and the final bundle is
// byte-identical to an uninterrupted in-process run. The resubmission
// then hits the cache.
func TestVaxdSIGTERMDrainRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess end-to-end test; skipped with -short")
	}
	bin := filepath.Join(t.TempDir(), "vaxd")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building vaxd: %v\n%s", err, out)
	}
	data := filepath.Join(t.TempDir(), "data")

	// Life 1: submit a three-workload job and SIGTERM once the first
	// checkpoint exists (>= 1 workload committed, run still going).
	cmd1, url1, wait1 := startVaxd(t, bin, data)
	// parallelism 1 keeps workloads strictly sequential, so the SIGTERM
	// below lands with later workloads not yet started — they requeue
	// rather than running to completion inside the drain.
	spec := `{"workloads":["TIMESHARING-A","TIMESHARING-B","RTE-EDU"],"instructions":50000,"parallelism":1}`
	resp, err := http.Post(url1+"/jobs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	var job jobs.Job
	if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}

	ckpt := filepath.Join(data, "staging", job.ID, "run.ckpt")
	deadline := time.Now().Add(60 * time.Second)
	for {
		if _, err := os.Stat(ckpt); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no checkpoint appeared; cannot interrupt mid-job")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := cmd1.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-wait1:
		if err != nil {
			t.Fatalf("vaxd exited non-zero after SIGTERM: %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("vaxd did not exit after SIGTERM")
	}

	// Life 2: restart over the same data dir; the job must requeue,
	// resume, and complete.
	_, url2, _ := startVaxd(t, bin, data)
	var done jobs.Job
	deadline = time.Now().Add(120 * time.Second)
	for {
		r, err := http.Get(url2 + "/jobs/" + job.ID)
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(r.Body).Decode(&done)
		r.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if done.State.Terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("restarted job stuck in %s", done.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if done.State != jobs.StateDone {
		t.Fatalf("after restart: state %s (%s)", done.State, done.Cause)
	}
	if done.Requeues < 1 {
		t.Fatalf("requeues = %d, want >= 1 (the job must have been requeued)", done.Requeues)
	}

	fetch := func(name string) []byte {
		r, err := http.Get(url2 + "/results/" + done.Key + "/" + name)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Body.Close()
		if r.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", name, r.StatusCode)
		}
		b, err := io.ReadAll(r.Body)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if !bytes.Contains(fetch("ledger.jsonl"), []byte("checkpoint-resumed")) {
		t.Error("bundle ledger has no checkpoint-resumed event; the restarted job re-ran from scratch")
	}

	// Byte-identical to an uninterrupted in-process run.
	res, err := vax780.Run(vax780.RunConfig{
		Instructions: 50000,
		Workloads: []vax780.WorkloadID{
			vax780.TimesharingA, vax780.TimesharingB, vax780.RTEEducational,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	var wantHist bytes.Buffer
	if err := res.SaveHistogram(&wantHist); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fetch("histogram.upch"), wantHist.Bytes()) {
		t.Error("served histogram differs from uninterrupted run")
	}
	if string(fetch("report.txt")) != res.Report() {
		t.Error("served report differs from uninterrupted run")
	}

	// Resubmission is a cache hit: HTTP 200 with cached=true.
	r2, err := http.Post(url2+"/jobs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	var cached jobs.Job
	if err := json.NewDecoder(r2.Body).Decode(&cached); err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusOK || !cached.Cached {
		t.Fatalf("resubmit: status %d cached %v, want 200 cached", r2.StatusCode, cached.Cached)
	}
	if fmt.Sprint(cached.Key) != fmt.Sprint(done.Key) {
		t.Fatalf("cached key %s != original %s", cached.Key, done.Key)
	}

	// The assembled trace must connect both process lives into one
	// tree: admission HTTP, two queue/attempt pairs (life 1 evicted,
	// life 2 done), and the run subtree with its resume span and
	// control-store flows spliced under the final attempt.
	tr, err := http.Get(url2 + "/trace/" + job.ID)
	if err != nil {
		t.Fatal(err)
	}
	rows, _ := io.ReadAll(tr.Body)
	tr.Body.Close()
	if tr.StatusCode != http.StatusOK {
		t.Fatalf("GET /trace: status %d (%s)", tr.StatusCode, rows)
	}
	if err := obs.ValidateSpans(rows); err != nil {
		t.Fatalf("kill-and-restart trace invalid: %v", err)
	}
	kinds := traceKinds(t, rows)
	switch {
	case kinds["job"] != 1 || kinds["run"] != 1:
		t.Errorf("trace not a single connected job: %v", kinds)
	case kinds["attempt"] < 2 || kinds["queue"] < 2:
		t.Errorf("trace missing the evicted first life: %v", kinds)
	case kinds["resume"] == 0:
		t.Errorf("trace has no resume span; checkpoint link lost: %v", kinds)
	case kinds["http"] == 0 || kinds["workload"] == 0 || kinds["flow"] == 0:
		t.Errorf("trace does not reach HTTP and flow leaves: %v", kinds)
	}

	// Restart counters are cumulative: both lives' starts and the drain
	// survive the journal replay into the second process's /metrics.
	mr, err := http.Get(url2 + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metText, _ := io.ReadAll(mr.Body)
	mr.Body.Close()
	for _, series := range []string{"vaxd_job_starts_total 2", "vaxd_drains_total 1"} {
		if !bytes.Contains(metText, []byte(series)) {
			t.Errorf("/metrics after restart missing %q", series)
		}
	}
}
