package jobs

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"vax780"
	"vax780/internal/castore"
	"vax780/internal/runlog"
)

func openStore(t *testing.T, root string) *castore.Store {
	t.Helper()
	s, err := castore.Open(root)
	if err != nil {
		t.Fatalf("castore.Open: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func newManager(t *testing.T, cfg Config) *Manager {
	t.Helper()
	if cfg.Store == nil {
		cfg.Store = openStore(t, filepath.Join(t.TempDir(), "store"))
	}
	m, err := New(cfg)
	if err != nil {
		t.Fatalf("jobs.New: %v", err)
	}
	t.Cleanup(m.Close)
	return m
}

// waitTerminal polls until the job reaches a terminal state.
func waitTerminal(t *testing.T, m *Manager, id string) Job {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		j, err := m.Get(id)
		if err != nil {
			t.Fatalf("Get(%s): %v", id, err)
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

func tinySpec(instr int) Spec {
	return Spec{Workloads: []string{"TIMESHARING-A"}, Instructions: instr}
}

func TestSubmitRunsToDone(t *testing.T) {
	m := newManager(t, Config{})
	j, err := m.Submit(tinySpec(1000))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if j.State != StateQueued || j.Cached {
		t.Fatalf("fresh submission: state %s cached %v", j.State, j.Cached)
	}
	done := waitTerminal(t, m, j.ID)
	if done.State != StateDone {
		t.Fatalf("state = %s (%s), want done", done.State, done.Cause)
	}
	if done.Instructions == 0 || done.Cycles == 0 || done.CPI < 2 {
		t.Fatalf("totals not filled: %+v", done)
	}
	names, err := m.Store().Bundle(done.Key)
	if err != nil {
		t.Fatalf("Bundle: %v", err)
	}
	want := []string{"histogram.upch", "ledger.jsonl", "meta.json", "report.txt", "trace.jsonl"}
	if fmt.Sprint(names) != fmt.Sprint(want) {
		t.Fatalf("bundle = %v, want %v", names, want)
	}
	// The staged checkpoint must not leak into the published bundle.
	for _, n := range names {
		if n == "run.ckpt" {
			t.Fatal("checkpoint file committed into bundle")
		}
	}
	// The bundle's ledger validates against the golden schema.
	led, err := m.Store().ReadFile(done.Key, "ledger.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	if err := runlog.Validate(bytes.NewReader(led)); err != nil {
		t.Fatalf("bundle ledger invalid: %v", err)
	}
}

func TestResubmitHitsCache(t *testing.T) {
	m := newManager(t, Config{})
	spec := tinySpec(1200)
	first, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	done := waitTerminal(t, m, first.ID)

	second, err := m.Submit(spec)
	if err != nil {
		t.Fatalf("resubmit: %v", err)
	}
	if !second.Cached || second.State != StateDone {
		t.Fatalf("resubmit: cached %v state %s, want cached done", second.Cached, second.State)
	}
	if second.Key != done.Key {
		t.Fatalf("key changed across submissions: %s vs %s", second.Key, done.Key)
	}
	if second.Instructions != done.Instructions || second.CPI != done.CPI {
		t.Fatalf("cached totals %d/%.3f differ from original %d/%.3f",
			second.Instructions, second.CPI, done.Instructions, done.CPI)
	}
	// A different tenant shares the cached result.
	other := spec
	other.Tenant = "someone-else"
	third, err := m.Submit(other)
	if err != nil || !third.Cached {
		t.Fatalf("cross-tenant resubmit: cached %v err %v", third.Cached, err)
	}
}

func TestQueueFullSheds(t *testing.T) {
	block := make(chan struct{})
	runner := func(ctx context.Context, cfg vax780.RunConfig) (*vax780.Results, error) {
		select {
		case <-block:
		case <-ctx.Done():
		}
		return nil, errors.New("released")
	}
	m := newManager(t, Config{QueueDepth: 2, Workers: 1, Runner: runner})
	defer close(block)

	first, err := m.Submit(tinySpec(1000))
	if err != nil {
		t.Fatal(err)
	}
	// Wait for the worker to pull the first job off the queue.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if j, _ := m.Get(first.ID); j.State == StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("first job never started")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := m.Submit(tinySpec(1001)); err != nil {
		t.Fatalf("submit 2: %v", err)
	}
	if _, err := m.Submit(tinySpec(1002)); err != nil {
		t.Fatalf("submit 3: %v", err)
	}
	_, err = m.Submit(tinySpec(1003))
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("submission beyond depth: err = %v, want ErrQueueFull", err)
	}
	if got := HTTPStatus(err); got != 429 {
		t.Fatalf("HTTPStatus = %d, want 429", got)
	}
}

func TestTenantQuota(t *testing.T) {
	now := time.Unix(1000, 0)
	var mu sync.Mutex
	clock := func() time.Time { mu.Lock(); defer mu.Unlock(); return now }
	runner := func(ctx context.Context, cfg vax780.RunConfig) (*vax780.Results, error) {
		return nil, errors.New("stub")
	}
	m := newManager(t, Config{Quota: Quota{Rate: 1, Burst: 2}, Runner: runner, Clock: clock})

	sub := func(tenant string, n int) error {
		s := tinySpec(n)
		s.Tenant = tenant
		_, err := m.Submit(s)
		return err
	}
	if err := sub("alice", 1000); err != nil {
		t.Fatalf("submit 1: %v", err)
	}
	if err := sub("alice", 1001); err != nil {
		t.Fatalf("submit 2: %v", err)
	}
	if err := sub("alice", 1002); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("submit 3: err = %v, want ErrQuotaExceeded", err)
	}
	// Another tenant has an untouched bucket.
	if err := sub("bob", 1003); err != nil {
		t.Fatalf("bob: %v", err)
	}
	// A second of refill buys alice one more admission.
	mu.Lock()
	now = now.Add(time.Second)
	mu.Unlock()
	if err := sub("alice", 1004); err != nil {
		t.Fatalf("after refill: %v", err)
	}
	if err := sub("alice", 1005); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("bucket should be dry again: %v", err)
	}
}

func TestDeadlineTimesOut(t *testing.T) {
	runner := func(ctx context.Context, cfg vax780.RunConfig) (*vax780.Results, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	m := newManager(t, Config{Runner: runner})
	spec := tinySpec(1000)
	spec.DeadlineMS = 30
	j, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	done := waitTerminal(t, m, j.ID)
	if done.State != StateTimedOut {
		t.Fatalf("state = %s, want timed-out", done.State)
	}
	if !strings.Contains(done.Cause, "deadline") {
		t.Fatalf("cause = %q", done.Cause)
	}
	if m.Store().Has(done.Key) {
		t.Fatal("timed-out job committed a bundle")
	}
}

func TestSubmitWhileDraining(t *testing.T) {
	m := newManager(t, Config{})
	m.Drain("test")
	_, err := m.Submit(tinySpec(1000))
	if !errors.Is(err, ErrDraining) {
		t.Fatalf("err = %v, want ErrDraining", err)
	}
	if got := HTTPStatus(err); got != 503 {
		t.Fatalf("HTTPStatus = %d, want 503", got)
	}
}

func TestUnknownJob(t *testing.T) {
	m := newManager(t, Config{})
	_, err := m.Get("j-999999")
	if !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("err = %v, want ErrUnknownJob", err)
	}
}

// TestDrainRequeueResumesBitIdentical is the service-level crash
// contract: a job drained mid-run is requeued by the next manager over
// the same store, resumes from its checkpoint, and its committed bundle
// is byte-identical to an uninterrupted run's output.
func TestDrainRequeueResumesBitIdentical(t *testing.T) {
	root := filepath.Join(t.TempDir(), "store")
	spec := Spec{
		Workloads:    []string{"TIMESHARING-A", "TIMESHARING-B", "RTE-EDU"},
		Instructions: 50_000,
	}

	// Life 1: run sequentially, signal after the first workload
	// completes, and let the test drain the manager at that point.
	firstDone := make(chan struct{}, 1)
	runner := func(ctx context.Context, cfg vax780.RunConfig) (*vax780.Results, error) {
		cfg.Parallelism = 1 // keep the drain window at a workload boundary
		ch, unsub := cfg.Events.Subscribe(64)
		defer unsub()
		go func() {
			for ev := range ch {
				if ev.Type == runlog.EvWlDone {
					select {
					case firstDone <- struct{}{}:
					default:
					}
					return
				}
			}
		}()
		return vax780.RunContext(ctx, cfg)
	}
	store1 := openStore(t, root)
	m1, err := New(Config{Store: store1, Runner: runner})
	if err != nil {
		t.Fatal(err)
	}
	j, err := m1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-firstDone:
	case <-time.After(60 * time.Second):
		t.Fatal("first workload never completed")
	}
	requeued := m1.Drain("test-drain")
	if requeued != 1 {
		t.Fatalf("Drain requeued %d jobs, want 1", requeued)
	}
	evicted, err := m1.Get(j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if evicted.State != StateEvicted {
		t.Fatalf("after drain: state = %s (%s), want evicted", evicted.State, evicted.Cause)
	}
	store1.Close()

	// Life 2: a fresh manager over the same store replays the journal,
	// requeues the evicted job, and completes it from the checkpoint.
	store2 := openStore(t, root)
	m2, err := New(Config{Store: store2})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	done := waitTerminal(t, m2, j.ID)
	if done.State != StateDone {
		t.Fatalf("after restart: state = %s (%s), want done", done.State, done.Cause)
	}
	if done.Requeues < 1 {
		t.Fatalf("requeues = %d, want >= 1", done.Requeues)
	}
	if done.Key != j.Key {
		t.Fatalf("key drifted across lives: %s vs %s", done.Key, j.Key)
	}

	// The resumed bundle's ledger must prove it resumed rather than
	// re-ran from scratch.
	led, err := store2.ReadFile(done.Key, "ledger.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(led, []byte(runlog.EvResume)) {
		t.Fatal("bundle ledger has no checkpoint-resumed event; the job re-ran from scratch")
	}

	// Byte-identical to an uninterrupted run of the same spec.
	cfg, err := spec.runConfig()
	if err != nil {
		t.Fatal(err)
	}
	res, err := vax780.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var wantHist bytes.Buffer
	if err := res.SaveHistogram(&wantHist); err != nil {
		t.Fatal(err)
	}
	gotHist, err := store2.ReadFile(done.Key, "histogram.upch")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotHist, wantHist.Bytes()) {
		t.Fatal("resumed bundle histogram differs from uninterrupted run")
	}
	gotReport, err := store2.ReadFile(done.Key, "report.txt")
	if err != nil {
		t.Fatal(err)
	}
	if string(gotReport) != res.Report() {
		t.Fatal("resumed bundle report differs from uninterrupted run")
	}
	if done.Instructions != res.Instructions() {
		t.Fatalf("instructions %d != uninterrupted %d", done.Instructions, res.Instructions())
	}
}

// TestRecoveryRequeuesMidRunCrash simulates a hard crash (no drain, no
// evicted record): the journal ends with job-start, and recovery must
// still requeue.
func TestRecoveryRequeuesMidRunCrash(t *testing.T) {
	root := filepath.Join(t.TempDir(), "store")
	store1 := openStore(t, root)
	started := make(chan struct{}, 1)
	runner := func(ctx context.Context, cfg vax780.RunConfig) (*vax780.Results, error) {
		select {
		case started <- struct{}{}:
		default:
		}
		<-ctx.Done() // hang until the "crash" (Close) kills us
		return nil, ctx.Err()
	}
	m1, err := New(Config{Store: store1, Runner: runner})
	if err != nil {
		t.Fatal(err)
	}
	j, err := m1.Submit(tinySpec(2000))
	if err != nil {
		t.Fatal(err)
	}
	<-started
	m1.Close() // hard stop: no drain record, journal ends at job-start
	store1.Close()

	store2 := openStore(t, root)
	m2, err := New(Config{Store: store2})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	done := waitTerminal(t, m2, j.ID)
	if done.State != StateDone {
		t.Fatalf("state = %s (%s), want done", done.State, done.Cause)
	}
	if done.Requeues != 1 {
		t.Fatalf("requeues = %d, want 1", done.Requeues)
	}
	if !store2.Has(done.Key) {
		t.Fatal("no bundle committed after crash recovery")
	}
}

// TestRecoverySkipsUndecodableSpec: a job-queued record whose spec
// does not decode is skipped. The manager still opens with every other
// job, and the skipped record's ID is never handed out again.
func TestRecoverySkipsUndecodableSpec(t *testing.T) {
	root := filepath.Join(t.TempDir(), "store")
	spec := tinySpec(1000)
	key, err := spec.Key()
	if err != nil {
		t.Fatal(err)
	}
	var journal bytes.Buffer
	led := runlog.New(&journal)
	led.Emit(runlog.JobQueuedEvent("j-000001", key, "", 0, spec))
	led.Emit(runlog.JobDoneEvent("j-000001", key, "failed", "", false, 0, 0, 0))
	journal.WriteString(`{"msg":"job-queued","id":"j-000043"}` + "\n")
	if err := os.MkdirAll(root, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(root, "journal.jsonl"), journal.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	m := newManager(t, Config{
		Store: openStore(t, root),
		Runner: func(context.Context, vax780.RunConfig) (*vax780.Results, error) {
			return nil, errStubRun
		},
	})
	var ids []string
	for _, j := range m.List() {
		ids = append(ids, j.ID)
	}
	if len(ids) != 1 || ids[0] != "j-000001" {
		t.Fatalf("recovered jobs %q, want [j-000001]", ids)
	}
	j, err := m.Submit(tinySpec(1001))
	if err != nil {
		t.Fatal(err)
	}
	if j.ID <= "j-000043" {
		t.Fatalf("next job ID %s reuses or precedes the skipped j-000043", j.ID)
	}
}

func TestSweepJob(t *testing.T) {
	m := newManager(t, Config{})
	spec := Spec{
		Workloads:    []string{"TIMESHARING-A"},
		Instructions: 1500,
		Points: []Point{
			{Label: "8KB/2-way", CacheBytes: 8192, CacheWays: 2},
			{Label: "16KB/2-way", CacheBytes: 16384, CacheWays: 2},
		},
	}
	j, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	done := waitTerminal(t, m, j.ID)
	if done.State != StateDone {
		t.Fatalf("state = %s (%s), want done", done.State, done.Cause)
	}
	sweep, err := m.Store().ReadFile(done.Key, "sweep.json")
	if err != nil {
		t.Fatalf("sweep.json: %v", err)
	}
	for _, label := range []string{"8KB/2-way", "16KB/2-way"} {
		if !bytes.Contains(sweep, []byte(label)) {
			t.Errorf("sweep.json missing point %q", label)
		}
	}
	if done.Instructions == 0 || done.CPI < 2 {
		t.Fatalf("sweep totals not filled: %+v", done)
	}
	// Sweep resubmission hits cache too.
	again, err := m.Submit(spec)
	if err != nil || !again.Cached {
		t.Fatalf("sweep resubmit: cached %v err %v", again.Cached, err)
	}
}

// TestSoakConcurrentSubmitters hammers a depth-bounded queue from many
// goroutines under -race: every accepted job must reach a terminal
// state, every rejection must be a typed admission sentinel, and every
// completed job must have a committed bundle.
func TestSoakConcurrentSubmitters(t *testing.T) {
	m := newManager(t, Config{QueueDepth: 4, Workers: 2})
	const submitters = 8
	const perSubmitter = 6

	var mu sync.Mutex
	var accepted []string
	var wg sync.WaitGroup
	for i := 0; i < submitters; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			for k := 0; k < perSubmitter; k++ {
				spec := tinySpec(500 + 100*(k%3)) // 3 distinct keys → mixed cache hits
				spec.Tenant = fmt.Sprintf("tenant-%d", n%3)
				j, err := m.Submit(spec)
				if err != nil {
					if !errors.Is(err, ErrQueueFull) && !errors.Is(err, ErrQuotaExceeded) {
						t.Errorf("submitter %d: unexpected rejection %v", n, err)
					}
					continue
				}
				mu.Lock()
				accepted = append(accepted, j.ID)
				mu.Unlock()
			}
		}(i)
	}
	wg.Wait()
	if len(accepted) == 0 {
		t.Fatal("every submission was shed")
	}
	for _, id := range accepted {
		j := waitTerminal(t, m, id)
		if j.State != StateDone {
			t.Errorf("job %s: state %s (%s)", id, j.State, j.Cause)
			continue
		}
		if !m.Store().Has(j.Key) {
			t.Errorf("job %s done but bundle %s missing", id, j.Key)
		}
	}
	if requeued := m.Drain("soak-end"); requeued != 0 {
		t.Errorf("drain after quiesce requeued %d jobs", requeued)
	}
}

// gateWriter passes journal lines through, holding back the first line
// containing match until release is closed.
type gateWriter struct {
	w       io.Writer
	match   []byte
	once    sync.Once
	reached chan struct{}
	release chan struct{}
}

func (g *gateWriter) Write(p []byte) (int, error) {
	if bytes.Contains(p, g.match) {
		g.once.Do(func() {
			close(g.reached)
			<-g.release
		})
	}
	return g.w.Write(p)
}

// TestTerminalStateFollowsDoneRecord: a job turns terminal only once its
// done record is journaled. A client that sees "done" and then fetches
// /trace/{id} must find the record obs.AssembleJob hangs the attempt's
// run spans under.
func TestTerminalStateFollowsDoneRecord(t *testing.T) {
	m := newManager(t, Config{})
	gate := &gateWriter{
		w:       m.store.JournalWriter(),
		match:   []byte(`"msg":"` + runlog.EvJobDone + `"`),
		reached: make(chan struct{}),
		release: make(chan struct{}),
	}
	m.journal = runlog.NewOn(gate, m.events)
	j, err := m.Submit(tinySpec(1000))
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-gate.reached:
	case <-time.After(60 * time.Second):
		t.Fatal("the job's done record was never journaled")
	}
	snap, err := m.Get(j.ID)
	if err != nil {
		t.Fatal(err)
	}
	close(gate.release)
	if snap.State.Terminal() {
		t.Fatalf("state %s visible before the done record was journaled", snap.State)
	}
	if done := waitTerminal(t, m, j.ID); done.State != StateDone {
		t.Fatalf("state = %s (%s), want done", done.State, done.Cause)
	}
}
