// Package jobs is the vaxd service's job layer: a bounded admission
// queue feeding the simulator's existing run engine, a content-addressed
// result cache, and the robustness envelope around both — per-tenant
// token-bucket quotas, per-job deadlines, graceful drain, and
// journal-replay crash recovery.
//
// The design inverts the usual cache-aside pattern: because a run is a
// pure function of seed and configuration (the determinism suite proves
// parallel and sequential runs bit-exact), the cache is authoritative.
// A submission whose content address already has a committed bundle is
// answered from the store without simulating, and two concurrent
// submissions of the same measurement race benignly — the first commit
// wins and the copies are interchangeable.
//
// Every lifecycle transition is journaled through the store's
// append-only journal as runlog job events. The journal is the
// recovery source of truth: a restarted manager replays it, rebuilds
// the job table, and requeues every job whose last record is not
// terminal. Requeued jobs resume from the checkpoint their previous
// life staged, so a job killed mid-composite completes bit-identically
// to one that was never interrupted.
package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"vax780"
	"vax780/internal/castore"
	"vax780/internal/obs"
	"vax780/internal/runlog"
	"vax780/internal/telemetry"
)

// State is a job's lifecycle state. queued → running → one of the
// terminal states; evicted is terminal only within a process — recovery
// requeues evicted jobs, so across restarts it reads as "pending again".
type State string

const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateEvicted  State = "evicted"
	StateTimedOut State = "timed-out"
)

// Terminal reports whether the state ends a job's life in this process.
func (s State) Terminal() bool {
	switch s {
	case StateDone, StateFailed, StateEvicted, StateTimedOut:
		return true
	}
	return false
}

// Job is a point-in-time snapshot of one job's public record.
type Job struct {
	ID       string `json:"id"`
	Key      string `json:"key"`
	Tenant   string `json:"tenant,omitempty"`
	State    State  `json:"state"`
	Cause    string `json:"cause,omitempty"`
	Cached   bool   `json:"cached"`
	Requeues int    `json:"requeues"`

	// Composite totals, set once the job is done.
	Instructions uint64  `json:"instructions"`
	Cycles       uint64  `json:"cycles"`
	CPI          float64 `json:"cpi"`

	Spec Spec `json:"spec"`
}

// job is the manager's mutable record behind a Job snapshot.
type job struct {
	mu   sync.Mutex
	snap Job
	bus  *runlog.Bus
}

func (j *job) get() Job {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.snap
}

// Quota is a tenant's token bucket: Rate tokens per second refill up to
// Burst, one token per admitted job. The zero value disables quotas.
type Quota struct {
	Rate  float64
	Burst float64
}

type bucket struct {
	tokens float64
	last   time.Time
}

// Config configures a Manager. Store is required; everything else
// defaults.
type Config struct {
	// Store is the content-addressed result store; its journal is the
	// manager's recovery log.
	Store *castore.Store

	// QueueDepth bounds queued-but-not-running jobs (default 16).
	// Submissions beyond it are shed with ErrQueueFull.
	QueueDepth int

	// Workers is the number of concurrent job runners (default 1; each
	// run parallelizes internally across its workloads).
	Workers int

	// Quota, when non-zero, is the per-tenant admission token bucket.
	Quota Quota

	// Runner executes a non-sweep job's run. Defaults to
	// vax780.RunContext; tests substitute instrumented runners.
	Runner func(ctx context.Context, cfg vax780.RunConfig) (*vax780.Results, error)

	// Sweeper executes a sweep job. Defaults to vax780.SweepContext.
	Sweeper func(ctx context.Context, pts []vax780.SweepPoint, opt vax780.SweepOptions) []vax780.SweepResult

	// Clock is the quota clock (default time.Now; tests substitute a
	// fake). Only admission reads it — nothing downstream of admission
	// depends on wall time.
	Clock func() time.Time

	// Metrics, when non-nil, receives one Count per journaled event (the
	// recompose contract: counters move only alongside journal records),
	// duration observations, and the manager's gauges. Nil disables all
	// metric work.
	Metrics *obs.Metrics
}

// Manager owns the job table, the admission queue, and the worker pool.
type Manager struct {
	cfg   Config
	store *castore.Store

	// journal is the service ledger, persisted through the store's
	// append-only journal file; crash recovery replays it. Every emit
	// also fans out on events (the service-wide bus behind GET /events)
	// and counts into cfg.Metrics, so the live counters recompose
	// exactly from the journal by construction.
	journal *runlog.Ledger
	events  *runlog.Bus

	// mux serves per-job SSE streams; each job's bus is attached at
	// admission and stays attached for the manager's life.
	mux *telemetry.SSEMux

	root   context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu       sync.Mutex
	jobs     map[string]*job
	pending  []*job
	buckets  map[string]*bucket
	seq      int
	draining bool

	notify chan struct{}
}

// New opens a manager over the store, replays the journal for crash
// recovery, requeues every job whose last journal record is not
// terminal, and starts the worker pool.
func New(cfg Config) (*Manager, error) {
	if cfg.Store == nil {
		return nil, errors.New("jobs: Config.Store is required")
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 16
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.Runner == nil {
		cfg.Runner = vax780.RunContext
	}
	if cfg.Sweeper == nil {
		cfg.Sweeper = vax780.SweepContext
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	m := &Manager{
		cfg:     cfg,
		store:   cfg.Store,
		mux:     telemetry.NewSSEMux(),
		jobs:    make(map[string]*job),
		buckets: make(map[string]*bucket),
	}
	m.root, m.cancel = context.WithCancel(context.Background())

	// Repair a torn journal tail before replay and before any append:
	// an O_APPEND write after a torn final line would concatenate two
	// records into one unparseable hybrid.
	torn, err := m.store.RepairJournal()
	if err != nil {
		return nil, err
	}
	requeue, err := m.recover()
	if err != nil {
		return nil, err
	}
	// The journal ledger is opened after replay so recovery reads the
	// file without racing its own appends.
	m.events = runlog.NewBus()
	m.journal = runlog.NewOn(m.store.JournalWriter(), m.events)
	if torn > 0 {
		m.emit(runlog.JournalTornEvent(torn), obs.Rec{Msg: runlog.EvJournalTorn})
	}
	m.registerGauges()

	m.notify = make(chan struct{}, cfg.QueueDepth+len(requeue))
	for _, j := range requeue {
		m.pending = append(m.pending, j)
		m.notify <- struct{}{}
	}
	for i := 0; i < cfg.Workers; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	return m, nil
}

// journalRec is the union of the job-event attributes recovery needs.
type journalRec struct {
	Msg          string          `json:"msg"`
	ID           string          `json:"id"`
	Key          string          `json:"key"`
	Tenant       string          `json:"tenant"`
	Spec         json.RawMessage `json:"spec"`
	State        string          `json:"state"`
	Cause        string          `json:"cause"`
	Cached       bool            `json:"cached"`
	Instructions uint64          `json:"instructions"`
	Cycles       uint64          `json:"cycles"`
	CPI          float64         `json:"cpi"`
}

// recover replays the store journal, rebuilding the job table. It
// returns the jobs to requeue: every job whose last record is queued,
// running (the process died mid-run), or evicted (a drain requeued it).
func (m *Manager) recover() ([]*job, error) {
	var order []string
	err := m.store.ReplayJournal(func(line []byte) error {
		// Counters are cumulative across process lives: every replayed
		// record counts exactly as it did when first journaled, so the
		// restarted /metrics still recomposes from the journal.
		if r, ok := obs.ParseRec(line); ok {
			m.cfg.Metrics.Count(r)
		}
		var rec journalRec
		if err := json.Unmarshal(line, &rec); err != nil {
			// The journal carries non-job events too (drain); a record
			// that does not parse as a job event is not corruption.
			return nil
		}
		switch rec.Msg {
		case runlog.EvJobQueued:
			// The ID is spent even when the spec does not decode, so a
			// new job never reuses it.
			if n, err := strconv.Atoi(strings.TrimPrefix(rec.ID, "j-")); err == nil && n > m.seq {
				m.seq = n
			}
			j := &job{bus: runlog.NewBus()}
			j.snap = Job{ID: rec.ID, Key: rec.Key, Tenant: rec.Tenant, State: StateQueued}
			if err := json.Unmarshal(rec.Spec, &j.snap.Spec); err != nil {
				// A job that cannot be rebuilt is skipped like any other
				// record that does not parse; refusing the journal would
				// strand every other job in it.
				return nil
			}
			if _, seen := m.jobs[rec.ID]; !seen {
				order = append(order, rec.ID)
			}
			m.jobs[rec.ID] = j
		case runlog.EvJobStart:
			if j, ok := m.jobs[rec.ID]; ok {
				j.snap.State = StateRunning
				j.snap.Requeues++ // counts lives consumed; next start reports it
			}
		case runlog.EvJobDone:
			if j, ok := m.jobs[rec.ID]; ok {
				j.snap.State = State(rec.State)
				j.snap.Cause = rec.Cause
				j.snap.Cached = rec.Cached
				j.snap.Instructions = rec.Instructions
				j.snap.Cycles = rec.Cycles
				j.snap.CPI = rec.CPI
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var requeue []*job
	for _, id := range order {
		j := m.jobs[id]
		m.mux.Attach(id, j.bus)
		switch j.snap.State {
		case StateQueued, StateRunning, StateEvicted:
			// Requeues now counts every start this job has consumed,
			// which is exactly what the next job-start should report.
			j.snap.State = StateQueued
			j.snap.Cause = ""
			requeue = append(requeue, j)
		default:
			// Terminal: the first start was not a requeue.
			if j.snap.Requeues > 0 {
				j.snap.Requeues--
			}
		}
	}
	return requeue, nil
}

// emit is the single choke point for service events: journal the
// record (which also publishes it on the events bus) and fold the same
// event into the live counters. Keeping the two moves in one place is
// what makes obs.Validate hold by construction.
func (m *Manager) emit(ev runlog.Event, r obs.Rec) {
	m.journal.Emit(ev)
	m.cfg.Metrics.Count(r)
}

// registerGauges publishes the manager's present-state gauges. Gauge
// closures are sampled at /metrics render time, outside any Metrics
// lock, so taking m.mu here is safe.
func (m *Manager) registerGauges() {
	mm := m.cfg.Metrics
	if mm == nil {
		return
	}
	mm.Gauge("vaxd_queue_depth", "jobs queued but not yet running", func() float64 {
		m.mu.Lock()
		defer m.mu.Unlock()
		return float64(len(m.pending))
	})
	mm.Gauge("vaxd_jobs_running", "jobs currently executing", func() float64 {
		running := 0
		for _, s := range m.List() {
			if s.State == StateRunning {
				running++
			}
		}
		return float64(running)
	})
	mm.Gauge("vaxd_draining", "1 while the manager is draining, else 0", func() float64 {
		if m.Draining() {
			return 1
		}
		return 0
	})
	mm.Gauge("vaxd_store_objects", "committed bundles in the content-addressed store", func() float64 {
		keys, err := m.store.Keys()
		if err != nil {
			return -1
		}
		return float64(len(keys))
	})
}

// Draining reports whether admission has stopped. vaxd's /healthz uses
// it to fail readiness during the drain window.
func (m *Manager) Draining() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.draining
}

// EventsBus is the service-wide event bus: every journaled record is
// published on it, so subscribers (GET /events, vaxtop's fleet pane)
// see the same stream the journal persists.
func (m *Manager) EventsBus() *runlog.Bus { return m.events }

// NoteHTTP journals one settled HTTP request against a job and records
// its latency. vaxd calls it for submissions only — polls are not
// journaled (the journal fsyncs per record) — so the request counters
// measure admission traffic.
func (m *Manager) NoteHTTP(id, route, tenant string, status int, durNs int64) {
	m.emit(runlog.JobHTTPEvent(id, route, tenant, status, durNs),
		obs.Rec{Msg: runlog.EvJobHTTP, Tenant: tenant, Status: status})
	m.cfg.Metrics.Observe("vaxd_request_duration_seconds", tenant, float64(durNs)/1e9)
}

// take spends one quota token for the tenant, reporting whether the
// bucket had one. Caller holds m.mu.
func (m *Manager) take(tenant string) bool {
	if m.cfg.Quota.Rate <= 0 && m.cfg.Quota.Burst <= 0 {
		return true
	}
	now := m.cfg.Clock()
	b, ok := m.buckets[tenant]
	if !ok {
		b = &bucket{tokens: m.cfg.Quota.Burst, last: now}
		m.buckets[tenant] = b
	}
	b.tokens += now.Sub(b.last).Seconds() * m.cfg.Quota.Rate
	if b.tokens > m.cfg.Quota.Burst {
		b.tokens = m.cfg.Quota.Burst
	}
	b.last = now
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// refund returns one quota token (a submission shed after its token was
// spent — the full queue is the service's fault, not the tenant's).
// Caller holds m.mu.
func (m *Manager) refund(tenant string) {
	if b, ok := m.buckets[tenant]; ok {
		b.tokens++
		if b.tokens > m.cfg.Quota.Burst {
			b.tokens = m.cfg.Quota.Burst
		}
	}
}

// Submit admits one job: validate, content-address, answer from cache
// if the bundle exists, otherwise charge the tenant's quota and
// enqueue. Rejections are sentinels (ErrDraining, ErrBadSpec,
// ErrQuotaExceeded, ErrQueueFull) mapped to HTTP codes by HTTPStatus.
// Cache hits bypass quota and queue — serving a committed bundle costs
// no simulation, so it is never shed.
func (m *Manager) Submit(spec Spec) (Job, error) {
	if err := spec.Validate(); err != nil {
		return Job{}, err
	}
	key, err := spec.Key()
	if err != nil {
		return Job{}, err
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	if m.draining {
		m.emit(runlog.JobShedEvent(spec.Tenant, "draining"),
			obs.Rec{Msg: runlog.EvJobShed, Reason: "draining"})
		return Job{}, ErrDraining
	}
	m.seq++
	id := fmt.Sprintf("j-%06d", m.seq)
	j := &job{bus: runlog.NewBus()}
	j.snap = Job{ID: id, Key: key, Tenant: spec.Tenant, State: StateQueued, Spec: spec}

	if m.store.Has(key) {
		m.jobs[id] = j
		m.mux.Attach(id, j.bus)
		m.emit(runlog.JobQueuedEvent(id, key, spec.Tenant, spec.DeadlineMS, spec),
			obs.Rec{Msg: runlog.EvJobQueued, Tenant: spec.Tenant})
		m.settleCached(j)
		return j.get(), nil
	}

	if !m.take(spec.Tenant) {
		m.emit(runlog.JobShedEvent(spec.Tenant, "quota"),
			obs.Rec{Msg: runlog.EvJobShed, Reason: "quota"})
		return Job{}, fmt.Errorf("%w (tenant %q)", ErrQuotaExceeded, spec.Tenant)
	}
	if len(m.pending) >= m.cfg.QueueDepth {
		m.refund(spec.Tenant)
		m.emit(runlog.JobShedEvent(spec.Tenant, "queue-full"),
			obs.Rec{Msg: runlog.EvJobShed, Reason: "queue-full"})
		return Job{}, fmt.Errorf("%w (depth %d)", ErrQueueFull, m.cfg.QueueDepth)
	}
	m.jobs[id] = j
	m.mux.Attach(id, j.bus)
	m.pending = append(m.pending, j)
	m.emit(runlog.JobQueuedEvent(id, key, spec.Tenant, spec.DeadlineMS, spec),
		obs.Rec{Msg: runlog.EvJobQueued, Tenant: spec.Tenant})
	m.notify <- struct{}{}
	return j.snap, nil
}

// fillFromMeta loads a committed bundle's totals into a cached job's
// snapshot (best-effort: a bundle without meta still serves).
func (m *Manager) fillFromMeta(snap *Job) {
	data, err := m.store.ReadFile(snap.Key, "meta.json")
	if err != nil {
		return
	}
	var meta bundleMeta
	if json.Unmarshal(data, &meta) == nil {
		snap.Instructions = meta.Instructions
		snap.Cycles = meta.Cycles
		snap.CPI = meta.CPI
	}
}

// finish moves a job to the terminal state s.
func (m *Manager) finish(j *job, s State, cause string) {
	next := j.get()
	next.State, next.Cause = s, cause
	m.settle(j, next)
}

// settleCached finishes a job whose result is already in the store.
func (m *Manager) settleCached(j *job) {
	next := j.get()
	next.State, next.Cached = StateDone, true
	m.fillFromMeta(&next)
	m.settle(j, next)
}

// settle journals the terminal snapshot next, then makes it the job's
// snapshot and publishes the record on the job's live bus so SSE
// subscribers see the lifecycle close. The record goes first:
// obs.AssembleJob hangs an attempt's run spans under its done record,
// so a client that sees a terminal state from Get must find that record
// when it assembles the job's trace.
func (m *Manager) settle(j *job, next Job) {
	ev := runlog.JobDoneEvent(next.ID, next.Key, string(next.State), next.Cause, next.Cached,
		next.Instructions, next.Cycles, next.CPI)
	m.emit(ev, obs.Rec{Msg: runlog.EvJobDone, Tenant: next.Tenant,
		State: string(next.State), Cached: next.Cached})
	j.mu.Lock()
	j.snap = next
	j.mu.Unlock()
	j.bus.Publish(ev)
}

// Get returns a job snapshot by ID.
func (m *Manager) Get(id string) (Job, error) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return Job{}, fmt.Errorf("%w: %s", ErrUnknownJob, id)
	}
	return j.get(), nil
}

// List returns every known job, sorted by ID (admission order).
func (m *Manager) List() []Job {
	m.mu.Lock()
	out := make([]Job, 0, len(m.jobs))
	for _, j := range m.jobs {
		out = append(out, j.get())
	}
	m.mu.Unlock()
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out
}

// ServeEvents streams a job's live event bus as SSE.
func (m *Manager) ServeEvents(w http.ResponseWriter, r *http.Request, id string) {
	m.mux.ServeKey(w, r, id)
}

// Store returns the manager's content-addressed store.
func (m *Manager) Store() *castore.Store { return m.store }

func (m *Manager) pop() *job {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.pending) == 0 {
		return nil
	}
	j := m.pending[0]
	m.pending = m.pending[1:]
	return j
}

func (m *Manager) worker() {
	defer m.wg.Done()
	for {
		select {
		case <-m.root.Done():
			return
		case <-m.notify:
			if j := m.pop(); j != nil {
				m.runJob(j)
			}
		}
	}
}

// runJob executes one job end to end: re-check the cache (a twin job
// may have committed while this one queued), run with checkpoint and
// deadline, classify the outcome, assemble and commit the bundle.
func (m *Manager) runJob(j *job) {
	snap := j.get()
	if m.store.Has(snap.Key) {
		m.settleCached(j)
		return
	}

	j.mu.Lock()
	j.snap.State, j.snap.Cause = StateRunning, ""
	j.mu.Unlock()
	m.emit(runlog.JobStartEvent(snap.ID, snap.Key, snap.Requeues),
		obs.Rec{Msg: runlog.EvJobStart})
	started := m.cfg.Clock()

	ctx := m.root
	if snap.Spec.DeadlineMS > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(snap.Spec.DeadlineMS)*time.Millisecond)
		defer cancel()
	}

	stage, err := m.store.Stage(snap.ID)
	if err != nil {
		m.finish(j, StateFailed, err.Error())
		return
	}
	var runErr error
	if snap.Spec.IsSweep() {
		runErr = m.runSweep(ctx, j, stage)
	} else {
		runErr = m.runSingle(ctx, j, stage)
	}

	switch {
	case runErr == nil:
		// runSingle/runSweep committed the bundle and filled the totals.
		m.finish(j, StateDone, "")
	case errors.Is(runErr, context.DeadlineExceeded):
		// The job's own deadline fired. Terminal: a requeue would meet
		// the same deadline. The staged checkpoint is discarded.
		stage.Abandon()
		m.finish(j, StateTimedOut, ErrDeadlineExceeded.Error())
	case errors.Is(runErr, context.Canceled) && m.root.Err() != nil:
		// Drain. Keep the staging directory: the checkpoint written at
		// the last workload boundary is the requeued job's resume point.
		m.finish(j, StateEvicted, "drained: requeued for next process")
	default:
		stage.Abandon()
		m.finish(j, StateFailed, runErr.Error())
	}
	m.cfg.Metrics.Observe("vaxd_job_duration_seconds", snap.Tenant,
		m.cfg.Clock().Sub(started).Seconds())
	// A twin job may have won the commit while this one ran; surface the
	// benign race in the journal and counters.
	for _, key := range m.store.TakeCommitRaces() {
		m.emit(runlog.CommitRaceEvent(key), obs.Rec{Msg: runlog.EvCommitRace})
	}
}

// bundleMeta is the bundle's machine-readable summary. Deliberately
// wall-clock-free: identical submissions must produce byte-identical
// bundles.
type bundleMeta struct {
	Key          string  `json:"key"`
	Sweep        bool    `json:"sweep,omitempty"`
	Instructions uint64  `json:"instructions"`
	Cycles       uint64  `json:"cycles"`
	CPI          float64 `json:"cpi"`
	Spec         Spec    `json:"spec"`
}

// specIdentity strips the service-level fields (tenant, deadline) that
// are not part of the measurement identity, so bundle bytes do not
// depend on who asked or how patient they were.
func specIdentity(s Spec) Spec {
	s.Tenant = ""
	s.DeadlineMS = 0
	return s
}

// runSingle runs a non-sweep job: checkpointed, resumable, ledgered,
// live events on the job's bus. On success the bundle is committed
// under the job's key.
func (m *Manager) runSingle(ctx context.Context, j *job, stage *castore.Staging) error {
	snap := j.get()
	cfg, err := snap.Spec.runConfig()
	if err != nil {
		return err
	}
	led, err := os.Create(stage.Path("ledger.jsonl"))
	if err != nil {
		return err
	}
	cfg.Checkpoint = stage.Path("run.ckpt")
	cfg.Resume = true // a requeued job resumes its previous life's checkpoint
	cfg.Ledger = led
	cfg.Events = j.bus
	// The bundle's causal trace. The trace ID is the content address, so
	// identical submissions produce byte-identical trace files.
	rec := obs.NewRecorder(snap.Key)
	cfg.Trace = rec

	res, runErr := m.cfg.Runner(ctx, cfg)
	if cerr := led.Close(); runErr == nil && cerr != nil {
		runErr = cerr
	}
	if runErr != nil {
		return runErr
	}

	hist, err := os.Create(stage.Path("histogram.upch"))
	if err != nil {
		return err
	}
	if err := res.SaveHistogram(hist); err != nil {
		hist.Close()
		return err
	}
	if err := hist.Close(); err != nil {
		return err
	}
	if err := stage.WriteFile("report.txt", []byte(res.Report())); err != nil {
		return err
	}
	var traceBuf bytes.Buffer
	if err := rec.WriteJSONL(&traceBuf); err != nil {
		return err
	}
	// Strip wall placement (present when a profiler is attached) so the
	// committed trace is a pure function of the measurement.
	traceRows, err := obs.StripWall(traceBuf.Bytes())
	if err != nil {
		return err
	}
	if err := stage.WriteFile("trace.jsonl", traceRows); err != nil {
		return err
	}
	meta := bundleMeta{
		Key:          snap.Key,
		Instructions: res.Instructions(),
		Cycles:       res.Histogram().TotalCycles(),
		CPI:          res.CPI(),
		Spec:         specIdentity(snap.Spec),
	}
	if err := writeMeta(stage, meta); err != nil {
		return err
	}
	// The checkpoint is job scratch, not result: drop it from the bundle.
	if err := stage.Remove("run.ckpt"); err != nil {
		return err
	}
	if err := stage.Commit(snap.Key); err != nil {
		return err
	}
	j.mu.Lock()
	j.snap.Instructions = meta.Instructions
	j.snap.Cycles = meta.Cycles
	j.snap.CPI = meta.CPI
	j.mu.Unlock()
	return nil
}

// sweepRow is one design point's summary in the bundle's sweep.json.
type sweepRow struct {
	Label        string  `json:"label"`
	Instructions uint64  `json:"instructions"`
	Cycles       uint64  `json:"cycles"`
	CPI          float64 `json:"cpi"`
	Error        string  `json:"error,omitempty"`
}

// runSweep runs a sweep job. Sweep points cannot carry checkpoints, so
// an evicted or crashed sweep restarts from scratch when requeued; its
// determinism makes the restart equivalent.
func (m *Manager) runSweep(ctx context.Context, j *job, stage *castore.Staging) error {
	snap := j.get()
	pts, err := snap.Spec.sweepPoints()
	if err != nil {
		return err
	}
	for i := range pts {
		pts[i].Config.Events = j.bus
	}
	led, err := os.Create(stage.Path("ledger.jsonl"))
	if err != nil {
		return err
	}
	results := m.cfg.Sweeper(ctx, pts, vax780.SweepOptions{Ledger: led})
	if cerr := led.Close(); cerr != nil {
		return cerr
	}
	if cerr := ctx.Err(); cerr != nil {
		return cerr
	}

	rows := make([]sweepRow, len(results))
	var instrs, cycles uint64
	for i, r := range results {
		rows[i].Label = r.Label
		if r.Err != nil {
			rows[i].Error = r.Err.Error()
			continue
		}
		rows[i].Instructions = r.Results.Instructions()
		rows[i].Cycles = r.Results.Histogram().TotalCycles()
		rows[i].CPI = r.Results.CPI()
		instrs += rows[i].Instructions
		cycles += rows[i].Cycles
	}
	for _, row := range rows {
		if row.Error != "" {
			return fmt.Errorf("jobs: sweep point %q: %s", row.Label, row.Error)
		}
	}
	enc, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		return err
	}
	if err := stage.WriteFile("sweep.json", append(enc, '\n')); err != nil {
		return err
	}
	meta := bundleMeta{
		Key:          snap.Key,
		Sweep:        true,
		Instructions: instrs,
		Cycles:       cycles,
		Spec:         specIdentity(snap.Spec),
	}
	if instrs > 0 {
		meta.CPI = float64(cycles) / float64(instrs)
	}
	if err := writeMeta(stage, meta); err != nil {
		return err
	}
	if err := stage.Commit(snap.Key); err != nil {
		return err
	}
	j.mu.Lock()
	j.snap.Instructions = meta.Instructions
	j.snap.Cycles = meta.Cycles
	j.snap.CPI = meta.CPI
	j.mu.Unlock()
	return nil
}

func writeMeta(stage *castore.Staging, meta bundleMeta) error {
	enc, err := json.MarshalIndent(meta, "", "  ")
	if err != nil {
		return err
	}
	return stage.WriteFile("meta.json", append(enc, '\n'))
}

// Drain gracefully shuts the manager down: admission stops
// (submissions get ErrDraining), in-flight runs are canceled at their
// next workload boundary with their checkpoints preserved in staging,
// and every non-terminal job is journaled as evicted so the next
// process requeues it. Blocks until the workers have exited, then
// journals the drain record and returns the number of requeued jobs.
func (m *Manager) Drain(reason string) int {
	m.mu.Lock()
	if m.draining {
		m.mu.Unlock()
		m.wg.Wait()
		return 0
	}
	m.draining = true
	m.mu.Unlock()

	m.cancel()
	m.wg.Wait()

	// Workers classified their in-flight jobs on the way out; whatever
	// is still queued is evicted here.
	m.mu.Lock()
	queued := m.pending
	m.pending = nil
	m.mu.Unlock()
	for _, j := range queued {
		m.finish(j, StateEvicted, "drained: requeued for next process")
	}
	requeued := 0
	for _, s := range m.List() {
		if s.State == StateEvicted {
			requeued++
		}
	}
	m.emit(runlog.DrainEvent(reason, requeued), obs.Rec{Msg: runlog.EvDrain})
	return requeued
}

// Close force-stops the workers without drain bookkeeping (tests and
// error paths; production shutdown is Drain). The store is the
// caller's to close.
func (m *Manager) Close() {
	m.cancel()
	m.wg.Wait()
}
