package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"syscall"
	"time"

	"vax780"
	"vax780/internal/castore"
	"vax780/internal/jobs"
	"vax780/internal/runlog"
	"vax780/internal/workload"
)

// The vaxd-mix traffic: a closed loop that keeps inflight cold jobs
// outstanding, as a client sweeping specs through the service does, and
// sends the next submission as soon as one is done. vaxd's single
// default worker then always has one job running and one queued. The
// host's stalls slow the loop down but fail nothing: the 16-deep queue
// never holds more than inflight jobs, and a repeat names a spec whose
// job is done.
//
// Why not an open loop. At 30 submissions/s a stall of the shared host
// failed submissions two ways, a full queue (429) or a repeat sent
// before its first job was done: one of two sets of ten runs lost 10 of
// 6000 submissions. At 10/s none failed, but vaxd idled between jobs,
// and its CPU time per job rose by a third whenever the host was busy,
// against a tenth for the closed loops (quartile spread of ten runs
// 19-28%, against 10-11%).
//
// Each submission is drawn at random: a cold spec never sent before,
// or, with probability hitShare once hitLag cold specs have gone out, a
// resubmission of a random one of all but the newest hitLag of them: a
// cache hit served beside the cold jobs.
const (
	inflight = 2
	hitShare = 1.0 / 3

	// hitLag is how many of the newest cold specs a repeat passes over:
	// four times as many as can still be running. Only the newest
	// inflight can be: vaxd's one worker takes jobs in order, and the
	// loop sends a cold job only when fewer than inflight are outstanding.
	hitLag = 4 * inflight

	// checkedBundles is how many committed bundles the correctness gate
	// compares with an in-process run of the same spec.
	checkedBundles = 20

	// traceCacheEntries is the size of vax780's process-wide trace
	// cache (tracecache.go), for the reuse share the traffic offers it.
	traceCacheEntries = 8

	// probeRuns is how many probe passes time the host before a window
	// that has no vaxd process to sample beside.
	probeRuns = 25

	startTimeout = 30 * time.Second
	doneTimeout  = 30 * time.Second
)

// The cold-spec space: one of the five workloads at one of two lengths
// (ten trace shapes, more than the trace cache's eight entries, so it
// churns) on a random cache, TB, memory latency and write buffer.
var (
	mixInstructions = []int{10_000, 20_000}
	mixCacheBytes   = []int{2 << 10, 4 << 10, 8 << 10, 16 << 10, 32 << 10}
	mixCacheWays    = []int{1, 2, 4}
	mixTBEntries    = []int{64, 128, 256}
	mixMissLatency  = []int{4, 5, 6, 7, 8, 9}
	mixWriteBusy    = []int{2, 3, 4, 5, 6, 7, 8}
)

// submission is one POST of the plan.
type submission struct {
	spec jobs.Spec
	hit  bool // repeats an earlier cold spec
}

// mixPlan draws the submissions of a window from a seed, one at a time:
// the same seed gives the same sequence, however much of it a window
// sends. Every cold spec is distinct (by content address), so only the
// planned repeats can hit.
type mixPlan struct {
	rng  *rand.Rand
	seen map[string]bool
	cold []jobs.Spec
}

func newMixPlan(seed int64) *mixPlan {
	return &mixPlan{rng: rand.New(rand.NewSource(seed)), seen: make(map[string]bool)}
}

// specSpace is the number of distinct cold specs.
var specSpace = int(vax780.NumWorkloads) * len(mixInstructions) * len(mixCacheBytes) *
	len(mixCacheWays) * len(mixTBEntries) * len(mixMissLatency) * len(mixWriteBusy)

func (p *mixPlan) next() (submission, error) {
	if old := len(p.cold) - hitLag; old > 0 && p.rng.Float64() < hitShare {
		return submission{spec: p.cold[p.rng.Intn(old)], hit: true}, nil
	}
	if len(p.seen) == specSpace {
		return submission{}, fmt.Errorf("the window needs more than the %d distinct cold specs there are", specSpace)
	}
	pick := func(xs []int) int { return xs[p.rng.Intn(len(xs))] }
	for {
		s := jobs.Spec{
			Workloads:    []string{vax780.WorkloadID(p.rng.Intn(int(vax780.NumWorkloads))).String()},
			Instructions: pick(mixInstructions),
			CacheBytes:   pick(mixCacheBytes),
			CacheWays:    pick(mixCacheWays),
			TBEntries:    pick(mixTBEntries),
			MissLatency:  pick(mixMissLatency),
			WriteBusy:    pick(mixWriteBusy),
		}
		key, err := s.Key()
		if err != nil {
			return submission{}, err
		}
		if !p.seen[key] {
			p.seen[key] = true
			p.cold = append(p.cold, s)
			return submission{spec: s}, nil
		}
	}
}

// traceReusePct is the share of cold submissions whose trace shape an
// LRU of the given size, fed the cold submissions in order, already
// holds. vaxd's one worker starts jobs in submission order, so this is
// the share of cold jobs the trace cache can serve without generating.
// The cache keeps no counters and the benchmark changes nothing inside
// the program, so the share is computed from the traffic.
func traceReusePct(plan []submission, entries int) float64 {
	type shape struct {
		workload string
		instr    int
	}
	var lru []shape // oldest first
	hits, cold := 0, 0
	for _, p := range plan {
		if p.hit {
			continue
		}
		cold++
		k := shape{p.spec.Workloads[0], p.spec.Instructions}
		if i := slices.Index(lru, k); i >= 0 {
			hits++
			lru = slices.Delete(lru, i, i+1)
		} else if len(lru) == entries {
			lru = lru[1:]
		}
		lru = append(lru, k)
	}
	return float64(hits) / float64(cold) * 100
}

// runConfigOf is the in-process run of a single-workload spec.
func runConfigOf(s jobs.Spec) (vax780.RunConfig, error) {
	id, err := vax780.WorkloadByName(s.Workloads[0])
	return vax780.RunConfig{
		Instructions: s.Instructions,
		Workloads:    []vax780.WorkloadID{id},
		CacheBytes:   s.CacheBytes,
		CacheWays:    s.CacheWays,
		TBEntries:    s.TBEntries,
		MissLatency:  s.MissLatency,
		WriteBusy:    s.WriteBusy,
	}, err
}

// profileOf is the workload profile a spec's trace is generated from.
func profileOf(s jobs.Spec) (workload.Profile, error) {
	id, err := vax780.WorkloadByName(s.Workloads[0])
	if err != nil {
		return workload.Profile{}, err
	}
	return workload.AllProfiles(s.Instructions)[id], nil
}

// board collects what the service reports asynchronously, stamped on
// arrival: job-start and job-done records and, in process, when the
// runner started and ended each content key. It passes the ID of every
// finished cold job on to the load generator.
type board struct {
	mu       sync.Mutex
	start    map[string]float64
	done     map[string]doneRec
	runner   map[string][2]float64
	finished chan string
}

type doneRec struct {
	at     float64
	state  string
	cycles float64
}

func newBoard() *board {
	return &board{
		start:  make(map[string]float64),
		done:   make(map[string]doneRec),
		runner: make(map[string][2]float64),
		// The generator keeps at most inflight cold jobs outstanding and
		// reads each ID as it comes, so the buffer never fills; a job
		// whose ID could not be passed on is reported missed.
		finished: make(chan string, 16*inflight),
	}
}

// note records one journal record (its JSON form, as SSE and the events
// bus carry it) that arrived at at.
func (b *board) note(record []byte, at float64) {
	var ev struct {
		Ev     string  `json:"ev"`
		ID     string  `json:"id"`
		State  string  `json:"state"`
		Cached bool    `json:"cached"`
		Cycles float64 `json:"cycles"`
	}
	if json.Unmarshal(record, &ev) != nil {
		return
	}
	b.mu.Lock()
	switch {
	case ev.Ev == runlog.EvJobStart:
		b.start[ev.ID] = at
	case ev.Ev == runlog.EvJobDone && !ev.Cached:
		b.done[ev.ID] = doneRec{at: at, state: ev.State, cycles: ev.Cycles}
	}
	b.mu.Unlock()
	if ev.Ev == runlog.EvJobDone && !ev.Cached {
		select {
		case b.finished <- ev.ID:
		default:
		}
	}
}

func (b *board) doneOf(id string) (doneRec, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	d, ok := b.done[id]
	return d, ok
}

// service is the vaxd surface the load generator drives: the real
// binary over loopback HTTP, or a jobs.Manager in process.
type service interface {
	submit(spec jobs.Spec) (jobs.Job, error)
	histogram(key string) ([]byte, error)
	events() *board
	stop() error
}

// vaxdProc is a vaxd process with one POST connection and one SSE
// connection on its service-wide /events stream.
type vaxdProc struct {
	cmd     *exec.Cmd
	base    string
	client  *http.Client
	b       *board
	body    io.Closer
	logDone chan struct{}
	sseDone chan struct{}
	stopped bool
	usage   *syscall.Rusage // once stopped
}

// startVaxd starts vaxd with default flags on a fresh data directory
// and returns once it is ready and the SSE stream is open.
func startVaxd(bin, dir string) (*vaxdProc, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-data", dir)
	logs, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	p := &vaxdProc{cmd: cmd, b: newBoard(), logDone: make(chan struct{})}
	addr := make(chan string, 1)
	ready := make(chan struct{})
	go func() {
		defer close(p.logDone)
		sc := bufio.NewScanner(logs)
		announced := false
		for sc.Scan() {
			line := sc.Text()
			if _, rest, ok := strings.Cut(line, "listening on "); ok && !announced {
				a, _, _ := strings.Cut(rest, ",")
				addr <- a
				announced = true
			}
			if strings.HasSuffix(line, "vaxd: ready") {
				close(ready)
			}
		}
	}()
	fail := func(err error) (*vaxdProc, error) {
		p.cmd.Process.Kill()
		<-p.logDone
		p.cmd.Wait()
		return nil, err
	}
	select {
	case <-ready:
	case <-p.logDone:
		return fail(errors.New("vaxd exited during start-up"))
	case <-time.After(startTimeout):
		return fail(errors.New("vaxd not ready in time"))
	}
	p.base = "http://" + <-addr
	p.client = &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
		Timeout:   doneTimeout,
	}
	resp, err := (&http.Client{Transport: &http.Transport{}}).Get(p.base + "/events")
	if err != nil {
		return fail(err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return fail(fmt.Errorf("GET /events: %s", resp.Status))
	}
	p.body, p.sseDone = resp.Body, make(chan struct{})
	go func() {
		defer close(p.sseDone)
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		for sc.Scan() {
			if data, ok := strings.CutPrefix(sc.Text(), "data: "); ok {
				p.b.note([]byte(data), now())
			}
		}
	}()
	return p, nil
}

func (p *vaxdProc) events() *board { return p.b }

func (p *vaxdProc) submit(spec jobs.Spec) (jobs.Job, error) {
	var job jobs.Job
	body, err := json.Marshal(spec)
	if err != nil {
		return job, err
	}
	resp, err := p.client.Post(p.base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return job, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		return job, fmt.Errorf("POST /jobs: %s", resp.Status)
	}
	err = json.NewDecoder(resp.Body).Decode(&job)
	io.Copy(io.Discard, resp.Body) // drained, the connection is reused
	return job, err
}

func (p *vaxdProc) histogram(key string) ([]byte, error) {
	resp, err := p.client.Get(p.base + "/results/" + key + "/histogram.upch")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET histogram.upch: %s", resp.Status)
	}
	return io.ReadAll(resp.Body)
}

// stop drains vaxd with SIGTERM (killing it if the drain hangs) and
// waits for it and both readers.
func (p *vaxdProc) stop() error {
	if p.stopped {
		return nil
	}
	p.stopped = true
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	kill := time.AfterFunc(doneTimeout, func() { p.cmd.Process.Kill() })
	defer kill.Stop()
	<-p.logDone
	err := p.cmd.Wait()
	p.body.Close()
	<-p.sseDone
	ru, ok := p.cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return errors.New("no resource usage for vaxd")
	}
	p.usage = ru
	// vaxd logs "ready" just before it installs its signal handler, so a
	// stop right after set-up can find the default action still in place.
	if ws, ok := p.cmd.ProcessState.Sys().(syscall.WaitStatus); ok && ws.Signaled() && ws.Signal() == syscall.SIGTERM {
		return nil
	}
	return err
}

// inproc is a jobs.Manager over a castore in this process, with a
// runner that stamps each run and a subscription on the events bus.
type inproc struct {
	store *castore.Store
	mgr   *jobs.Manager
	b     *board
	unsub func()
	done  chan struct{}
}

func startInproc(dir string) (*inproc, error) {
	store, err := castore.Open(dir)
	if err != nil {
		return nil, err
	}
	b := newBoard()
	runner := func(ctx context.Context, cfg vax780.RunConfig) (*vax780.Results, error) {
		start := now()
		res, err := vax780.RunContext(ctx, cfg)
		end := now()
		b.mu.Lock()
		b.runner[cfg.Trace.TraceID()] = [2]float64{start, end} // the trace ID is the content key
		b.mu.Unlock()
		return res, err
	}
	mgr, err := jobs.New(jobs.Config{Store: store, Runner: runner})
	if err != nil {
		store.Close()
		return nil, err
	}
	// Room for every record a window publishes (a few per submission),
	// so the bus never drops a job-start or job-done on this reader.
	ch, unsub := mgr.EventsBus().Subscribe(1 << 16)
	p := &inproc{store: store, mgr: mgr, b: b, unsub: unsub, done: make(chan struct{})}
	go func() {
		defer close(p.done)
		for ev := range ch {
			b.note(ev.JSON(), now())
		}
	}()
	return p, nil
}

func (p *inproc) events() *board { return p.b }

func (p *inproc) submit(spec jobs.Spec) (jobs.Job, error) { return p.mgr.Submit(spec) }

func (p *inproc) histogram(key string) ([]byte, error) {
	return p.store.ReadFile(key, "histogram.upch")
}

func (p *inproc) stop() error {
	if p.mgr == nil {
		return nil
	}
	p.mgr.Drain("benchmark done")
	p.mgr = nil
	p.unsub()
	<-p.done
	return p.store.Close()
}

// mixSession is vaxd-mix after set-up. Untraced, it drives the vaxd
// binary over HTTP. Traced, it drives the loop twice: against the
// binary, for the HTTP round trips, then against an in-process manager,
// whose runner and events bus give the per-layer partition of each job;
// without a vaxd binary (in tests) only the second pass runs.
type mixSession struct {
	cfg  runConfig
	proc *vaxdProc // nil in a traced run without a vaxd binary
	in   *inproc   // traced only
	host *probe
}

func setupVaxdMix(cfg runConfig) (session, error) {
	if cfg.vaxd == "" && !cfg.traced {
		return nil, errors.New("vaxd-mix needs -vaxd (bench/run.sh builds and passes it)")
	}
	s := &mixSession{cfg: cfg, host: newProbe()}
	var err error
	if cfg.vaxd != "" {
		if s.proc, err = startVaxd(cfg.vaxd, filepath.Join(cfg.work, "vaxd-data")); err != nil {
			return nil, err
		}
	}
	if cfg.traced {
		if s.in, err = startInproc(filepath.Join(cfg.work, "inproc-data")); err != nil {
			return nil, errors.Join(err, s.close())
		}
	}
	return s, nil
}

func (s *mixSession) close() error {
	var errs []error
	if s.proc != nil {
		errs = append(errs, s.proc.stop())
	}
	if s.in != nil {
		errs = append(errs, s.in.stop())
	}
	return errors.Join(errs...)
}

func (s *mixSession) serviceCPUNs() float64 {
	if s.proc == nil || s.proc.usage == nil {
		return 0
	}
	return rusageNs(s.proc.usage)
}

// sent is one submission as it went out.
type sent struct {
	sub       submission
	send, ret float64
	job       jobs.Job
	err       error
}

// drive runs the closed loop against svc from one goroutine (one POST
// connection): it sends submissions until inflight cold jobs are
// outstanding, then waits for one to finish. Once the window's seconds
// have passed it sends nothing more and waits for the jobs still
// outstanding. A wait longer than doneTimeout ends the loop; run counts
// the jobs it left unfinished as missed.
func (s *mixSession) drive(svc service) ([]sent, error) {
	b := svc.events()
	plan := newMixPlan(s.cfg.seed)
	var out []sent
	finished := make(map[string]bool) // cold jobs whose job-done record arrived
	waiting := make(map[string]bool)  // cold jobs sent and not yet finished
	end := now() + s.cfg.seconds*1e9
	for {
		for len(waiting) < inflight && now() < end {
			sub, err := plan.next()
			if err != nil {
				return nil, err
			}
			x := sent{sub: sub, send: now()}
			x.job, x.err = svc.submit(sub.spec)
			x.ret = now()
			out = append(out, x)
			if x.err == nil && !sub.hit && !finished[x.job.ID] {
				waiting[x.job.ID] = true
			}
		}
		if len(waiting) == 0 {
			return out, nil
		}
		timeout := time.NewTimer(doneTimeout)
		select {
		case id := <-b.finished:
			finished[id] = true
			delete(waiting, id)
		case <-timeout.C:
			return out, nil
		}
		timeout.Stop()
	}
}

// window is one driven loop: the submissions as they went out, and the
// latencies, in ns, of those that succeeded.
type window struct {
	sents  []sent
	cold   []float64 // send → job-done record (one job queued ahead)
	cycles float64   // simulated cycles of the cold jobs
	post   []float64 // a cold submission's POST round trip
	hit    []float64 // a resubmission's POST round trip
	missed int       // cold jobs whose job-done record never arrived
}

func (w window) submissions() []submission {
	subs := make([]submission, len(w.sents))
	for i, x := range w.sents {
		subs[i] = x.sub
	}
	return subs
}

// run drives the loop against svc and counts every submission in out:
// transport errors, 429s and 5xx, resubmissions the cache did not
// answer, and cold jobs that did not end done all count as failed.
func (s *mixSession) run(svc service, out *outcome) (window, error) {
	sents, err := s.drive(svc)
	if err != nil {
		return window{}, err
	}
	w := window{sents: sents}
	b := svc.events()
	for i, x := range w.sents {
		out.attempted++
		switch {
		case x.err != nil:
			out.failed++
			fmt.Fprintf(os.Stderr, "bench: vaxd-mix submission %d: %v\n", i, x.err)
		case x.sub.hit:
			if !x.job.Cached {
				out.failed++
				fmt.Fprintf(os.Stderr, "bench: vaxd-mix submission %d: repeat not answered from the cache\n", i)
				continue
			}
			w.hit = append(w.hit, x.ret-x.send)
		default:
			d, ok := b.doneOf(x.job.ID)
			if !ok {
				w.missed++
				out.failed++
				fmt.Fprintf(os.Stderr, "bench: vaxd-mix submission %d: job %s not done\n", i, x.job.ID)
				continue
			}
			if x.job.Cached || d.state != string(jobs.StateDone) {
				out.failed++
				fmt.Fprintf(os.Stderr, "bench: vaxd-mix submission %d: job %s ended %s (cached %v)\n", i, x.job.ID, d.state, x.job.Cached)
				continue
			}
			w.cold = append(w.cold, d.at-x.send)
			w.cycles += d.cycles
			w.post = append(w.post, x.ret-x.send)
		}
	}
	return w, nil
}

// measure runs the window (traced, both passes), the correctness gate,
// and the metrics of the mode.
func (s *mixSession) measure() (*outcome, error) {
	out := &outcome{metrics: make(map[string]float64)}
	m := out.metrics
	if s.proc != nil {
		// vaxd's CPU time over the window, from the first send until the
		// last cold job is done, with the probe sampling the host beside
		// it.
		pid := s.proc.cmd.Process.Pid
		cpu0, err := procCPUNs(pid)
		if err != nil {
			return nil, err
		}
		stopProbe := s.host.sample()
		w, err := s.run(s.proc, out)
		stopProbe()
		if err != nil {
			return nil, err
		}
		cpu1, err := procCPUNs(pid)
		if err != nil {
			return nil, err
		}
		if _, err := s.checkBundles(out, w.sents, s.proc); err != nil {
			return nil, err
		}
		if err := s.proc.stop(); err != nil {
			return nil, fmt.Errorf("stopping vaxd: %w", err)
		}
		fmt.Fprintf(os.Stderr, "bench: vaxd-mix over HTTP: %d cold jobs (wall p50 %.3f ms, p90 %.3f ms), "+
			"%d hits (p50 %.3f ms, p90 %.3f ms), vaxd CPU %.3f s, %.0f%% trace-shape reuse, host probe median %.3f ms\n",
			len(w.cold), median(w.cold)/1e6, tail(w.cold, 0.9)/1e6, len(w.hit), median(w.hit)/1e6, tail(w.hit, 0.9)/1e6,
			(cpu1-cpu0)/1e9, traceReusePct(w.submissions(), traceCacheEntries), s.host.ms())
		if !s.cfg.traced {
			m["norm_cpu_ms_per_op"] = (cpu1 - cpu0) * s.host.scale() / float64(len(w.sents)) / 1e6
			m["norm_ns_per_sim_cycle"] = (cpu1 - cpu0) * s.host.scale() / w.cycles
			m["rss_max_mb"] = float64(s.proc.usage.Maxrss) / 1024
			return out, nil
		}
		m["vaxd.cold_ms_p50"] = median(w.cold) / 1e6
		m["vaxd.cold_ms_p90"] = tail(w.cold, 0.9) / 1e6
		m["vaxd.post_ms_p50"] = median(w.post) / 1e6
		m["vaxd.hit_ms_p50"] = median(w.hit) / 1e6
		m["vaxd.hit_ms_p90"] = tail(w.hit, 0.9) / 1e6
		m["loadgen.sse_missed"] = float64(w.missed)
	} else {
		for i := 0; i < probeRuns; i++ {
			s.host.run()
		}
	}

	var mem memUse
	mem.before()
	w, err := s.run(s.in, out)
	mem.after()
	if err != nil {
		return nil, err
	}
	sample, err := s.checkBundles(out, w.sents, s.in)
	if err != nil {
		return nil, err
	}
	t := s.jobSpans(w.sents)
	if err := s.sampleLayers(t, sample); err != nil {
		return nil, err
	}
	t.finish()
	coldMs := median(w.cold) / 1e6
	layerMetrics(t, m, coldMs)
	var sims simCounts
	for _, r := range sample {
		sims.add(r.op, r.res)
	}
	sims.metrics(m)
	fusionMetrics(t, m, sims.cycles)
	mem.metrics(m, len(w.cold))
	queue := values(t.self("jobs.queue"))
	m["jobs.admit_ms"] = t.selfMs("jobs.admit")
	m["jobs.queue_wait_ms_p50"] = median(queue) / 1e6
	m["jobs.queue_wait_ms_p90"] = tail(queue, 0.9) / 1e6
	m["jobs.simulate_ms"] = t.selfMs("jobs.simulate")
	m["jobs.finalize_ms"] = t.selfMs("jobs.finalize")
	m["jobs.unattributed_pct"] = sum(values(t.self("job"))) / sum(values(t.dur("job"))) * 100
	m["jobs.hit_ms"] = t.selfMs("jobs.hit")
	m["castore.commit_ms"] = t.selfMs("castore.Stage", "castore.WriteFile", "castore.Commit")
	m["castore.journal_append_ms"] = t.selfMs("castore.AppendJournal")
	m["loadgen.trace_reuse_pct"] = traceReusePct(w.submissions(), traceCacheEntries)
	m["bench.host_probe_ms"] = s.host.ms()
	for _, name := range offPath[s.cfg.name] {
		m[name] = 0
	}
	return out, t.writeJSONL(s.cfg.spans)
}

// sampled is one checked bundle: the submission and the in-process
// run of its spec.
type sampled struct {
	op   int
	spec jobs.Spec
	key  string
	res  *vax780.Results
}

// checkBundles fetches the histograms of up to checkedBundles completed
// cold jobs, spread over the window, and compares each byte for byte
// with an in-process run of the same spec.
func (s *mixSession) checkBundles(out *outcome, sents []sent, svc service) ([]sampled, error) {
	var done []int
	for i, x := range sents {
		if d, ok := svc.events().doneOf(x.job.ID); ok && !x.sub.hit && x.err == nil && d.state == string(jobs.StateDone) {
			done = append(done, i)
		}
	}
	var sample []sampled
	for k := 0; k < min(checkedBundles, len(done)); k++ {
		i := done[k*len(done)/min(checkedBundles, len(done))]
		spec, key := sents[i].sub.spec, sents[i].job.Key
		got, err := svc.histogram(key)
		if err != nil {
			out.fail("bundle %s: %v", key, err)
			continue
		}
		cfg, err := runConfigOf(spec)
		if err != nil {
			return nil, err
		}
		res, err := vax780.Run(cfg)
		if err != nil {
			return nil, err
		}
		var want bytes.Buffer
		if err := res.SaveHistogram(&want); err != nil {
			return nil, err
		}
		if !bytes.Equal(got, want.Bytes()) {
			out.fail("bundle %s: histogram.upch differs from an in-process run of its spec", key)
		}
		if err := checkDecomposition(res); err != nil {
			out.fail("bundle %s: %v", key, err)
		}
		sample = append(sample, sampled{op: i, spec: spec, key: key, res: res})
	}
	if len(sample) == 0 {
		out.fail("no completed cold job to check")
	}
	return sample, nil
}

// jobSpans rebuilds each in-process submission's life as spans from the
// stamps the generator, the events bus and the runner took: a cold job
// is admit → queue → simulate → finalize; whatever those do not cover
// is the job span's self time (its unattributed share).
func (s *mixSession) jobSpans(sents []sent) *tracer {
	t := &tracer{}
	b := s.in.b
	b.mu.Lock()
	defer b.mu.Unlock()
	for i, x := range sents {
		if x.err != nil {
			continue
		}
		if x.sub.hit {
			root := t.add(i, 0, "hit", x.send, x.ret)
			t.add(i, root, "jobs.hit", x.send, x.ret)
			continue
		}
		d, ok := b.done[x.job.ID]
		run, ran := b.runner[x.job.Key]
		if !ok || !ran {
			continue
		}
		started := max(b.start[x.job.ID], x.ret)
		root := t.add(i, 0, "job", x.send, d.at)
		t.add(i, root, "jobs.admit", x.send, x.ret)
		t.add(i, root, "jobs.queue", x.ret, started)
		t.add(i, root, "jobs.simulate", run[0], run[1])
		t.add(i, root, "jobs.finalize", run[1], d.at)
	}
	return t
}

// sampleLayers prices the layers of a vaxd job on the checked bundles:
// the spec's fused run paired with a NoFusion run, trace generation,
// the post-run layers, and replaying the committed bundle into a side
// store plus one journal append.
func (s *mixSession) sampleLayers(t *tracer, sample []sampled) error {
	side, err := castore.Open(filepath.Join(s.cfg.work, "side-store"))
	if err != nil {
		return err
	}
	defer side.Close()
	for _, x := range sample {
		cfg, err := runConfigOf(x.spec)
		if err != nil {
			return err
		}
		// Ten shapes churn through this process's eight-entry trace cache
		// too: bring the spec's trace back in, untimed, so neither side of
		// the pair pays for generating it.
		if _, err := vax780.Run(cfg); err != nil {
			return err
		}
		if err := fusionPair(t, x.op, func() vax780.RunConfig { return cfg }); err != nil {
			return err
		}
		p, err := profileOf(x.spec)
		if err != nil {
			return err
		}
		if err := generate(t, x.op, p); err != nil {
			return err
		}
		if err := postRun(t, x.op, x.res); err != nil {
			return err
		}
		if err := replayBundle(t, x.op, s.in.store, side, x.key); err != nil {
			return err
		}
	}
	return nil
}

// replayBundle commits a copy of one bundle's bytes into side, timing
// each castore call, then times one fsynced journal append.
func replayBundle(t *tracer, op int, from, side *castore.Store, key string) error {
	names, err := from.Bundle(key)
	if err != nil {
		return err
	}
	files := make(map[string][]byte)
	for _, name := range names {
		if files[name], err = from.ReadFile(key, name); err != nil {
			return err
		}
	}
	var st *castore.Staging
	err = t.call(op, 0, "castore.Stage", func() (err error) {
		st, err = side.Stage(fmt.Sprintf("replay-%d", op))
		return err
	})
	if err != nil {
		return err
	}
	for _, name := range names {
		if err := t.call(op, 0, "castore.WriteFile", func() error { return st.WriteFile(name, files[name]) }); err != nil {
			return err
		}
	}
	if err := t.call(op, 0, "castore.Commit", func() error { return st.Commit(key) }); err != nil {
		return err
	}
	return t.call(op, 0, "castore.AppendJournal", func() error {
		return side.AppendJournal([]byte(`{"msg":"bench-replay"}`))
	})
}
