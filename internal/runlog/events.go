package runlog

// Event constructors: one per ledger event type, each producing the
// exact attribute set Schema() pins. Keeping construction here (rather
// than ad-hoc attr lists at call sites) is what makes the golden-schema
// test a real invariant: a new field must be added in both places or
// the test fails.

import "log/slog"

// RunStartEvent opens a run's ledger: the configuration fingerprint
// (the same FNV-64a hash the checkpoint format uses, so a ledger can be
// matched against a checkpoint file), the workload list, and the fault
// plan's identity when one is attached. Parallelism is deliberately
// absent: the ledger is specified to be byte-identical across -j.
func RunStartEvent(configHash uint64, workloads string, count, instructions int,
	faultSeed uint64, hasFaults bool) Event {

	attrs := []slog.Attr{
		slog.String("config", hexHash(configHash)),
		slog.String("workloads", workloads),
		slog.Int("count", count),
		slog.Int("instructions", instructions),
		slog.Bool("faults", hasFaults),
	}
	if hasFaults {
		attrs = append(attrs, slog.Uint64("fault_seed", faultSeed))
	}
	return Event{Type: EvRunStart, Attrs: attrs}
}

// ResumeEvent records workloads folded back in from a checkpoint.
func ResumeEvent(path string, restored int) Event {
	return Event{Type: EvResume, Attrs: []slog.Attr{
		slog.String("path", path),
		slog.Int("restored", restored),
	}}
}

// WlStartEvent records one workload machine starting.
func WlStartEvent(workload string, index, instructions int) Event {
	return Event{Type: EvWlStart, Attrs: []slog.Attr{
		slog.String("workload", workload),
		slog.Int("index", index),
		slog.Int("instructions", instructions),
	}}
}

// WlDoneEvent records one workload machine completing.
func WlDoneEvent(workload string, index int, instrs, cycles uint64,
	cpi float64, retries int, saturated bool) Event {

	return Event{Type: EvWlDone, Attrs: []slog.Attr{
		slog.String("workload", workload),
		slog.Int("index", index),
		slog.Uint64("instructions", instrs),
		slog.Uint64("cycles", cycles),
		slog.Float64("cpi", cpi),
		slog.Int("retries", retries),
		slog.Bool("saturated", saturated),
	}}
}

// CheckpointEvent records an atomic checkpoint write.
func CheckpointEvent(path string, records int) Event {
	return Event{Type: EvCheckpoint, Attrs: []slog.Attr{
		slog.String("path", path),
		slog.Int("records", records),
	}}
}

// RetryEvent records a transient machine check the supervisor is
// retrying: the fault's identity plus the backoff it cost.
func RetryEvent(workload string, index, attempt int, cause string,
	upc uint16, cycle uint64, backoffMS int64) Event {

	return Event{Type: EvRetry, Level: slog.LevelWarn, Attrs: []slog.Attr{
		slog.String("workload", workload),
		slog.Int("index", index),
		slog.Int("attempt", attempt),
		slog.String("cause", cause),
		slog.Uint64("upc", uint64(upc)),
		slog.Uint64("cycle", cycle),
		slog.Int64("backoff_ms", backoffMS),
	}}
}

// FaultsEvent records a workload's fault-injection tally (emitted once
// per workload when a plan is attached, including all-zero tallies, so
// a fault-configured run's ledger always documents what was injected).
func FaultsEvent(workload string, index int, total uint64, classes string) Event {
	return Event{Type: EvFaults, Attrs: []slog.Attr{
		slog.String("workload", workload),
		slog.Int("index", index),
		slog.Uint64("total", total),
		slog.String("classes", classes),
	}}
}

// FaultEvent records a workload abort: the typed machine fault plus the
// flight-recorder snapshot of the microcode path that led to it.
// flight must be a json-marshalable slice of flight entries; its final
// entry's micro-PC equals the fault's upc by construction (the EBOX
// records the faulting micro-PC as the recorder's last word).
func FaultEvent(workload string, attempts int, upc uint16, cycle uint64,
	site, cause string, transient bool, flight any) Event {

	return Event{Type: EvFault, Level: slog.LevelWarn, Attrs: []slog.Attr{
		slog.String("workload", workload),
		slog.Int("attempts", attempts),
		slog.Uint64("upc", uint64(upc)),
		slog.Uint64("cycle", cycle),
		slog.String("site", site),
		slog.String("cause", cause),
		slog.Bool("transient", transient),
		slog.Any("flight", flight),
	}}
}

// ProfEvent records the host-time profiler's report: which engine
// produced it, the cycles it attributed, and the hot-flow list. flows
// must be a json-marshalable slice of flow rows carrying only
// deterministic data (cycle counts and shares); host carries the
// wall-clock side (measured ns) and is stripped by StripWallClock like
// run-done's host group.
func ProfEvent(engine string, cycles uint64, flows any, host any) Event {
	attrs := []slog.Attr{
		slog.String("engine", engine),
		slog.Uint64("cycles", cycles),
		slog.Any("flows", flows),
	}
	if host != nil {
		attrs = append(attrs, slog.Any("host", host))
	}
	return Event{Type: EvProf, Attrs: attrs}
}

// RunDoneEvent closes a run's ledger: composite totals, the Table 8
// summary (cycles per average instruction by activity row), the
// profiler's summary when one was attached (nil otherwise), and the
// host self-profile. The host group is wall-clock data and is stripped
// by StripWallClock; everything else is a pure function of seed and
// configuration.
func RunDoneEvent(workloads int, instrs, cycles uint64, cpi float64,
	retries, resumed int, faults string, table8 []slog.Attr,
	prof []slog.Attr, host HostStats) Event {

	attrs := []slog.Attr{
		slog.Int("workloads", workloads),
		slog.Uint64("instructions", instrs),
		slog.Uint64("cycles", cycles),
		slog.Float64("cpi", cpi),
		slog.Int("retries", retries),
		slog.Int("resumed", resumed),
		slog.String("faults", faults),
		slog.Attr{Key: "table8", Value: slog.GroupValue(table8...)},
	}
	if prof != nil {
		attrs = append(attrs, slog.Attr{Key: "prof", Value: slog.GroupValue(prof...)})
	}
	attrs = append(attrs, slog.Any("host", host))
	return Event{Type: EvRunDone, Attrs: attrs}
}

// SweepStartEvent opens a sweep ledger.
func SweepStartEvent(points int) Event {
	return Event{Type: EvSweepStart, Attrs: []slog.Attr{
		slog.Int("points", points),
	}}
}

// PointDoneEvent records one design point's outcome. Exactly one of
// cpi/errMsg is meaningful; err is the empty string on success.
func PointDoneEvent(label string, index int, instrs, cycles uint64,
	cpi float64, errMsg string) Event {

	return Event{Type: EvPointDone, Attrs: []slog.Attr{
		slog.String("label", label),
		slog.Int("index", index),
		slog.Uint64("instructions", instrs),
		slog.Uint64("cycles", cycles),
		slog.Float64("cpi", cpi),
		slog.String("error", errMsg),
	}}
}

// SweepDoneEvent closes a sweep ledger.
func SweepDoneEvent(points, errors int) Event {
	return Event{Type: EvSweepDone, Attrs: []slog.Attr{
		slog.Int("points", points),
		slog.Int("errors", errors),
	}}
}

// ProgressEvent wraps a fleet snapshot for the live bus. It is never
// persisted: progress is wall-clock data.
func ProgressEvent(s Snapshot) Event {
	return Event{Type: EvProgress, Attrs: []slog.Attr{
		slog.Any("progress", s),
	}}
}

// JobQueuedEvent records a job admitted to the vaxd queue: its
// identity, its content-address key, the submitting tenant, and the
// full spec (json-marshalable) — the spec rides on the journal so a
// crashed daemon can requeue the job from this record alone.
func JobQueuedEvent(id, key, tenant string, deadlineMS int64, spec any) Event {
	return Event{Type: EvJobQueued, Attrs: []slog.Attr{
		slog.String("id", id),
		slog.String("key", key),
		slog.String("tenant", tenant),
		slog.Int64("deadline_ms", deadlineMS),
		slog.Any("spec", spec),
	}}
}

// JobStartEvent records a job leaving the queue for a worker. requeues
// counts prior lives of the job (crash recoveries and drain requeues).
func JobStartEvent(id, key string, requeues int) Event {
	return Event{Type: EvJobStart, Attrs: []slog.Attr{
		slog.String("id", id),
		slog.String("key", key),
		slog.Int("requeues", requeues),
	}}
}

// JobDoneEvent closes a job's lifecycle: its terminal state (done,
// failed, evicted, timed-out), the cause for non-done states, whether
// the result was served from the content-addressed cache, and the
// composite totals for completed jobs (zero otherwise). An "evicted"
// record doubles as the requeue marker: recovery treats the job as
// pending again.
func JobDoneEvent(id, key, state, cause string, cached bool,
	instrs, cycles uint64, cpi float64) Event {

	lvl := slog.LevelInfo
	if state != "done" && state != "evicted" {
		lvl = slog.LevelWarn
	}
	return Event{Type: EvJobDone, Level: lvl, Attrs: []slog.Attr{
		slog.String("id", id),
		slog.String("key", key),
		slog.String("state", state),
		slog.String("cause", cause),
		slog.Bool("cached", cached),
		slog.Uint64("instructions", instrs),
		slog.Uint64("cycles", cycles),
		slog.Float64("cpi", cpi),
	}}
}

// DrainEvent records a graceful drain: admission stopped, in-flight
// jobs checkpointed and requeued.
func DrainEvent(reason string, requeued int) Event {
	return Event{Type: EvDrain, Attrs: []slog.Attr{
		slog.String("reason", reason),
		slog.Int("requeued", requeued),
	}}
}

// JobHTTPEvent records one settled POST /jobs request at the HTTP
// edge: the job it produced (empty when the request never made a job,
// e.g. a malformed spec), the route, the status code written, and the
// tenant. The request duration is wall-clock data and rides in the
// host group so StripWallClock removes it. Poll/fetch GETs are
// deliberately not journaled: the journal is fsynced per record and
// clients poll every few milliseconds.
func JobHTTPEvent(id, route, tenant string, status int, durNs int64) Event {
	return Event{Type: EvJobHTTP, Attrs: []slog.Attr{
		slog.String("id", id),
		slog.String("route", route),
		slog.String("tenant", tenant),
		slog.Int("status", status),
		slog.Attr{Key: "host", Value: slog.GroupValue(slog.Int64("dur_ns", durNs))},
	}}
}

// JobShedEvent records a submission rejected at admission — queue
// full, quota exhausted, or the daemon draining. Sheds were previously
// invisible in the journal, which made the 429/503 counters on
// /metrics unverifiable.
func JobShedEvent(tenant, reason string) Event {
	return Event{Type: EvJobShed, Level: slog.LevelWarn, Attrs: []slog.Attr{
		slog.String("tenant", tenant),
		slog.String("reason", reason),
	}}
}

// CommitRaceEvent records a first-writer-wins commit race in the
// content-addressed store: a finished staging directory was discarded
// because an identical bundle was already committed under key.
func CommitRaceEvent(key string) Event {
	return Event{Type: EvCommitRace, Attrs: []slog.Attr{
		slog.String("key", key),
	}}
}

// JournalTornEvent records a torn journal tail repaired at startup:
// records partial lines truncated (crash mid-append). The repair runs
// before the journal reopens for append, so this event is itself the
// first record of the new epoch and the recomposed counter stays exact.
func JournalTornEvent(records int) Event {
	return Event{Type: EvJournalTorn, Level: slog.LevelWarn, Attrs: []slog.Attr{
		slog.Int("records", records),
	}}
}

// hexHash renders a configuration hash the way checkpoint errors do.
func hexHash(h uint64) string {
	const digits = "0123456789abcdef"
	var b [16]byte
	for i := 15; i >= 0; i-- {
		b[i] = digits[h&0xf]
		h >>= 4
	}
	return string(b[:])
}
