package vax780

// The parallel execution engine of a composite run: the paper's
// composite histogram is the sum of independent per-workload
// measurements (§2.2), so the workload machines can execute
// concurrently as long as the merge is performed in workload order.
// Everything order-dependent — histogram summing, per-workload result
// rows, checkpoint records, telemetry splicing, fault-injection count
// aggregation — happens on the single merging goroutine, strictly in
// workload order, through the same runState.merge the sequential path
// uses. That shared merge is the bit-exactness argument in one line:
// the two paths differ only in *when* workloads execute, never in how
// their results combine.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"vax780/internal/faults"
	"vax780/internal/runlog"
	"vax780/internal/telemetry"
)

// ErrSharedFaultPlan reports one *faults.Plan attached to more than
// one workload of a parallel run. Plan decision streams are stateful
// and single-goroutine; sharing one across concurrent machines would
// race and destroy determinism. The public API cannot construct this
// (Run derives an independent child plan per workload), so hitting it
// means an internal caller wired jobs by hand.
var ErrSharedFaultPlan = errors.New("vax780: fault plan shared between parallel workloads")

// wlJob is one pending workload of a parallel run.
type wlJob struct {
	idx  int // absolute index in cfg.Workloads
	id   WorkloadID
	tel  *telemetry.Telemetry // per-workload child sink (nil: no telemetry)
	plan *faults.Plan         // per-workload child plan (nil: no faults)
	led  *runlog.Child        // per-workload event buffer (nil: no ledger)
}

// wlOutcome is a workload's execution result, written by its worker
// and read by the merger after the job's ready channel closes.
type wlOutcome struct {
	one     *oneRun
	retries int
	err     error
}

// runParallel executes the pending workloads on a bounded worker pool
// and merges in workload order.
func (s *runState) runParallel() error {
	pending := s.cfg.Workloads[len(s.recs):] // not restored from the checkpoint
	var tels []*telemetry.Telemetry
	if s.tel != nil {
		tels = s.tel.NewChildren(len(pending))
	}
	jobs := make([]wlJob, len(pending))
	for n, id := range pending {
		i := len(s.recs) + n
		jobs[n] = wlJob{idx: i, id: id, plan: s.cfg.childPlan(i), led: s.led.Child()}
		if tels != nil {
			jobs[n].tel = tels[n]
		}
	}
	return s.runJobs(jobs)
}

// runJobs is the engine proper, factored out so tests can drive it
// with hand-built jobs (e.g. the shared-plan guard).
func (s *runState) runJobs(jobs []wlJob) error {
	seen := make(map[*faults.Plan]struct{}, len(jobs))
	for _, j := range jobs {
		if j.plan == nil {
			continue
		}
		if _, dup := seen[j.plan]; dup {
			return fmt.Errorf("%w (workload %s)", ErrSharedFaultPlan, j.id)
		}
		seen[j.plan] = struct{}{}
	}

	workers := s.cfg.parallelism()
	if workers > len(jobs) {
		workers = len(jobs)
	}

	outcomes := make([]wlOutcome, len(jobs))
	ready := make([]chan struct{}, len(jobs))
	for i := range ready {
		ready[i] = make(chan struct{})
	}
	var next atomic.Int64 // job dispenser
	var aborted atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			slot := s.fleet.slot(w)
			for {
				n := int(next.Add(1)) - 1
				if n >= len(jobs) {
					return
				}
				if !aborted.Load() {
					j := jobs[n]
					if cerr := s.cfg.context().Err(); cerr != nil {
						// Canceled before this workload started: skip it.
						// Workloads already executing run to completion and
						// merge (and checkpoint) normally — cancellation
						// granularity is the workload, same as sequential.
						outcomes[n] = wlOutcome{err: cerr}
					} else if tr, err := s.cfg.workloadTrace(j.id); err != nil {
						outcomes[n] = wlOutcome{err: fmt.Errorf("%s: %w", j.id, err)}
					} else {
						env := wlEnv{idx: j.idx, id: j.id, tel: j.tel,
							plan: j.plan, led: j.led, slot: slot}
						one, retries, rerr := runWorkload(env, tr, s.cfg)
						outcomes[n] = wlOutcome{one: one, retries: retries, err: rerr}
					}
				}
				close(ready[n])
			}
		}(w)
	}
	// No worker may outlive the run (checkpoint files, the monitor
	// pool, and the race detector all assume it).
	defer wg.Wait()

	for n, j := range jobs {
		<-ready[n]
		out := outcomes[n]
		if out.err != nil {
			aborted.Store(true)
			if errors.Is(out.err, context.Canceled) || errors.Is(out.err, context.DeadlineExceeded) {
				// Not a workload failure: the run was canceled. Everything
				// merged so far is checkpointed; report it in the public
				// cancellation form.
				return fmt.Errorf("vax780: run canceled: %w", out.err)
			}
			return s.failWorkload(j.led, out.err)
		}
		if s.tel != nil {
			// Same event order as the sequential timeline: the phase
			// marker (which also closes the previous workload's open
			// trace slices — already closed here by the child's own
			// Finish) precedes the workload's observations.
			s.tel.Phase(j.id.String())
			s.tel.Absorb(j.tel)
		}
		// Same discipline for the ledger: the workload's buffered events
		// persist here, in workload order, at any worker count.
		s.led.Absorb(j.led)
		if err := s.merge(j.id, out.one, out.retries, j.plan); err != nil {
			aborted.Store(true)
			return err
		}
	}
	return nil
}
