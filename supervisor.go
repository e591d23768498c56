package vax780

import (
	"context"
	"errors"
	"fmt"
	"time"

	"vax780/internal/faults"
	"vax780/internal/machine"
	"vax780/internal/runlog"
	"vax780/internal/telemetry"
	"vax780/internal/upc"
	"vax780/internal/workload"
)

// FaultConfig configures the deterministic fault-injection plan of a
// run: per-event probabilities for each fault class, all driven from
// independent streams of a single seed, so the same (seed, rates)
// against the same workloads injects the identical fault sequence. The
// zero rate for a class is bit-exactly equivalent to not modeling that
// class at all.
type FaultConfig struct {
	// Seed selects the fault sequence.
	Seed uint64

	// UPCDrop is the probability a histogram count pulse is lost.
	UPCDrop float64
	// UPCFlip is the probability a count pulse flips a random counter
	// bit (board RAM corruption).
	UPCFlip float64
	// UPCSaturate is the probability a count pulse sticks the ticked
	// counter at its capacity.
	UPCSaturate float64
	// CSRGlitch is the probability a Unibus readout of the board
	// returns garbage.
	CSRGlitch float64
	// MemParity is the probability a D-stream or PTE read takes a
	// memory parity error (a transient machine check).
	MemParity float64
	// IBDrop is the probability an arrived IB refill longword is lost
	// in transit (timing-only: the IB refetches).
	IBDrop float64
	// MachineCheck is the per-instruction probability of a spontaneous
	// machine-check abort (transient).
	MachineCheck float64

	// MaxRetries bounds how many times the supervisor re-runs a
	// workload after a transient machine check before giving up
	// (default 3). Non-transient faults are never retried.
	MaxRetries int

	// RetryBackoff is the delay before the first retry, doubled per
	// subsequent attempt and capped at 16x (default 50ms). Tests set it
	// to a microsecond.
	RetryBackoff time.Duration
}

// UniformFaults returns a FaultConfig with every class at rate.
func UniformFaults(seed uint64, rate float64) *FaultConfig {
	return &FaultConfig{
		Seed:    seed,
		UPCDrop: rate, UPCFlip: rate, UPCSaturate: rate,
		CSRGlitch: rate, MemParity: rate, IBDrop: rate,
		MachineCheck: rate,
	}
}

func (c *FaultConfig) rates() faults.Rates {
	return faults.Rates{
		UPCDrop: c.UPCDrop, UPCFlip: c.UPCFlip, UPCSaturate: c.UPCSaturate,
		CSRGlitch: c.CSRGlitch, MemParity: c.MemParity, IBDrop: c.IBDrop,
		MachineCheck: c.MachineCheck,
	}
}

func (c *FaultConfig) maxRetries() int {
	if c.MaxRetries > 0 {
		return c.MaxRetries
	}
	return 3
}

func (c *FaultConfig) backoffBase() time.Duration {
	if c.RetryBackoff > 0 {
		return c.RetryBackoff
	}
	return 50 * time.Millisecond
}

// ErrMachineFault is the sentinel every *MachineFault matches with
// errors.Is: any workload abort the supervisor surfaced as a typed
// error rather than a crash.
var ErrMachineFault = errors.New("vax780: machine fault")

// MachineFault is the typed error Run returns when a workload aborts on
// a machine check — injected, organic, or a panic recovered at the
// supervisor boundary. It carries the micro-PC, cycle, and fault site
// of the abort.
type MachineFault struct {
	Workload WorkloadID
	Attempts int    // run attempts made, including the failing one
	UPC      uint16 // micro-PC at the abort
	Cycle    uint64 // EBOX cycle at the abort
	Site     string // fault site, e.g. "ebox.doMem read"
	Cause    string // human-readable fault class
	Retrying bool   // true when the fault was transient (retries exhausted)
	Err      error  // underlying machine check or recovered panic

	// Flight is the micro-PC flight recorder's snapshot of the failing
	// attempt, oldest first; its final entry is the faulting micro-PC
	// (Flight[len-1].UPC == UPC). Nil when the recorder was disabled.
	Flight []FlightEntry
}

func (f *MachineFault) Error() string {
	return fmt.Sprintf("vax780: %s: machine fault after %d attempt(s): %v",
		f.Workload, f.Attempts, f.Err)
}

// Unwrap exposes the underlying machine check.
func (f *MachineFault) Unwrap() error { return f.Err }

// Is matches the ErrMachineFault sentinel.
func (f *MachineFault) Is(target error) bool { return target == ErrMachineFault }

// wlEnv is the per-workload execution environment a supervisor runs
// under: its position in the composite, the shared telemetry layer,
// its independent fault plan, its buffered ledger child, and the pool
// worker slot it reports progress through. The observability fields
// are nil on unobserved runs; every consumer is nil-safe.
type wlEnv struct {
	idx  int
	id   WorkloadID
	tel  *telemetry.Telemetry
	plan *faults.Plan
	led  *runlog.Child
	slot *workerSlot
}

// sleepContext waits out d, or returns the context's error the moment
// it is canceled — the cancellable replacement for the supervisor's old
// bare time.Sleep, which could pin a draining daemon to the full 16x
// backoff ladder.
func sleepContext(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// runWorkload is the supervised execution of one workload: run it
// against the pre-generated trace, and on a transient machine check
// retry with capped exponential backoff; on a non-transient fault (or
// exhausted retries) surface a *MachineFault carrying the flight
// recorder's snapshot of the failing attempt. It returns the retry
// count instead of mutating shared state, so any number of workload
// supervisors can run concurrently.
func runWorkload(env wlEnv, tr *workload.Trace, cfg RunConfig) (*oneRun, int, error) {
	env.led.Emit(runlog.WlStartEvent(env.id.String(), env.idx, cfg.Instructions))

	maxRetries := 0
	var backoff time.Duration
	if cfg.Faults != nil {
		maxRetries = cfg.Faults.maxRetries()
		backoff = cfg.Faults.backoffBase()
	}
	maxBackoff := backoff * 16

	var fr *upc.FlightRecorder
	if d := cfg.flightDepth(); d > 0 {
		fr = upc.NewFlightRecorder(d)
	}
	var cell *machine.ProgressCell
	if env.slot != nil {
		cell = &machine.ProgressCell{}
	}
	retries := 0
	for attempt := 1; ; attempt++ {
		fr.Reset() // each attempt gets a clean ring
		startNs := cfg.Profiler.nowNs()
		env.slot.begin(env.id.String(), uint64(cfg.Instructions), cell)
		one, err := runOne(tr, cfg, env.tel, env.plan, fr, cell)
		env.slot.end()
		if err == nil {
			one.profStart = startNs
			one.profEnd = cfg.Profiler.nowNs()
			if env.plan != nil {
				inj := env.plan.Injected()
				env.led.Emit(runlog.FaultsEvent(env.id.String(), env.idx,
					inj.Total(), inj.String()))
			}
			env.led.Emit(runlog.WlDoneEvent(env.id.String(), env.idx,
				one.machine.Stats.Instrs, one.machine.E.Now, one.machine.CPI(),
				retries, one.saturated))
			return one, retries, nil
		}
		var mck *faults.MachineCheck
		if !errors.As(err, &mck) {
			// Not a machine fault (workload generation, config): report
			// as-is.
			return nil, retries, fmt.Errorf("%s: %w", env.id, err)
		}
		env.slot.noteFault()
		if mck.Transient() && attempt <= maxRetries {
			// The plan's decision streams keep advancing across
			// attempts, so the same environmental fault need not recur;
			// the trace is read-only and reused as-is.
			retries++
			env.slot.noteRetry()
			env.led.Emit(runlog.RetryEvent(env.id.String(), env.idx, attempt,
				mck.Code.String(), mck.UPC, mck.Cycle, backoff.Milliseconds()))
			if serr := sleepContext(cfg.context(), backoff); serr != nil {
				// A draining or deadline-bound run must not block on the
				// backoff ladder: surface the cancellation immediately.
				return nil, retries, serr
			}
			if backoff *= 2; backoff > maxBackoff {
				backoff = maxBackoff
			}
			continue
		}
		return nil, retries, &MachineFault{
			Workload: env.id,
			Attempts: attempt,
			UPC:      mck.UPC,
			Cycle:    mck.Cycle,
			Site:     mck.Site,
			Cause:    mck.Code.String(),
			Retrying: mck.Transient(),
			Err:      mck,
			Flight:   annotateFlight(fr.Snapshot()),
		}
	}
}
