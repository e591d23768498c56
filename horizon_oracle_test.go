package vax780

// The event horizon's oracle. The telemetry layer is not called every
// cycle: the EBOX calls Telemetry.Cycle at the horizon the previous
// call named, and the cycle counters come from the EBOX clock. The
// per-cycle reference below delivers every cycle to Telemetry.Cycle,
// with its own per-cycle cycle and stall counts, the way
// trace_oracle_test.go keeps the reflective encoder, and every
// observable output of the two paths must be identical.

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"vax780/internal/ebox"
	"vax780/internal/machine"
	"vax780/internal/mem"
	"vax780/internal/telemetry"
	"vax780/internal/upc"
	"vax780/internal/vax"
)

// perCycle wraps a run's telemetry sink for one machine. As the
// reference (every set) it delivers every cycle to Telemetry.Cycle and
// counts cycles and stalls itself; at each decode the sink's published
// counters must have moved by exactly those counts since Attach. The
// sink may move the clock's horizon at its other events (a truncating
// tracer lifts it); the reference pulls it back to the next cycle. On
// the horizon path (every clear) it passes the sink's horizon through.
// Both count the calls the EBOX makes once the tracer has truncated,
// and either may issue a board command before a given decode.
type perCycle struct {
	*telemetry.Telemetry
	t     *testing.T
	every bool
	clk   *ebox.Clock

	cycles, stalls  uint64 // delivered cycles (reference only)
	base, baseStall uint64 // the sink's counters at Attach

	calls, late uint64 // Cycle calls, and those after truncation
	decodes     uint64

	cmdAt  uint64 // issue cmd before this decode (0: never)
	cmd    string
	cmdErr error
}

func (p *perCycle) Attach(mon *upc.Monitor, stats *mem.Stats, clk *ebox.Clock) {
	p.Telemetry.Attach(mon, stats, clk)
	p.clk = clk
	p.base, p.baseStall = p.C.Cycles.Load(), p.C.StallCycles.Load()
}

// pin keeps the reference's horizon at the next cycle.
func (p *perCycle) pin() {
	if p.every {
		p.clk.Horizon = min(p.clk.Horizon, p.clk.Now)
	}
}

func (p *perCycle) TBMiss(now uint64, istream bool, va uint32) {
	p.Telemetry.TBMiss(now, istream, va)
	p.pin()
}

func (p *perCycle) Interrupt(now uint64, handler uint32) {
	p.Telemetry.Interrupt(now, handler)
	p.pin()
}

func (p *perCycle) CtxSwitch(now uint64, from, to uint32) {
	p.Telemetry.CtxSwitch(now, from, to)
	p.pin()
}

func (p *perCycle) Cycle(now uint64, addr uint16, stalled bool) uint64 {
	p.calls++
	if tr := p.Tracer(); tr != nil && tr.Truncated() {
		p.late++
	}
	h := p.Telemetry.Cycle(now, addr, stalled)
	if !p.every {
		return h
	}
	p.cycles++
	if stalled {
		p.stalls++
	}
	return now + 1
}

func (p *perCycle) Instr(now uint64, pc uint32, op vax.Opcode) {
	if p.decodes++; p.decodes == p.cmdAt {
		p.cmdErr = p.Command(p.cmd)
	}
	p.Telemetry.Instr(now, pc, op)
	if !p.every {
		return
	}
	p.pin()
	cycles, stalls := p.C.Cycles.Load()-p.base, p.C.StallCycles.Load()-p.baseStall
	if cycles != p.cycles || stalls != p.stalls || now != p.cycles {
		p.t.Errorf("decode at cycle %d: published %d cycles, %d stalls; delivered %d, %d",
			now, cycles, stalls, p.cycles, p.stalls)
	}
}

// horizonRun is one run through the seam and what it observed.
type horizonRun struct {
	res    *Results
	err    error
	tel    *Telemetry
	probes []*perCycle
}

// runThrough runs cfg with tel attached to every workload machine
// through a perCycle wrapper, made by mk.
func runThrough(t *testing.T, cfg RunConfig, tel *Telemetry, mk func(*telemetry.Telemetry) *perCycle) *horizonRun {
	t.Helper()
	r := &horizonRun{tel: tel}
	var mu sync.Mutex
	cfg.Telemetry = tel
	wrapProbe = func(s *telemetry.Telemetry) machine.Telemetry {
		p := mk(s)
		mu.Lock()
		r.probes = append(r.probes, p)
		mu.Unlock()
		return p
	}
	defer func() { wrapProbe = nil }()
	r.res, r.err = Run(cfg)
	return r
}

// exports renders a run's telemetry outputs: live counters, interval
// JSON and, with a tracer, the Chrome trace.
func exports(t *testing.T, tel *Telemetry) (TelemetryCounters, []byte, []byte) {
	t.Helper()
	var iv, tr bytes.Buffer
	if err := tel.WriteIntervalsJSON(&iv); err != nil {
		t.Fatal(err)
	}
	if tel.ensure().Tracer() != nil {
		if err := tel.WriteTrace(&tr); err != nil {
			t.Fatal(err)
		}
	}
	return tel.Counters(), iv.Bytes(), tr.Bytes()
}

// compareHorizon asserts the horizon run matches the reference run.
func compareHorizon(t *testing.T, ref, hz *horizonRun) {
	t.Helper()
	if (ref.err == nil) != (hz.err == nil) {
		t.Fatalf("reference error %v, horizon error %v", ref.err, hz.err)
	}
	if ref.err == nil {
		compareResults(t, ref.res, hz.res)
	} else {
		var rf, hf *MachineFault
		if !errors.As(ref.err, &rf) || !errors.As(hz.err, &hf) {
			t.Fatalf("want machine faults, got %v and %v", ref.err, hz.err)
		}
		if !reflect.DeepEqual(rf, hf) {
			t.Errorf("machine faults differ:\nref %+v\nhz  %+v", rf, hf)
		}
		if len(hf.Flight) == 0 {
			t.Error("the fault carries no flight snapshot")
		}
	}
	rc, ri, rt := exports(t, ref.tel)
	hc, hi, ht := exports(t, hz.tel)
	if rc != hc {
		t.Errorf("counters differ:\nref %+v\nhz  %+v", rc, hc)
	}
	if !bytes.Equal(ri, hi) {
		t.Error("interval JSON differs")
	}
	if !bytes.Equal(rt, ht) {
		t.Errorf("trace bytes differ: %d reference, %d horizon", len(rt), len(ht))
	}
	var calls, cycles uint64
	for _, p := range hz.probes {
		calls += p.calls
	}
	for _, p := range ref.probes {
		cycles += p.cycles
	}
	if cycles == 0 || cycles != hc.Cycles {
		t.Errorf("reference delivered %d cycles, counters hold %d", cycles, hc.Cycles)
	}
	t.Logf("horizon path: %d Cycle calls for %d cycles", calls, cycles)
}

// TestHorizonMatchesPerCycle: the horizon path and the per-cycle
// reference agree on counters, interval JSON, trace bytes, the
// histogram and flight snapshots, over all five workloads at -j 1 and
// 2, a retrying fault plan, a failing one, and board commands issued
// mid-run.
func TestHorizonMatchesPerCycle(t *testing.T) {
	retried := &FaultConfig{Seed: 4, MemParity: 3e-5, MaxRetries: 8, RetryBackoff: 1}
	failing := &FaultConfig{Seed: 7, MemParity: 2e-4, MaxRetries: 1, RetryBackoff: 1}
	cases := []struct {
		name      string
		cfg       RunConfig
		interval  uint64
		maxEvents int
		cmdAt     uint64 // decode of the first machine to issue cmd before
		cmd       string
	}{
		{"observed/j=1", RunConfig{Instructions: 10_000, Parallelism: 1, FlightDepth: 64}, 100_000, 50_000, 0, ""},
		{"observed/j=2", RunConfig{Instructions: 10_000, Parallelism: 2, FlightDepth: 64}, 100_000, 50_000, 0, ""},
		{"rolls/j=2", RunConfig{Instructions: 1800, Parallelism: 2}, 1500, 200_000, 0, ""},
		{"counters/j=1", RunConfig{Instructions: 3000, Parallelism: 1}, 0, 0, 0, ""},
		{"retries/j=2", RunConfig{Instructions: 10_000, Parallelism: 2, Faults: retried}, 100_000, 150_000, 0, ""},
		{"retries/j=1", RunConfig{Instructions: 10_000, Parallelism: 1, Faults: retried}, 100_000, 150_000, 0, ""},
		{"fault/j=1", RunConfig{Instructions: 10_000, Parallelism: 1, Faults: failing, FlightDepth: 64}, 50_000, 50_000, 0, ""},
		{"stop/j=1", RunConfig{Instructions: 3000, Parallelism: 1}, 20_000, 0, 1000, "stop"},
		{"clear/j=1", RunConfig{Instructions: 3000, Parallelism: 1}, 20_000, 10_000, 777, "clear"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			first := true
			var mu sync.Mutex
			mk := func(every bool) func(*telemetry.Telemetry) *perCycle {
				return func(s *telemetry.Telemetry) *perCycle {
					p := &perCycle{Telemetry: s, t: t, every: every}
					mu.Lock()
					if first && c.cmdAt > 0 {
						p.cmdAt, p.cmd = c.cmdAt, c.cmd
					}
					first = false
					mu.Unlock()
					return p
				}
			}
			ref := runThrough(t, c.cfg, NewTelemetry(c.interval, c.maxEvents), mk(true))
			first = true
			hz := runThrough(t, c.cfg, NewTelemetry(c.interval, c.maxEvents), mk(false))
			compareHorizon(t, ref, hz)
			if c.cfg.Faults == retried && hz.res.Retries == 0 {
				t.Error("the fault plan retried nothing")
			}
			if c.cmdAt > 0 {
				for _, r := range []*horizonRun{ref, hz} {
					if err := r.probes[0].cmdErr; err != nil || r.probes[0].decodes < c.cmdAt {
						t.Fatalf("board command not issued: %v after %d decodes", err, r.probes[0].decodes)
					}
				}
				if c.cmd == "stop" && hz.res.Histogram().TotalCycles() >= hz.tel.Counters().Cycles {
					t.Error("the stop command counted every cycle")
				}
			}
		})
	}
}

// TestNoCycleCallAfterTruncation: once the tracer stops collecting —
// at its own cap, or by the children's stop rule — the EBOX makes no
// further Cycle call when nothing else is due.
func TestNoCycleCallAfterTruncation(t *testing.T) {
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("j=%d", workers), func(t *testing.T) {
			cfg := RunConfig{Instructions: 10_000, Parallelism: workers}
			hz := runThrough(t, cfg, NewTelemetry(0, 2000), func(s *telemetry.Telemetry) *perCycle {
				return &perCycle{Telemetry: s, t: t}
			})
			if hz.err != nil {
				t.Fatal(hz.err)
			}
			var calls, late uint64
			for _, p := range hz.probes {
				calls, late = calls+p.calls, late+p.late
			}
			if !hz.tel.ensure().Tracer().Truncated() {
				t.Fatal("the tracer did not truncate")
			}
			if late != 0 {
				t.Errorf("%d Cycle calls after the tracer truncated", late)
			}
			if cycles := hz.tel.Counters().Cycles; calls == 0 || calls >= cycles/10 {
				t.Errorf("%d Cycle calls for %d cycles", calls, cycles)
			}
		})
	}
}
