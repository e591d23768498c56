// External test package: the interval series comes from the telemetry
// recorder, which itself imports analysis to reduce each interval.
package analysis_test

import (
	"math"
	"testing"

	"vax780/internal/analysis"
	"vax780/internal/machine"
	"vax780/internal/mem"
	"vax780/internal/paper"
	"vax780/internal/telemetry"
	"vax780/internal/upc"
	"vax780/internal/vax"
	"vax780/internal/workload"
)

// recordIntervals runs a 12k-instruction timesharing trace with the
// interval recorder snapshotting every period cycles and returns the
// machine and the recorded per-interval histogram deltas.
func recordIntervals(t *testing.T, period uint64) (*machine.Machine, []telemetry.Interval) {
	t.Helper()
	tr, err := workload.Generate(workload.TimesharingA(12000))
	if err != nil {
		t.Fatal(err)
	}
	tel := telemetry.New(telemetry.Options{ROM: machine.ROM(), IntervalCycles: period})
	mon := upc.New()
	mon.Start()
	m := machine.New(machine.Config{Mem: mem.Config{}, Monitor: mon, Telemetry: tel}, tr.Program)
	if err := m.Run(tr.Stream()); err != nil {
		t.Fatal(err)
	}
	mon.Stop()
	tel.Finish()
	return m, tel.Recorder().Intervals()
}

// TestIntervalsOverRealRun reduces each recorded interval with
// analysis.New: the intervals sum back to the whole run, and each full
// interval shows a plausible CPI and SIMPLE share.
func TestIntervalsOverRealRun(t *testing.T) {
	const period = 20000
	m, ivs := recordIntervals(t, period)
	if len(ivs) < 5 {
		t.Fatalf("only %d intervals for a 12k-instruction run at %d cycles each", len(ivs), period)
	}
	var cycles, instrs uint64
	var sum, minCPI, maxCPI float64
	for i, iv := range ivs {
		a := analysis.New(machine.ROM(), iv.Hist)
		c := iv.Hist.TotalCycles()
		cycles += c
		instrs += a.Instructions()
		if c != iv.EndCycle-iv.StartCycle {
			t.Errorf("interval %d histogram holds %d cycles, spans %d", i, c, iv.EndCycle-iv.StartCycle)
		}
		if a.Instructions() == 0 {
			t.Fatalf("interval %d decoded no instructions", i)
		}
		cpi := float64(c) / float64(a.Instructions())
		sum += cpi
		if i == 0 || cpi < minCPI {
			minCPI = cpi
		}
		if cpi > maxCPI {
			maxCPI = cpi
		}
		if i == len(ivs)-1 {
			continue // the trailing partial interval may be short
		}
		if c != period {
			t.Errorf("interval %d spans %d cycles, want %d", i, c, period)
		}
		for _, g := range a.OpcodeGroups() {
			if g.Group == vax.GroupSimple && (g.Percent < 50 || g.Percent > 95) {
				t.Errorf("interval %d SIMPLE%% = %.1f", i, g.Percent)
			}
		}
	}
	if cycles != m.E.Now {
		t.Errorf("interval cycles sum %d != run cycles %d", cycles, m.E.Now)
	}
	if instrs != m.Stats.Instrs {
		t.Errorf("interval instructions sum %d != run %d", instrs, m.Stats.Instrs)
	}
	mean := sum / float64(len(ivs))
	if mean < 7 || mean > 16 {
		t.Errorf("mean CPI = %.2f", mean)
	}
	if minCPI > mean || maxCPI < mean {
		t.Errorf("min/mean/max inconsistent: %.2f/%.2f/%.2f", minCPI, mean, maxCPI)
	}
}

// TestDecomposeIntervals: the Table 8 row-sum identity holds per
// interval, not just on the composite, and decomposing the summed
// interval histograms gives the instruction-weighted combination of the
// per-interval CPIs.
func TestDecomposeIntervals(t *testing.T) {
	m, ivs := recordIntervals(t, 20000)
	if len(ivs) == 0 {
		t.Fatal("no intervals")
	}
	var cycles, instrs uint64
	var weighted float64
	sum := &upc.Histogram{}
	for i, iv := range ivs {
		sum.Add(iv.Hist)
		a := analysis.New(machine.ROM(), iv.Hist)
		c, n := iv.Hist.TotalCycles(), a.Instructions()
		cycles += c
		instrs += n
		if n == 0 {
			t.Fatalf("interval %d decoded no instructions", i)
		}
		cpi := float64(c) / float64(n)
		weighted += cpi * float64(n)
		perClass := a.CPIMatrix().ColTotals
		var total float64
		for _, v := range perClass {
			total += v
		}
		if math.Abs(total-cpi) > 1e-9*cpi {
			t.Errorf("interval %d: per-class sum %.12f != CPI %.12f", i, total, cpi)
		}
		if perClass[paper.T8Compute] <= 0 || perClass[paper.T8IBStall] < 0 {
			t.Errorf("interval %d: implausible classes %v", i, perClass)
		}
	}
	if cycles != m.E.Now {
		t.Errorf("decomposed cycles %d != run cycles %d", cycles, m.E.Now)
	}
	if instrs != m.Stats.Instrs {
		t.Errorf("decomposed instructions %d != run %d", instrs, m.Stats.Instrs)
	}

	whole := analysis.New(machine.ROM(), sum)
	wholeCPI := float64(sum.TotalCycles()) / float64(whole.Instructions())
	if weighted /= float64(whole.Instructions()); math.Abs(weighted-wholeCPI) > 1e-9*wholeCPI {
		t.Errorf("weighted interval CPI %.12f != composite CPI %.12f", weighted, wholeCPI)
	}
}
