// Command vaxtables regenerates every table and figure of the paper from
// a fresh composite run and emits a markdown paper-vs-measured record —
// the generator behind EXPERIMENTS.md.
//
// Usage:
//
//	vaxtables [-n INSTRUCTIONS] [-o FILE] [-j N]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"vax780"
	"vax780/internal/paper"
	"vax780/internal/vax"
)

func main() {
	var (
		n    = flag.Int("n", 100_000, "instructions per experiment")
		out  = flag.String("o", "", "write markdown to FILE instead of stdout")
		jobs = flag.Int("j", 0, "workload machines to run concurrently (0 = GOMAXPROCS; output is bit-exact at any -j)")
	)
	flag.Parse()
	if *n < 1 || *jobs < 0 {
		// Checked before the run and before -o is created: the library
		// would replace either value with its default while the
		// document names the one given.
		fmt.Fprintf(os.Stderr, "vaxtables: -n must be at least 1 and -j at least 0, got -n %d -j %d\n", *n, *jobs)
		os.Exit(2)
	}

	// The telemetry layer rides along on the composite run to produce
	// the interval time-series section.
	tel := vax780.NewTelemetry(intervalCyclesFor(*n), 0)
	res, err := vax780.Run(vax780.RunConfig{Instructions: *n, Telemetry: tel, Parallelism: *jobs})
	if err != nil {
		fmt.Fprintln(os.Stderr, "vaxtables:", err)
		os.Exit(1)
	}
	md := Markdown(res, tel, *n)
	if *out == "" {
		fmt.Print(md)
		return
	}
	if err := os.WriteFile(*out, []byte(md), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "vaxtables:", err)
		os.Exit(1)
	}
	fmt.Println("wrote", *out)
}

// intervalCyclesFor picks a recorder period giving a readable number of
// rows for a composite run of perExperiment instructions per workload
// (the five workloads run at roughly the paper's 10.6 CPI).
func intervalCyclesFor(perExperiment int) uint64 {
	total := uint64(perExperiment) * 5 * 11
	period := total / 25
	if period < 1000 {
		period = 1000
	}
	return period
}

// Markdown renders the full paper-vs-measured record. tel may be nil to
// omit the interval time-series section.
func Markdown(res *vax780.Results, tel *vax780.Telemetry, perExperiment int) string {
	a := res.Analysis()
	var b strings.Builder
	w := func(format string, args ...interface{}) { fmt.Fprintf(&b, format+"\n", args...) }

	w("# EXPERIMENTS — paper vs. measured")
	w("")
	w("Reproduction of Emer & Clark, *A Characterization of Processor")
	w("Performance in the VAX-11/780* (ISCA 1984 / 1998 retrospective).")
	w("Composite of the five experiments (%d instructions each; the", perExperiment)
	w("histograms are summed, as in §2.2 of the paper). Regenerate with:")
	w("")
	w("    go run ./cmd/vaxtables -n %d -o EXPERIMENTS.md", perExperiment)
	w("")
	w("Reference-value provenance: plain numbers are legible in the")
	w("available text; `†` marks values reconstructed to satisfy legible")
	w("totals; `‡` marks values derived arithmetically (see DESIGN.md).")
	w("")
	w("## Headline")
	w("")
	w("| Metric | Measured | Paper |")
	w("|---|---|---|")
	w("| Cycles per average instruction | %.3f | 10.593 |", res.CPI())
	w("| Instructions analyzed | %d | — |", res.Instructions())
	w("")

	w("## Per-experiment runs")
	w("")
	w("| Experiment | Instructions | Cycles | CPI |")
	w("|---|---|---|---|")
	for _, p := range res.PerWorkload {
		w("| %s | %d | %d | %.3f |", p.Workload, p.Instructions, p.Cycles, p.CPI)
	}
	w("")

	w("## Per-workload comparison")
	w("")
	w("```")
	w("%s", strings.TrimRight(res.WorkloadComparison(), "\n"))
	w("```")
	w("")

	w("## Figure 1 — system structure")
	w("")
	w("Reproduced as the component graph rendered by `cmd/vaxdiag`:")
	w("")
	w("```")
	w("%s", strings.TrimRight(res.BlockDiagram(), "\n"))
	w("```")
	w("")

	mark := func(p paper.Provenance) string {
		switch p {
		case paper.Reconstructed:
			return "†"
		case paper.Derived:
			return "‡"
		}
		return ""
	}

	w("## Table 1 — opcode group frequency (percent)")
	w("")
	w("| Group | Measured | Paper |")
	w("|---|---|---|")
	for _, g := range a.OpcodeGroups() {
		ref := paper.Table1[g.Group]
		w("| %s | %.2f | %.2f%s |", g.Group, g.Percent, ref.V, mark(ref.P))
	}
	w("")

	w("## Table 2 — PC-changing instructions")
	w("")
	w("| Branch type | %% of instrs | Paper | %% taken | Paper |")
	w("|---|---|---|---|---|")
	rows, total := a.PCChanging()
	for _, r := range rows {
		ref, ok := paper.Table2[r.Class]
		if !ok {
			continue
		}
		w("| %s | %.1f | %.1f | %.0f | %.0f |",
			r.Class, r.PctOfInstrs, ref.PctOfInstrs.V, r.PctTaken, ref.PctTaken.V)
	}
	w("| **TOTAL** | %.1f | %.1f | %.0f | %.0f |",
		total.PctOfInstrs, paper.Table2Total.PctOfInstrs.V,
		total.PctTaken, paper.Table2Total.PctTaken.V)
	w("")

	w("## Table 3 — specifiers per average instruction")
	w("")
	sc := a.SpecifierCounts()
	w("| Item | Measured | Paper |")
	w("|---|---|---|")
	w("| First specifiers | %.3f | %.3f |", sc.First, paper.Table3FirstSpecs.V)
	w("| Other specifiers | %.3f | %.3f |", sc.Other, paper.Table3OtherSpecs.V)
	w("| Branch displacements | %.3f | %.3f |", sc.BranchDisp, paper.Table3BranchDisp.V)
	w("")

	w("## Table 4 — operand specifier distribution (percent)")
	w("")
	w("| Mode | SPEC1 | Paper | SPEC2-6 | Paper | Total | Paper |")
	w("|---|---|---|---|---|---|---|")
	modeRows, indexed := a.SpecifierModes()
	for _, r := range modeRows {
		ref := paper.Table4[r.Mode]
		w("| %s | %.1f | %.1f%s | %.1f | %.1f%s | %.1f | %.1f%s |",
			r.Mode, r.Spec1, ref.Spec1.V, mark(ref.Spec1.P),
			r.SpecN, ref.SpecN.V, mark(ref.SpecN.P),
			r.Total, ref.Total.V, mark(ref.Total.P))
	}
	ri := paper.Table4Indexed
	w("| %s | %.1f | %.1f | %.1f | %.1f | %.1f | %.1f |",
		"Percent indexed", indexed.Spec1, ri.Spec1.V, indexed.SpecN, ri.SpecN.V,
		indexed.Total, ri.Total.V)
	w("")

	w("## Table 5 — D-stream reads and writes per average instruction")
	w("")
	w("| Source | Reads | Paper | Writes | Paper |")
	w("|---|---|---|---|---|")
	memRows, memTotal := a.MemoryOps()
	for _, r := range memRows {
		ref := paper.Table5[r.Source]
		w("| %s | %.3f | %.3f%s | %.3f | %.3f%s |",
			r.Source, r.Reads, ref.Reads.V, mark(ref.Reads.P),
			r.Writes, ref.Writes.V, mark(ref.Writes.P))
	}
	w("| **TOTAL** | %.3f | %.3f | %.3f | %.3f |",
		memTotal.Reads, paper.Table5Total.Reads.V,
		memTotal.Writes, paper.Table5Total.Writes.V)
	w("")

	w("## Table 6 — estimated size of average instruction")
	w("")
	est := a.InstructionSize()
	w("| Item | Measured | Paper |")
	w("|---|---|---|")
	w("| Specifiers per instruction | %.2f | %.2f |", est.SpecCount, paper.Table3SpecsTotal.V)
	w("| Average specifier bytes | %.2f | %.2f |", est.SpecBytes, paper.Table6SpecBytes.V)
	w("| Estimated instruction bytes | %.2f | %.2f |", est.TotalBytes, paper.Table6TotalBytes.V)
	if est.MeasuredBytes > 0 {
		w("| Consumed bytes (hardware counter) | %.2f | — |", est.MeasuredBytes)
	}
	w("")

	w("## Table 7 — interrupt and context-switch headway (instructions)")
	w("")
	h := a.EventHeadways()
	w("| Event | Measured | Paper |")
	w("|---|---|---|")
	w("| Software interrupt requests | %.0f | %.0f |", h.SoftIntRequests, paper.Table7SoftIntRequests.V)
	w("| Hardware and software interrupts | %.0f | %.0f |", h.Interrupts, paper.Table7Interrupts.V)
	w("| Context switches | %.0f | %.0f |", h.ContextSwitches, paper.Table7ContextSwitches.V)
	w("")

	w("## Table 8 — average VAX instruction timing (cycles per instruction)")
	w("")
	w("Measured value first, paper value in parentheses.")
	w("")
	m := a.CPIMatrix()
	header := "| Activity |"
	sep := "|---|"
	for c := paper.Table8Col(0); c < paper.NumT8Cols; c++ {
		header += fmt.Sprintf(" %s |", c)
		sep += "---|"
	}
	header += " Total |"
	sep += "---|"
	w("%s", header)
	w("%s", sep)
	for r := paper.Table8Row(0); r < paper.NumT8Rows; r++ {
		line := fmt.Sprintf("| %s |", r)
		for c := paper.Table8Col(0); c < paper.NumT8Cols; c++ {
			ref := paper.Table8[r][c]
			line += fmt.Sprintf(" %.3f (%.3f%s) |", m.Cells[r][c], ref.V, mark(ref.P))
		}
		rt := paper.Table8RowTotals[r]
		line += fmt.Sprintf(" %.3f (%.3f%s) |", m.RowTotals[r], rt.V, mark(rt.P))
		w("%s", line)
	}
	line := "| **TOTAL** |"
	for c := paper.Table8Col(0); c < paper.NumT8Cols; c++ {
		line += fmt.Sprintf(" %.3f (%.3f) |", m.ColTotals[c], paper.Table8ColTotals[c].V)
	}
	line += fmt.Sprintf(" **%.3f (%.3f)** |", m.Total, paper.Table8Total.V)
	w("%s", line)
	w("")

	w("## Table 9 — cycles per instruction within each group")
	w("")
	w("| Group | Measured | Paper‡ |")
	w("|---|---|---|")
	pg := a.PerGroupCycles()
	for g := vax.Group(0); g < vax.NumGroups; g++ {
		cells, ok := pg[g]
		if !ok {
			continue
		}
		w("| %s | %.2f | %.2f |", g, cells[paper.NumT8Cols],
			paper.Table9Total(paper.GroupRow(g)).V)
	}
	w("")

	w("## Section 4 — implementation events")
	w("")
	tb := a.TBMissStats()
	w("| Metric | Measured | Paper |")
	w("|---|---|---|")
	w("| TB misses per instruction | %.4f | %.4f |", tb.MissesPerInstr, paper.Sec4TBMissPerInstr.V)
	w("| &nbsp;&nbsp;D-stream | %.4f | %.4f |", tb.DPerInstr, paper.Sec4TBMissD.V)
	w("| &nbsp;&nbsp;I-stream | %.4f | %.4f |", tb.IPerInstr, paper.Sec4TBMissI.V)
	w("| Cycles per TB miss | %.2f | %.2f |", tb.CyclesPerMiss, paper.Sec4TBMissCycles.V)
	w("| PTE read stall per miss | %.2f | %.2f |", tb.StallPerMiss, paper.Sec4TBMissStall.V)
	if cs, ok := a.CacheStudyStats(); ok {
		w("| IB references per instruction | %.2f | %.2f |", cs.IBRefsPerInstr, paper.Sec4IBRefsPerInstr.V)
		w("| IB bytes consumed per reference | %.2f | %.2f |", cs.IBBytesPerRef, paper.Sec4IBBytesPerRef.V)
		w("| Cache read misses per instruction | %.3f | %.3f |", cs.CacheMissPerInstr, paper.Sec4CacheMissPerInstr.V)
		w("| &nbsp;&nbsp;I-stream | %.3f | %.3f |", cs.CacheMissI, paper.Sec4CacheMissI.V)
		w("| &nbsp;&nbsp;D-stream | %.3f | %.3f |", cs.CacheMissD, paper.Sec4CacheMissD.V)
		w("| Unaligned refs per instruction | %.4f | %.4f |", cs.UnalignedPerInstr, paper.UnalignedPerInstr.V)
	}
	w("")

	w("## Section 5 — the paper's observations, re-evaluated")
	w("")
	w("| Verdict | Claim | Measured |")
	w("|---|---|---|")
	for _, o := range a.Observations() {
		verdict := "holds"
		if !o.Holds {
			verdict = "**FAILS**"
		}
		w("| %s | %s | %s |", verdict, o.Claim, o.Detail)
	}
	w("")

	w("## Ablation A1 — UPC histogram vs. trace-driven timing model")
	w("")
	if cmp, err := vax780.CompareTraceDriven(vax780.TimesharingA, perExperiment); err == nil {
		w("| Metric | Value |")
		w("|---|---|")
		w("| Trace-driven estimated CPI | %.2f |", cmp.EstimatedCPI)
		w("| UPC-measured CPI | %.2f |", cmp.MeasuredCPI)
		w("| Time invisible to the trace-driven model | %.0f%% |", 100*cmp.InvisibleFraction)
		w("| Interrupt deliveries absent from the user trace | %d |", cmp.SkippedEvents)
		w("")
		w("The gap is the paper's methodological point (§1): benchmark and")
		w("trace-driven methods cannot see stalls or operating-system and")
		w("multiprogramming effects; the histogram monitor measures them")
		w("directly on the live system.")
	} else {
		w("(comparison failed: %v)", err)
	}
	w("")

	ablN := perExperiment / 4
	if ablN < 10_000 {
		ablN = 10_000
	}

	w("## Ablation A2 — context-switch interval vs. TB behaviour")
	w("")
	w("Each switch flushes the process half of the 128-entry TB (§3.4).")
	w("")
	w("| Switch every (instr) | TB misses/instr | CPI |")
	w("|---|---|---|")
	for _, headway := range []int{1000, 6418, 50000} {
		r, err := vax780.Run(vax780.RunConfig{
			Instructions: ablN, Workloads: []vax780.WorkloadID{vax780.TimesharingA},
			CtxSwitchHeadway: headway,
		})
		if err != nil {
			w("| %d | error: %v | |", headway, err)
			continue
		}
		w("| %d | %.4f | %.3f |", headway, r.TBMiss().MissesPerInstr, r.CPI())
	}
	w("")

	w("## Ablation A3 — write buffer occupancy")
	w("")
	w("The 11/780's one-longword write buffer is busy 6 cycles per write;")
	w("a write attempted sooner stalls (§2.1).")
	w("")
	w("| Buffer busy (cycles) | Write-stall cycles/instr | CPI |")
	w("|---|---|---|")
	for _, busy := range []int{1, 6, 12} {
		r, err := vax780.Run(vax780.RunConfig{
			Instructions: ablN, Workloads: []vax780.WorkloadID{vax780.TimesharingA},
			WriteBusy: busy,
		})
		if err != nil {
			w("| %d | error: %v | |", busy, err)
			continue
		}
		m := r.Analysis().CPIMatrix()
		w("| %d | %.3f | %.3f |", busy, m.ColTotals[paper.T8WStall], r.CPI())
	}
	w("")

	w("## Ablation A4 — overlapped I-Decode (the 11/750 improvement of §5)")
	w("")
	base, err1 := vax780.Run(vax780.RunConfig{
		Instructions: ablN, Workloads: []vax780.WorkloadID{vax780.TimesharingA}})
	over, err2 := vax780.Run(vax780.RunConfig{
		Instructions: ablN, Workloads: []vax780.WorkloadID{vax780.TimesharingA},
		OverlapDecode: true})
	if err1 == nil && err2 == nil {
		b0 := base.PerWorkload[0].CPI
		o0 := over.PerWorkload[0].CPI
		w("| Machine | CPI |")
		w("|---|---|")
		w("| 11/780 (non-overlapped decode) | %.3f |", b0)
		w("| overlapped decode (11/750 style) | %.3f |", o0)
		w("| cycles saved per instruction | %.3f |", b0-o0)
		w("")
		w("§5 predicts saving \"one cycle on each non-PC-changing")
		w("instruction\" — about 0.74 cycles at the measured branch rates.")
	}
	w("")

	w("## Companion study C1 — cache organization sweep (reference [2])")
	w("")
	w("Captured reference trace replayed against alternative caches —")
	w("the methodology behind every Section 4 cache number.")
	w("")
	w("| Organization | Read miss ratio | I-stream | D-stream |")
	w("|---|---|---|---|")
	if study, err := vax780.CacheStudy(vax780.TimesharingA, ablN, vax780.Study780Configs()); err == nil {
		for _, r := range study {
			iRatio, dRatio := 0.0, 0.0
			if r.IReads > 0 {
				iRatio = float64(r.IReadMisses) / float64(r.IReads)
			}
			if r.Reads > 0 {
				dRatio = float64(r.ReadMisses) / float64(r.Reads)
			}
			w("| %s | %.4f | %.4f | %.4f |", r.Config.Name, r.ReadMissRatio, iRatio, dRatio)
		}
	} else {
		w("(study failed: %v)", err)
	}
	w("")

	writeHotFlowSection(w, res)

	if tel != nil {
		writeIntervalSection(w, res, tel)
	}
	return b.String()
}

// writeHotFlowSection renders the composite's hot control-store flows —
// the cycle-share side of the host-time profiler. Only the
// deterministic columns appear here (cycles and shares from the
// bit-exact composite histogram); host ns/cycle pricing depends on the
// machine the document was generated on, so it stays in vaxprof.
func writeHotFlowSection(w func(string, ...interface{}), res *vax780.Results) {
	p := res.Profile()
	if p == nil || len(p.Flows) == 0 {
		return
	}
	w("## Hot control-store flows — where the composite's cycles go")
	w("")
	w("The flow-level reduction of the composite histogram (the profiler's")
	w("exact attribution, unpriced): each microflow's share of all simulated")
	w("cycles, with its split over the Table 8 cycle classes.")
	w("Price these flows in host time with `go run ./cmd/vaxprof`, which")
	w("gives each flow its share of the measured wall time.")
	w("")
	w("| # | Flow | Entry | Cycles | Share | Compute | Read | RStall | Write | WStall | IBStall |")
	w("|---|---|---|---|---|---|---|---|---|---|---|")
	const maxFlows = 12
	var shown uint64
	for i, f := range p.Top(maxFlows) {
		w("| %d | %s | %04x | %d | %.1f%% | %d | %d | %d | %d | %d | %d |",
			i+1, f.Name, f.Entry, f.Cycles, 100*f.Share,
			f.ClassCycles[0], f.ClassCycles[1], f.ClassCycles[2],
			f.ClassCycles[3], f.ClassCycles[4], f.ClassCycles[5])
		shown += f.Cycles
	}
	w("")
	w("The %d flows shown cover %.1f%% of the %d composite cycles", len(p.Top(maxFlows)),
		100*float64(shown)/float64(p.TotalCycles), p.TotalCycles)
	w("(%d flows total, %d cycles unattributed to any flow).", len(p.Flows), p.Unattributed)
	w("")
}

// writeIntervalSection renders the live-telemetry interval study: the
// per-interval CPI decomposition the paper's §2.2 names as missing from
// its averages-only reduction ("no measures of the variation of the
// statistics during the measurement are collected").
func writeIntervalSection(w func(string, ...interface{}), res *vax780.Results, tel *vax780.Telemetry) {
	rows := tel.IntervalRows()
	if len(rows) == 0 {
		return
	}
	w("## Interval time series — the variation §2.2 could not measure")
	w("")
	w("The live telemetry layer snapshotted the UPC histogram and the")
	w("hardware counters during the composite run, decomposing each")
	w("interval's CPI by cycle class (Table 8 columns). Workload phase")
	w("boundaries are visible as steps in the SIMPLE%% column.")
	w("")
	w("| # | Cycles | Instrs | CPI | Compute | Read | RStall | Write | WStall | IBStall | SIMPLE%% | TB miss |")
	w("|---|---|---|---|---|---|---|---|---|---|---|---|")
	const maxRows = 30
	shown := rows
	if len(shown) > maxRows {
		shown = shown[:maxRows]
	}
	for _, r := range shown {
		w("| %d | %d | %d | %.2f | %.2f | %.2f | %.2f | %.2f | %.2f | %.2f | %.1f | %d |",
			r.Index, r.Cycles, r.Instructions, r.CPI,
			r.Compute, r.Read, r.ReadStall, r.Write, r.WriteStall, r.IBStall,
			r.SimplePct, r.TBMissD+r.TBMissI)
	}
	if len(rows) > maxRows {
		w("| … | (%d more intervals) | | | | | | | | | | |", len(rows)-maxRows)
	}
	w("")
	w("Invariant check: the %d interval histograms sum to %d cycles;", len(rows), tel.IntervalCycleTotal())
	w("the composite histogram holds %d cycles — the time series", res.Histogram().TotalCycles())
	w("recomposes exactly to the paper's averages. Export the full series")
	w("with `vaxmon -intervals-csv` / `-intervals-json`, watch it live with")
	w("`vaxmon -serve :8780`, or open a per-cycle view in Perfetto via")
	w("`vaxmon -trace run.json`.")
	w("")
}
