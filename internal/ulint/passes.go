package ulint

import (
	"fmt"
	"sort"

	"vax780/internal/analysis"
	"vax780/internal/ucode"
)

// passDeadWords computes dispatch-rooted reachability. Control enters
// the store only at the decode dispatch, interrupt delivery, and the
// microtrap path; every other word must be reachable from those through
// real edges. This is strictly stronger than the label-rooted check in
// ucode.Verify: a fully-formed flow whose dispatch-table entry was
// dropped is dead here but alive there.
func (a *analyzer) passDeadWords(r *Report) {
	a.reached = a.cfg.reachableFrom(a.roots.globals())
	for addr := 1; addr < a.img.Size(); addr++ {
		if a.reached[addr] {
			r.Reachable++
			continue
		}
		mi := a.img.At(uint16(addr))
		what := "word"
		if mi.Label != "" {
			what = fmt.Sprintf("flow %q", mi.Label)
		}
		a.add(Finding{
			Kind:     KindDeadWord,
			Severity: ucode.SevWarning,
			Addr:     uint16(addr),
			Msg:      fmt.Sprintf("%s is unreachable from every dispatch entry point", what),
		})
	}
}

// passAttribution is the completeness proof: every histogram bucket the
// EBOX can tick on a reachable word must map to a Table 8 cell under
// analysis.BucketCell — the same function the dynamic reduction uses.
// A tickable-but-unattributed bucket means a workload could spend
// cycles the CPI decomposition silently drops.
func (a *analyzer) passAttribution(r *Report) {
	for addr := 1; addr < a.img.Size(); addr++ {
		if !a.reached[addr] {
			continue
		}
		mi := a.img.At(uint16(addr))
		for _, stalled := range []bool{false, true} {
			if !analysis.BucketTickable(mi, stalled) {
				continue
			}
			r.TickableBuckets++
			if _, _, ok := analysis.BucketCell(mi, stalled); ok {
				r.AttributedBuckets++
				continue
			}
			set := "normal"
			if stalled {
				set = "stalled"
			}
			a.addf(KindUnattributed, ucode.SevError, uint16(addr), "",
				"tickable %s-set bucket has no Table 8 cell (region %v)", set, mi.Region)
		}
	}
}

// passTrapLegality checks the microtrap service flows against the trap
// loop's contract: the EBOX trap executor accepts only SeqNext, SeqJump
// and SeqTrapRet, and performs no I-stream side effects, so any other
// sequencer or IB function in a trap flow is a runtime error waiting for
// the first TB miss. PTE reads bypass translation and are meaningful
// only inside trap service, so one reachable anywhere else is flagged.
// It records the trap-flow word set in a.inTrap for passReturnSites.
func (a *analyzer) passTrapLegality() {
	n := a.img.Size()
	inTrap := make([]bool, n)
	a.inTrap = inTrap
	stack := append([]uint16(nil), a.roots.Trap...)
	for len(stack) > 0 {
		w := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if inTrap[w] {
			continue
		}
		inTrap[w] = true
		for _, e := range a.cfg.succ[w] {
			if (e.Kind == EdgeFall || e.Kind == EdgeJump) && !inTrap[e.To] {
				stack = append(stack, e.To)
			}
		}
	}

	for addr := 1; addr < n; addr++ {
		mi := a.img.At(uint16(addr))
		if inTrap[addr] {
			switch mi.Seq {
			case ucode.SeqNext, ucode.SeqJump, ucode.SeqTrapRet:
			default:
				a.addf(KindTrapIllegalSeq, ucode.SevError, uint16(addr), "",
					"trap service flow uses %v; the trap loop accepts only next/jump/rfi", mi.Seq)
			}
			if mi.IB != ucode.IBNone {
				a.addf(KindTrapIllegalIB, ucode.SevError, uint16(addr), "",
					"trap service flow carries I-stream function %v, which the trap loop cannot execute", mi.IB)
			}
		} else if a.reached[addr] && mi.Mem == ucode.MemReadPTE {
			a.addf(KindPTEOutsideTrap, ucode.SevError, uint16(addr), "",
				"physical PTE read reachable outside the trap service flows")
		}
	}
}

// passStallEntry checks that IB-stall wait locations are entered only by
// the dispatch machinery. A fall-through, jump or loop edge into a stall
// word would execute it as ordinary microcode, counting IB-stall cycles
// that never happened — corrupting exactly the metric the stall words
// exist to isolate (§4.3).
func (a *analyzer) passStallEntry() {
	for addr := 1; addr < a.img.Size(); addr++ {
		if !a.img.At(uint16(addr)).IBStall {
			continue
		}
		for _, p := range a.cfg.pred[addr] {
			switch p.Kind {
			case EdgeDispatch, EdgeCall:
			default:
				a.addf(KindIllegalStall, ucode.SevError, uint16(addr), "",
					"IB-stall word entered by %v edge from %05o; stall words may only be dispatch targets",
					p.Kind, p.From)
			}
		}
	}
}

// passReturnSites checks that every location a SeqURet can transfer to
// (cfg.go's collected return sites) is a place the B-DISP subroutine may
// legally land: inside the image, and not an IB-stall wait, trap
// service, or the abort word. A return onto a stall word counts phantom
// IB-stall cycles; one into trap service or the abort word runs a
// microtrap no fault raised. passStallEntry cannot see these landings
// when the store has no uret word to draw the return edge from.
func (a *analyzer) passReturnSites() {
	for _, site := range a.cfg.returnSites {
		if int(site) >= a.img.Size() {
			a.addf(KindURetBadTarget, ucode.SevError, site, "",
				"uret return site %05o lies outside the %d-word image", site, a.img.Size())
			continue
		}
		switch {
		case a.img.At(site).IBStall:
			a.addf(KindURetBadTarget, ucode.SevError, site, "",
				"uret return site %05o is an IB-stall wait word; returns would count phantom stall cycles", site)
		case a.inTrap[site]:
			a.addf(KindURetBadTarget, ucode.SevError, site, "",
				"uret return site %05o lies inside a microtrap service flow", site)
		case a.roots.Abort != 0 && site == a.roots.Abort:
			a.addf(KindURetBadTarget, ucode.SevError, site, "",
				"uret return site %05o is the abort word", site)
		}
	}
}

// intraSucc returns the successors of a word within one flow: the edges
// control follows between a dispatch entry and the flow's exits. The
// taken path of a conditional branch continues at its target (the
// B-DISP subroutine returns there), so it is an intra-flow edge; table
// dispatches and instruction terminators are flow exits.
func (a *analyzer) intraSucc(addr uint16) []Edge {
	mi := a.img.At(addr)
	switch mi.Seq {
	case ucode.SeqNext:
		return []Edge{{To: addr + 1, Kind: EdgeFall}}
	case ucode.SeqJump:
		return []Edge{{To: mi.Target, Kind: EdgeJump}}
	case ucode.SeqLoop:
		return []Edge{{To: mi.Target, Kind: EdgeLoopBack}, {To: addr + 1, Kind: EdgeLoopExit}}
	case ucode.SeqCondTaken:
		return []Edge{{To: mi.Target, Kind: EdgeReturn}}
	}
	return nil
}

// isFlowExit reports whether executing the word can end the flow: table
// dispatches hand control to another flow, terminators end the
// instruction or trap, and a conditional branch ends the instruction on
// its untaken path.
func isFlowExit(mi *ucode.MicroInst) bool {
	switch mi.Seq {
	case ucode.SeqDispatch, ucode.SeqEndInstr, ucode.SeqStore,
		ucode.SeqTrapRet, ucode.SeqURet, ucode.SeqCondTaken:
		return true
	}
	return false
}

// flowEntries enumerates every flow entry point, deduplicated and
// sorted: the units of the termination and bounds passes.
func (a *analyzer) flowEntries() []uint16 {
	set := make(map[uint16]bool)
	for _, e := range a.roots.all() {
		set[e.addr] = true
	}
	out := make([]uint16, 0, len(set))
	for addr := range set {
		out = append(out, addr)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// flowWords collects the words of one flow by walking intra-flow edges
// from its entry.
func (a *analyzer) flowWords(entry uint16) []uint16 {
	seen := make(map[uint16]bool)
	stack := []uint16{entry}
	var words []uint16
	for len(stack) > 0 {
		w := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if int(w) >= a.img.Size() || seen[w] {
			continue
		}
		seen[w] = true
		words = append(words, w)
		for _, e := range a.intraSucc(w) {
			if !seen[e.To] {
				stack = append(stack, e.To)
			}
		}
	}
	sort.Slice(words, func(i, j int) bool { return words[i] < words[j] })
	return words
}

// flowName renders the flow entry's label for findings and bounds.
func (a *analyzer) flowName(entry uint16) string {
	if l := a.img.At(entry).Label; l != "" {
		return l
	}
	return fmt.Sprintf("%05o", entry)
}

// passTermination proves each flow reaches an exit on all paths:
//
//  1. with the bounded loop back edges removed, the flow's graph must be
//     acyclic — a jump cycle has no counter to run it down, so it never
//     terminates;
//  2. no word inside a loop body may reload the loop counter — the EBOX
//     has one counter, and a reload inside the body restarts the loop
//     every iteration;
//  3. every word must reach an exit (redundant given 1 and the per-word
//     checks, kept as a structural backstop).
func (a *analyzer) passTermination() {
	for _, entry := range a.flowEntries() {
		words := a.flowWords(entry)
		name := a.flowName(entry)
		inFlow := make(map[uint16]bool, len(words))
		for _, w := range words {
			inFlow[w] = true
		}

		// (1) cycle detection with LoopBack edges removed.
		if at, found := a.findCycle(words, false); found {
			a.add(Finding{
				Kind: KindNonTerminating, Severity: ucode.SevError,
				Addr: at, Flow: name,
				Msg: "flow cycles without a bounded loop back edge; no path terminates",
			})
			a.badFlows[entry] = true
			continue
		}

		// (2) counter reloads inside loop bodies.
		for _, closer := range words {
			if a.img.At(closer).Seq != ucode.SeqLoop {
				continue
			}
			for _, w := range a.loopBody(closer, inFlow) {
				if mi := a.img.At(w); mi.Loop != ucode.LoopNone {
					a.add(Finding{
						Kind: KindNonTerminating, Severity: ucode.SevError,
						Addr: w, Flow: name,
						Msg: fmt.Sprintf("loop counter reloaded inside the body of the loop closing at %05o", closer),
					})
					a.badFlows[entry] = true
				}
			}
		}
		if a.badFlows[entry] {
			continue
		}

		// (3) exit reachability.
		exitReach := make(map[uint16]bool)
		var stack []uint16
		for _, w := range words {
			if isFlowExit(a.img.At(w)) {
				stack = append(stack, w)
			}
		}
		rev := make(map[uint16][]uint16)
		for _, w := range words {
			for _, e := range a.intraSucc(w) {
				if inFlow[e.To] {
					rev[e.To] = append(rev[e.To], w)
				}
			}
		}
		for len(stack) > 0 {
			w := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if exitReach[w] {
				continue
			}
			exitReach[w] = true
			stack = append(stack, rev[w]...)
		}
		for _, w := range words {
			if !exitReach[w] {
				a.add(Finding{
					Kind: KindNoExit, Severity: ucode.SevError,
					Addr: w, Flow: name,
					Msg: "no path from this word reaches a flow exit",
				})
				a.badFlows[entry] = true
			}
		}
	}
}

// findCycle runs an iterative three-color DFS over the flow's intra
// graph and reports the first cycle target. withLoopBack includes the
// bounded loop edges.
func (a *analyzer) findCycle(words []uint16, withLoopBack bool) (uint16, bool) {
	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := make(map[uint16]int, len(words))
	inFlow := make(map[uint16]bool, len(words))
	for _, w := range words {
		inFlow[w] = true
	}
	type frame struct {
		node uint16
		next int
	}
	for _, start := range words {
		if color[start] != white {
			continue
		}
		stack := []frame{{node: start}}
		color[start] = grey
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			succ := a.intraSucc(f.node)
			advanced := false
			for f.next < len(succ) {
				e := succ[f.next]
				f.next++
				if !withLoopBack && e.Kind == EdgeLoopBack {
					continue
				}
				if !inFlow[e.To] {
					continue
				}
				switch color[e.To] {
				case grey:
					return e.To, true
				case white:
					color[e.To] = grey
					stack = append(stack, frame{node: e.To})
					advanced = true
				}
				if advanced {
					break
				}
			}
			if !advanced {
				color[f.node] = black
				stack = stack[:len(stack)-1]
			}
		}
	}
	return 0, false
}

// loopBody returns the words of the loop closed by closer: the words
// reachable from the loop head (closer's target) that can reach closer
// again, following only non-LoopBack intra edges. Includes the head and
// the closer.
func (a *analyzer) loopBody(closer uint16, inFlow map[uint16]bool) []uint16 {
	head := a.img.At(closer).Target

	fwd := make(map[uint16]bool)
	stack := []uint16{head}
	for len(stack) > 0 {
		w := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if fwd[w] || !inFlow[w] {
			continue
		}
		fwd[w] = true
		if w == closer {
			continue // the back edge itself is excluded
		}
		for _, e := range a.intraSucc(w) {
			if e.Kind != EdgeLoopBack && !fwd[e.To] {
				stack = append(stack, e.To)
			}
		}
	}
	if !fwd[closer] {
		return nil // closer unreachable from its own head: degenerate
	}

	rev := make(map[uint16][]uint16)
	for w := range fwd {
		for _, e := range a.intraSucc(w) {
			if e.Kind != EdgeLoopBack && fwd[e.To] {
				rev[e.To] = append(rev[e.To], w)
			}
		}
	}
	bwd := make(map[uint16]bool)
	stack = []uint16{closer}
	for len(stack) > 0 {
		w := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if bwd[w] {
			continue
		}
		bwd[w] = true
		stack = append(stack, rev[w]...)
	}

	var body []uint16
	for w := range fwd {
		if bwd[w] {
			body = append(body, w)
		}
	}
	sort.Slice(body, func(i, j int) bool { return body[i] < body[j] })
	return body
}
