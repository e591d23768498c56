package ulint

import (
	"sort"

	"vax780/internal/ucode"
)

// EdgeKind classifies a control-flow edge by the mechanism that takes
// it. The passes discriminate on kind: stall words may only be entered
// by Dispatch/Call edges, termination ignores Dispatch exits, loop
// analysis treats LoopBack edges as bounded.
type EdgeKind uint8

// Edge kinds.
const (
	EdgeFall     EdgeKind = iota // SeqNext fall-through
	EdgeJump                     // SeqJump
	EdgeLoopBack                 // SeqLoop while the counter is positive
	EdgeLoopExit                 // SeqLoop fall-through when it reaches zero
	EdgeDispatch                 // I-Decode table dispatch (IRD, specifier, store, base)
	EdgeCall                     // B-DISP micro-subroutine entry
	EdgeReturn                   // SeqURet to a collected return site
	EdgeTrap                     // abort cycle into a microtrap service entry
)

var edgeKindNames = [...]string{
	"fall", "jump", "loop-back", "loop-exit", "dispatch", "call", "return", "trap",
}

func (k EdgeKind) String() string {
	if int(k) < len(edgeKindNames) {
		return edgeKindNames[k]
	}
	return "EdgeKind(?)"
}

// Edge is one outgoing control transfer.
type Edge struct {
	To   uint16
	Kind EdgeKind
}

// predEdge is one incoming control transfer.
type predEdge struct {
	From uint16
	Kind EdgeKind
}

// cfg is the inter-flow control flow graph: the exact successor relation
// the EBOX microsequencer implements, with dispatch-table fan-out made
// explicit.
type cfg struct {
	img  *ucode.Image
	succ [][]Edge
	pred [][]predEdge

	// returnSites are the locations a SeqURet can transfer to: the
	// taken-path targets of conditional branch cycles plus the word after
	// each stand-alone branch-decode dispatch.
	returnSites []uint16
}

// buildCFG constructs the graph. It assumes the image passed the
// structural subset of ucode.Verify (targets in range, no fall-through
// past the end); Analyze enforces that before calling.
func buildCFG(img *ucode.Image, roots Roots) *cfg {
	n := img.Size()
	g := &cfg{
		img:  img,
		succ: make([][]Edge, n),
		pred: make([][]predEdge, n),
	}

	// Collect SeqURet return sites first: the B-DISP subroutine is shared,
	// so its return edge fans out to every call site's continuation. The
	// set is deduplicated through one map (shared sites stay O(1) to
	// collect, never O(sites) per collector) and sorted by site address,
	// so the URet fan-out — and everything derived from it — is
	// deterministic regardless of where in the image the collecting
	// words sit.
	seen := make(map[uint16]bool)
	for addr := 0; addr < n; addr++ {
		mi := img.At(uint16(addr))
		var site uint16
		switch {
		case mi.Seq == ucode.SeqCondTaken:
			site = mi.Target
		case mi.Seq == ucode.SeqDispatch && mi.IB == ucode.IBDecodeBranch && !mi.IBStall:
			// Stand-alone always-taken branch decode returns to the next word.
			site = uint16(addr) + 1
		default:
			continue
		}
		if !seen[site] {
			seen[site] = true
			g.returnSites = append(g.returnSites, site)
		}
	}
	sort.Slice(g.returnSites, func(i, j int) bool {
		return g.returnSites[i] < g.returnSites[j]
	})

	for addr := 0; addr < n; addr++ {
		a := uint16(addr)
		mi := img.At(a)
		add := func(to uint16, kind EdgeKind) {
			// Address 0 encodes an absent table entry; a stall word's
			// dispatch set includes its own context's stall location, which
			// is not a transfer (the wait re-executes the same bucket).
			if to == 0 || to == a || int(to) >= n {
				return
			}
			g.succ[a] = append(g.succ[a], Edge{To: to, Kind: kind})
			g.pred[to] = append(g.pred[to], predEdge{From: a, Kind: kind})
		}

		switch mi.Seq {
		case ucode.SeqNext:
			add(a+1, EdgeFall)

		case ucode.SeqJump:
			add(mi.Target, EdgeJump)

		case ucode.SeqLoop:
			add(mi.Target, EdgeLoopBack)
			add(a+1, EdgeLoopExit)

		case ucode.SeqEndInstr, ucode.SeqTrapRet:
			// Terminators: back to IRD / back to the trapped reference.

		case ucode.SeqStore:
			// Register destination ends the instruction; memory destination
			// dispatches to the position's result-store flow.
			add(roots.RStore[0], EdgeDispatch)
			add(roots.RStore[1], EdgeDispatch)

		case ucode.SeqCondTaken:
			// Taken: decode the displacement (possibly stalling) and call
			// the B-DISP subroutine, which returns to Target (a return
			// site, reached via the URet edges). Untaken ends the
			// instruction in this cycle.
			add(roots.BDisp, EdgeCall)
			add(roots.StallBDisp, EdgeCall)

		case ucode.SeqURet:
			for _, site := range g.returnSites {
				add(site, EdgeReturn)
			}

		case ucode.SeqDispatch:
			switch mi.IB {
			case ucode.IBDecodeInstr:
				// Opcode consumed: first-specifier flow (possibly after a
				// specifier stall), index preamble, or straight to execute.
				add(roots.StallInstr, EdgeDispatch)
				add(roots.StallSpec1, EdgeDispatch)
				for _, e := range roots.Spec1 {
					add(e, EdgeDispatch)
				}
				add(roots.Idx[0], EdgeDispatch)
				for _, e := range roots.Exec {
					add(e, EdgeDispatch)
				}
			case ucode.IBDecodeSpec:
				// Next specifier or the execute flow.
				add(roots.StallSpecN, EdgeDispatch)
				for _, e := range roots.SpecN {
					add(e, EdgeDispatch)
				}
				add(roots.Idx[1], EdgeDispatch)
				for _, e := range roots.Exec {
					add(e, EdgeDispatch)
				}
			case ucode.IBDecodeBranch:
				add(roots.BDisp, EdgeCall)
				add(roots.StallBDisp, EdgeCall)
			case ucode.IBNone:
				// Index-preamble base dispatch: the pending base entry is
				// always a later-position specifier flow (the sharing the
				// paper's SPEC1/SPEC2-6 attribution artifact comes from).
				for _, e := range roots.SpecN {
					add(e, EdgeDispatch)
				}
			}
		}
	}

	// The trap machinery: one abort cycle, then the service entry.
	if roots.Abort != 0 {
		for _, t := range roots.Trap {
			if int(t) < n && t != roots.Abort {
				g.succ[roots.Abort] = append(g.succ[roots.Abort], Edge{To: t, Kind: EdgeTrap})
				g.pred[t] = append(g.pred[t], predEdge{From: roots.Abort, Kind: EdgeTrap})
			}
		}
	}
	return g
}

// reachableFrom runs a forward walk over all edge kinds from the given
// roots and returns the visited set.
func (g *cfg) reachableFrom(roots []uint16) []bool {
	reached := make([]bool, len(g.succ))
	stack := append([]uint16(nil), roots...)
	for len(stack) > 0 {
		a := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if int(a) >= len(reached) || reached[a] {
			continue
		}
		reached[a] = true
		for _, e := range g.succ[a] {
			if !reached[e.To] {
				stack = append(stack, e.To)
			}
		}
	}
	return reached
}
