package ulint

// The effect-summary engine: for every fusible segment the analyzer
// proves, derive the closed-form per-cycle effect stream that executing
// the segment as one superword must reproduce — and prove, by symbolic
// execution of the single-step semantics over the control-store image,
// that the stream is exactly what interpreting the segment word by word
// would produce.
//
// The closed form for a fusible segment rooted at S with length n is:
//
//	cycle i ∈ [0, n): micro-PC S+i, stalled=false, one normal-set
//	histogram increment at bucket S+i with a defined Table 8 cell,
//	one I-Fetch advance with a free cache port, Now advancing by one.
//
// The symbolic executor re-derives the same stream from the words
// themselves: it walks the segment applying the EBOX's single-step
// rules (a pure word ticks its own bucket un-stalled, advances the
// I-Fetch stage, and sequences by fall-through), and any word whose
// single-step effect deviates — a memory function or IB wait that would
// stall, a loop-counter load, an interior sequencer that is not
// fall-through, an interior I-stream function, or a bucket the Table 8
// attribution map does not cover — is a KindEffectMismatch error, the
// same grade of failure as a hole in the 783/783 attribution proof.
// A clean pass therefore licenses the fused executor to apply the
// closed form in bulk (histogram and I-Fetch) without consulting the
// words again.
//
// The second pass proves return-site fusion legality: every location a
// SeqURet can transfer to (cfg.go's collected return sites) must be a
// place the B-DISP subroutine may legally land — not an IB-stall wait,
// not trap service, not the abort word, and never the interior of a
// fusible segment (a superword is proven single-entry; a return edge
// into its middle would falsify that proof). Each (uret, site) pair
// becomes a cross-flow URetEdge, marked fusible when the site roots a
// fusible segment — the static license for the fused dispatch to chain
// straight through a microsubroutine return into the next superword.

import (
	"sort"

	"vax780/internal/analysis"
	"vax780/internal/paper"
	"vax780/internal/ucode"
)

// EffectClass is the Table 8 cell one fused cycle's histogram increment
// is attributed to, via the same analysis.BucketCell map the dynamic
// reduction uses.
type EffectClass struct {
	Row paper.Table8Row
	Col paper.Table8Col
}

// EffectSummary is the proven per-cycle effect stream of one fusible
// segment: cycle i observes micro-PC UPCs[i] (always Start+i — the
// symbolic executor proves the trajectory never deviates), stalled =
// false, one normal-set histogram increment attributed to Classes[i],
// and one I-Fetch advance with a free cache port.
type EffectSummary struct {
	Start   uint16
	Len     int
	UPCs    []uint16
	Classes []EffectClass
}

// URetEdge is one cross-flow fusion edge of the return-site pass: a
// SeqURet word (From) transferring to a collected return site (To).
// Fusible marks sites rooting a fusible segment — landings the fused
// dispatch may chain into as the next superword.
type URetEdge struct {
	From    uint16
	To      uint16
	Fusible bool
}

// effectViolation reports the first word of a segment whose single-step
// effect deviates from the closed form.
type effectViolation struct {
	addr uint16
	msg  string
}

// summarize symbolically executes the fusible segment rooted at start
// and derives its EffectSummary, or the violation that falsifies the
// closed form. It mirrors the EBOX single-step semantics for pure
// words: tick(upc, stalled=false) — a normal-set histogram increment at
// the word's own bucket — then the sequencer, which for every interior
// word must resolve to upc+1.
func summarize(img *ucode.Image, start uint16, n int) (EffectSummary, *effectViolation) {
	sum := EffectSummary{
		Start:   start,
		Len:     n,
		UPCs:    make([]uint16, 0, n),
		Classes: make([]EffectClass, 0, n),
	}
	upc := start
	for i := 0; i < n; i++ {
		// The closed form says cycle i executes Start+i; the symbolic
		// trajectory must agree or the bulk replay would observe the
		// wrong micro-PC stream.
		if want := start + uint16(i); upc != want {
			return sum, &effectViolation{addr: upc, msg: "symbolic trajectory diverges from the closed form"}
		}
		mi := img.At(upc)
		if mi.Mem != ucode.MemNone || mi.IBStall || mi.Loop != ucode.LoopNone {
			return sum, &effectViolation{addr: upc,
				msg: "scheduling word (memory, IB stall, or loop load) inside a fusible segment: its cycle count is data-dependent, not closed-form"}
		}
		if i < n-1 {
			if mi.Seq != ucode.SeqNext {
				return sum, &effectViolation{addr: upc,
					msg: "interior word sequences instead of falling through; single-step would leave the segment"}
			}
			if mi.IB != ucode.IBNone {
				return sum, &effectViolation{addr: upc,
					msg: "interior word performs an I-stream function the bulk replay cannot reproduce"}
			}
		}
		// The cycle's histogram increment: normal set, the word's own
		// bucket. It must carry a Table 8 cell, or the fused bulk tick
		// would add counts the CPI decomposition silently drops.
		row, col, ok := analysis.BucketCell(mi, false)
		if !ok {
			return sum, &effectViolation{addr: upc,
				msg: "fused cycle's histogram bucket has no Table 8 cell; bulk replay would count unattributed cycles"}
		}
		sum.UPCs = append(sum.UPCs, upc)
		sum.Classes = append(sum.Classes, EffectClass{Row: row, Col: col})
		upc++ // SeqNext: the one sequencer interior words may use
	}
	return sum, nil
}

// fusibleSegs returns the distinct fusible (start, len) segments across
// every flow, sorted by start then length. Shared flow tails can
// surface the same run from two flows; the set is deduplicated so the
// effect proof and its coverage counts are per segment, not per flow.
func (a *analyzer) fusibleSegs() []Segment {
	type key struct {
		start uint16
		n     int
	}
	seen := make(map[key]bool)
	var out []Segment
	for _, entry := range a.flowEntries() {
		words := a.flowWords(entry)
		for _, s := range segments(a.img, entry, words) {
			if !s.Fusible {
				continue
			}
			k := key{s.Start, s.Len}
			if seen[k] {
				continue
			}
			seen[k] = true
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].Len < out[j].Len
	})
	return out
}

// passEffects derives and proves an EffectSummary for every fusible
// segment. A violation is an error finding: the segment looked fusible
// to the structural segmentation, but its single-step effects cannot be
// replayed closed-form, so fusing it would change what the hooks
// observe.
func (a *analyzer) passEffects(r *Report) {
	for _, s := range a.fusibleSegs() {
		r.FusibleSegments++
		sum, viol := summarize(a.img, s.Start, s.Len)
		if viol != nil {
			a.addf(KindEffectMismatch, ucode.SevError, viol.addr, "",
				"effect summary for segment %05o+%d fails at %05o: %s",
				s.Start, s.Len, viol.addr, viol.msg)
			continue
		}
		r.SummarizedEffects++
		r.Effects = append(r.Effects, sum)
	}
}

// trapWords computes the words of the microtrap service flows (the
// same walk passTrapLegality roots at Roots.Trap).
func (a *analyzer) trapWords() []bool {
	inTrap := make([]bool, a.img.Size())
	stack := append([]uint16(nil), a.roots.Trap...)
	for len(stack) > 0 {
		w := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if int(w) >= len(inTrap) || inTrap[w] {
			continue
		}
		inTrap[w] = true
		for _, e := range a.cfg.succ[w] {
			if (e.Kind == EdgeFall || e.Kind == EdgeJump) && !inTrap[e.To] {
				stack = append(stack, e.To)
			}
		}
	}
	return inTrap
}

// passReturnFusion proves every collected uret return site is a legal
// landing and emits the cross-flow fusion edges. Return sites are
// sorted and deduplicated by buildCFG, so the edge list is
// deterministic.
func (a *analyzer) passReturnFusion(r *Report) {
	// Fusible heads and fusible interiors over the whole store.
	headLen := make(map[uint16]int)
	interiorOf := make(map[uint16]Segment)
	for _, s := range a.fusibleSegs() {
		if headLen[s.Start] < s.Len {
			headLen[s.Start] = s.Len
		}
		for k := 1; k < s.Len; k++ {
			w := s.Start + uint16(k)
			if _, dup := interiorOf[w]; !dup {
				interiorOf[w] = s
			}
		}
	}
	inTrap := a.trapWords()

	for _, site := range a.cfg.returnSites {
		if int(site) >= a.img.Size() {
			a.addf(KindURetBadTarget, ucode.SevError, site, "",
				"uret return site %05o lies outside the %d-word image", site, a.img.Size())
			continue
		}
		mi := a.img.At(site)
		switch {
		case mi.IBStall:
			a.addf(KindURetBadTarget, ucode.SevError, site, "",
				"uret return site %05o is an IB-stall wait word; returns would count phantom stall cycles", site)
		case inTrap[site]:
			a.addf(KindURetBadTarget, ucode.SevError, site, "",
				"uret return site %05o lies inside a microtrap service flow", site)
		case a.roots.Abort != 0 && site == a.roots.Abort:
			a.addf(KindURetBadTarget, ucode.SevError, site, "",
				"uret return site %05o is the abort word", site)
		}
		if s, mid := interiorOf[site]; mid {
			a.addf(KindURetMidSegment, ucode.SevError, site, "",
				"uret return site %05o lands inside fusible segment %05o+%d; the segment's single-entry proof is falsified",
				site, s.Start, s.Len)
		}
	}

	// One cross-flow edge per (reachable SeqURet word, return site).
	var urets []uint16
	for addr := 1; addr < a.img.Size(); addr++ {
		if a.reached != nil && !a.reached[addr] {
			continue
		}
		if a.img.At(uint16(addr)).Seq == ucode.SeqURet {
			urets = append(urets, uint16(addr))
		}
	}
	for _, u := range urets {
		for _, site := range a.cfg.returnSites {
			if int(site) >= a.img.Size() {
				continue
			}
			r.URetEdges = append(r.URetEdges, URetEdge{
				From:    u,
				To:      site,
				Fusible: headLen[site] > 0,
			})
		}
	}
}
