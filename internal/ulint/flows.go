package ulint

// Flow metadata export: the static flow structure the host-time
// profiler (internal/prof) attributes wall-clock nanoseconds onto, and
// the flow-fusion JIT picks targets from. The analyzer already
// reconstructs flows for its termination and bounds passes; this file
// packages them — per-flow word sets, an address → flow index over the
// whole control store, and the maximal straight-line segments with
// their fusibility — behind a public API, so profiling and linting
// cannot disagree about where a flow begins or ends.

import (
	"sort"

	"vax780/internal/ucode"
	"vax780/internal/urom"
)

// Segment is one maximal straight-line run of microwords inside a flow:
// consecutive addresses entered only at the top, linked only by
// fall-through, ended by the first word that branches, dispatches, or
// is itself another segment's entry. A scheduling word — a memory
// reference, an IB-stall wait, or a loop-counter load — always forms a
// single-word segment of its own, so the fusible segments are exactly
// the maximal pure-compute runs. Segments are the fusion engine's unit
// of work: a fusible segment executes as one superword with no
// intervening control decision.
type Segment struct {
	Start uint16
	Len   int

	// Fusible marks a segment the control store proves safe to execute
	// as one superword (internal/ufuse): at least two words, none
	// touching memory, waiting on the IB, or loading the loop counter,
	// and no interior word performing an IB function or sequencing
	// anywhere but fall-through. The final word may branch, dispatch,
	// or redirect — the fused executor hands it to the ordinary
	// sequencer, which is the proven deopt point. Memory words stall
	// data-dependently and IB-stall words wait on the I-stream — both
	// are scheduling points a fused block cannot contain.
	Fusible bool
}

// End returns the address one past the segment's last word.
func (s Segment) End() uint16 { return s.Start + uint16(s.Len) }

// Flow is one dispatch-rooted flow of the control store, exported for
// attribution: its entry, name, word set, worst-case cycle bounds (zero
// when the termination pass rejected the flow), and straight-line
// segmentation.
type Flow struct {
	Name     string
	Entry    uint16
	Words    []uint16 // sorted ascending
	Straight int      // longest path with each loop run once (0: unbounded)
	Worst    int      // Straight plus bounded loop refills (0: unbounded)
	Segments []Segment
}

// FusibleWords counts the words inside fusible segments — the numerator
// of the flow's fusibility share.
func (f *Flow) FusibleWords() int {
	n := 0
	for _, s := range f.Segments {
		if s.Fusible {
			n += s.Len
		}
	}
	return n
}

// FlowIndex resolves any control-store address to its owning flow in
// O(1) — the classification step of the sampling profiler, run once per
// sample bucket. Words reachable from more than one entry (shared
// tails) belong to the lowest entry, deterministically.
type FlowIndex struct {
	flows []Flow
	owner []int32 // per address; -1 = no flow owns it
}

// NewFlowIndex builds the flow index of an assembled ROM.
func NewFlowIndex(rom *urom.ROM) *FlowIndex {
	a := &analyzer{img: rom.Image, roots: RootsFromROM(rom)}
	ix := &FlowIndex{owner: make([]int32, rom.Image.Size())}
	for i := range ix.owner {
		ix.owner[i] = -1
	}
	for _, entry := range a.flowEntries() {
		words := a.flowWords(entry)
		f := Flow{
			Name:     a.flowName(entry),
			Entry:    entry,
			Words:    words,
			Segments: segments(a.img, entry, words),
		}
		idx := int32(len(ix.flows))
		ix.flows = append(ix.flows, f)
		for _, w := range words {
			if ix.owner[w] < 0 {
				ix.owner[w] = idx
			}
		}
	}
	// Bounds ride along when the flow terminates cleanly; the bounds
	// pass shares the analyzer's flow walk, so entries match exactly.
	rep := AnalyzeROM(rom)
	byEntry := make(map[uint16]FlowBound, len(rep.Bounds))
	for _, b := range rep.Bounds {
		byEntry[b.Entry] = b
	}
	for i := range ix.flows {
		if b, ok := byEntry[ix.flows[i].Entry]; ok {
			ix.flows[i].Straight = b.Straight
			ix.flows[i].Worst = b.Worst
		}
	}
	return ix
}

// Flows returns the flows in entry order. The slice is shared: callers
// must not mutate it.
func (ix *FlowIndex) Flows() []Flow { return ix.flows }

// FlowOf returns the index (into Flows) of the flow owning addr, or
// false when no flow claims it (dead words, the reset word).
func (ix *FlowIndex) FlowOf(addr uint16) (int, bool) {
	if int(addr) >= len(ix.owner) || ix.owner[addr] < 0 {
		return 0, false
	}
	return int(ix.owner[addr]), true
}

// segments splits a flow's word set into maximal straight-line runs.
// A word starts a new segment when it is the flow entry, a join (more
// than one intra-flow edge targets it), the target of anything other
// than its predecessor's fall-through, a scheduling word, or the word
// after one. A segment extends only across fall-through links between
// pure words; the first branching word closes it (inclusive), and a
// scheduling word — memory reference, IB-stall wait, loop-counter load
// — always sits alone, so the fusible segments are exactly the maximal
// pure-compute runs the fusion engine executes as superwords.
func segments(img *ucode.Image, entry uint16, words []uint16) []Segment {
	inFlow := make(map[uint16]bool, len(words))
	for _, w := range words {
		inFlow[w] = true
	}
	// Count intra-flow predecessors and note fall-through-only entry.
	preds := make(map[uint16]int, len(words))
	fallIn := make(map[uint16]bool, len(words))
	a := &analyzer{img: img}
	for _, w := range words {
		for _, e := range a.intraSucc(w) {
			if !inFlow[e.To] {
				continue
			}
			preds[e.To]++
			if e.Kind == EdgeFall {
				fallIn[e.To] = true
			}
		}
	}
	sched := func(w uint16) bool {
		mi := img.At(w)
		return mi.Mem != ucode.MemNone || mi.IBStall || mi.Loop != ucode.LoopNone
	}
	starts := func(w uint16) bool {
		if w == entry || sched(w) {
			return true
		}
		if preds[w] != 1 || !fallIn[w] {
			return true
		}
		// The only predecessor is w-1's fall-through; a scheduling word
		// there closed its own segment, so w opens the next one.
		return sched(w - 1)
	}

	var out []Segment
	sorted := append([]uint16(nil), words...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for i := 0; i < len(sorted); {
		w := sorted[i]
		if !starts(w) {
			i++ // swallowed by a previous segment, or unreachable oddity
			continue
		}
		seg := Segment{Start: w, Len: 1}
		cur := w
		for !sched(cur) {
			if img.At(cur).Seq != ucode.SeqNext {
				break // branching word closes the segment
			}
			next := cur + 1
			if !inFlow[next] || starts(next) {
				break
			}
			seg.Len++
			cur = next
		}
		// Fusible: a pure run of at least two words whose interior does
		// nothing but count a compute cycle and fall through. The final
		// word may branch, dispatch, or redirect the I-stream — the
		// fused executor hands it to the ordinary sequencer.
		seg.Fusible = seg.Len >= 2
		for k := 0; k+1 < seg.Len && seg.Fusible; k++ {
			if img.At(seg.Start+uint16(k)).IB != ucode.IBNone {
				seg.Fusible = false
			}
		}
		out = append(out, seg)
		// Skip past the words this segment consumed.
		for i < len(sorted) && sorted[i] < seg.End() && sorted[i] >= seg.Start {
			i++
		}
	}
	return out
}
