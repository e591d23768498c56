package ulint

// Flow metadata export: the static flow structure the host-time
// profiler (internal/prof) attributes wall-clock nanoseconds onto. The
// analyzer already reconstructs flows for its termination and bounds
// passes; this file packages them — per-flow word sets and an
// address → flow index over the whole control store — behind a public
// API, so profiling and linting cannot disagree about where a flow
// begins or ends.

import "vax780/internal/urom"

// Flow is one dispatch-rooted flow of the control store, exported for
// attribution: its entry, name, word set, and worst-case cycle bounds
// (zero when the termination pass rejected the flow).
type Flow struct {
	Name     string
	Entry    uint16
	Words    []uint16 // sorted ascending
	Straight int      // longest path with each loop run once (0: unbounded)
	Worst    int      // Straight plus bounded loop refills (0: unbounded)
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
		f := Flow{Name: a.flowName(entry), Entry: entry, Words: words}
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
