// Package ufuse is the flow-fusion superword engine: it pre-compiles
// each ulint-proven straight-line microword run into a "superword" —
// one dispatch that advances the cycle counter by the run's length and
// applies the run's count vector to the histogram in bulk — and
// exports the per-address run-length table the EBOX consults in its
// hot loop.
//
// Legality is proven statically, per word, by verify — the one proof a
// superword needs — so a superword is safe no matter how execution
// reaches it:
//
//   - every word but the last: Seq == SeqNext (pure fall-through), no
//     memory function, no loop-counter load, no IB-stall wait, and no
//     IB function — the word's entire architectural effect is "count
//     one compute cycle and advance";
//   - the last word: no memory function, no loop-counter load, no
//     IB-stall wait — it may branch, dispatch, or redirect, because
//     the fused dispatch hands it to the ordinary sequencer.
//
// Memory references, stalls, loop back-edges, and dispatches therefore
// never execute inside a superword (they are the proven deopt points),
// and any enabled per-cycle hook — telemetry probe, fault plan, flight
// recorder, prof sampler — forces the EBOX back to single-step
// interpretation entirely. That deopt contract is what keeps a fused
// run bit-exact with an interpreted one: the superword performs the
// identical monitor increments, I-Fetch ticks, and cycle-counter
// advance the interpreter would, just without paying a dispatch per
// word, and everything whose behavior varies at runtime runs through
// the unchanged interpreter paths.
//
// Entry needs no separate proof either. The EBOX re-reads Len at every
// landing — a jump target, a uret return site, a superword's own
// interior — and any nonzero entry there is a run verify proved from
// that address; a landing the table does not head single-steps.
//
// The candidate segment set comes from internal/ulint's flow
// segmentation, but this package deliberately receives it as plain
// (start, length) data and re-proves every word itself: the EBOX and
// machine layers must stay free of the analyzer's dependency tree, and
// the fusion set is never trusted, always verified twice.
package ufuse

import (
	"fmt"

	"vax780/internal/ucode"
	"vax780/internal/urom"
)

// Segment is one candidate straight-line run, as exported by the
// control-store analyzer (ulint's fusible segments) or selected by a
// vaxprof -targets ranking.
type Segment struct {
	Start uint16
	Len   int
}

// Plan is a compiled superword table: for each control-store address,
// the length of the proven straight-line run rooted there (0: no
// superword, single-step). The table is immutable after Compile and
// safe to share across machines.
type Plan struct {
	run []uint16
}

// Len returns the superword length rooted at addr, or 0 when addr must
// be single-stepped. It is the one fusion-engine call on the EBOX hot
// path and inlines to a bounds check and a table load.
func (p *Plan) Len(addr uint16) int {
	if int(addr) < len(p.run) {
		return int(p.run[addr])
	}
	return 0
}

// Superwords counts the compiled superwords of the plan.
func (p *Plan) Superwords() int {
	n := 0
	for _, l := range p.run {
		if l != 0 {
			n++
		}
	}
	return n
}

// FusedWords counts the control-store words covered by some superword.
func (p *Plan) FusedWords() int {
	n := 0
	for _, l := range p.run {
		n += int(l)
	}
	return n
}

// Compile builds the superword table from the proven segment set,
// re-verifying every word of every segment against the legality rules
// the fused executor depends on. Shared flow tails can offer two
// proven runs from the same start (flow-local joins differ); the
// longer one wins — entering a superword's interior simply misses the
// table at that address and single-steps, so the longer run is legal
// from any entry the shorter one was.
func Compile(rom *urom.ROM, segs []Segment) (*Plan, error) {
	img := rom.Image
	p := &Plan{run: make([]uint16, img.Size())}
	for _, s := range segs {
		if err := verify(img, s.Start, s.Len); err != nil {
			return nil, fmt.Errorf("ufuse: %w", err)
		}
		if int(p.run[s.Start]) < s.Len {
			p.run[s.Start] = uint16(s.Len)
		}
	}
	return p, nil
}

// verify proves one segment legal word by word: the per-word static
// properties that make a superword's effect independent of runtime
// state (see the package comment for the rules).
func verify(img *ucode.Image, start uint16, n int) error {
	if n < 2 {
		return fmt.Errorf("segment %05o has %d word(s); a superword needs at least 2", start, n)
	}
	if int(start)+n > img.Size() {
		return fmt.Errorf("segment %05o+%d runs past the control store", start, n)
	}
	for k := 0; k < n; k++ {
		w := start + uint16(k)
		mi := img.At(w)
		if mi.Mem != ucode.MemNone || mi.Loop != ucode.LoopNone || mi.IBStall {
			return fmt.Errorf("word %05o is a scheduling point (memory, loop load, or IB stall)", w)
		}
		if k == n-1 {
			break // the final word may branch or redirect: seq() runs it
		}
		if mi.Seq != ucode.SeqNext {
			return fmt.Errorf("interior word %05o sequences (%v) instead of falling through", w, mi.Seq)
		}
		if mi.IB != ucode.IBNone {
			return fmt.Errorf("interior word %05o performs an IB function (%v)", w, mi.IB)
		}
	}
	return nil
}

// Audit checks a compiled plan against the proven segment set: every
// superword must match one proven segment exactly (start and length),
// re-verified word by word. This is the vaxlint gate — a plan that
// fuses anything the analyzer did not prove fails loudly.
func Audit(p *Plan, rom *urom.ROM, proven []Segment) error {
	ok := make(map[uint16]map[int]bool, len(proven))
	for _, s := range proven {
		if ok[s.Start] == nil {
			ok[s.Start] = make(map[int]bool)
		}
		ok[s.Start][s.Len] = true
	}
	for a, l := range p.run {
		if l == 0 {
			continue
		}
		if !ok[uint16(a)][int(l)] {
			return fmt.Errorf("ufuse: superword %05o+%d matches no proven fusible segment", a, l)
		}
		if err := verify(rom.Image, uint16(a), int(l)); err != nil {
			return fmt.Errorf("ufuse: audit: %w", err)
		}
	}
	return nil
}
