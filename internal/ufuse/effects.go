package ufuse

// Effect-summary auditing: on a hook-free machine the fused executor
// applies each superword's per-cycle effect stream in bulk
// (Monitor.TickRun, IBox.TickRun) instead of stepping its words. The
// stream is closed-form: cycle i of a superword rooted at S observes
// micro-PC S+i, un-stalled, with one normal-set histogram increment
// and one I-Fetch advance. This file
// re-derives that stream independently from the control-store image and
// cross-checks it against the analyzer's symbolically-executed summary,
// so the replay the EBOX performs and the proof vaxlint reports can
// never diverge silently.
//
// As with Compile/Audit, the analyzer's summaries arrive as plain data
// (start, length, trajectory) — this package re-proves everything
// itself and stays free of the analyzer's dependency tree.

import (
	"fmt"

	"vax780/internal/ucode"
	"vax780/internal/urom"
)

// Summary is the plain-data form of an analyzer effect summary: the
// proven micro-PC trajectory of one fusible segment. UPCs[i] is the
// address cycle i executes; the replay contract fixes everything else
// (stalled=false, normal count set, one I-Fetch advance per cycle).
type Summary struct {
	Start uint16
	Len   int
	UPCs  []uint16
}

// ReplayStream independently derives the per-cycle micro-PC stream of
// the superword rooted at start: it re-verifies the run's legality word
// by word and returns the trajectory the fused dispatch applies in
// bulk. The derivation uses only the single-step sequencing
// rule legality guarantees (every interior word falls through), so a
// legal run's stream is exactly start, start+1, …, start+n-1.
func ReplayStream(img *ucode.Image, start uint16, n int) ([]uint16, error) {
	if err := verify(img, start, n); err != nil {
		return nil, err
	}
	out := make([]uint16, n)
	upc := start
	for i := 0; i < n; i++ {
		out[i] = upc
		if i < n-1 {
			// Legality proved Seq == SeqNext for every interior word;
			// fall-through is the only transfer the stream can take.
			if img.At(upc).Seq != ucode.SeqNext {
				return nil, fmt.Errorf("ufuse: interior word %05o stopped falling through mid-derivation", upc)
			}
			upc++
		}
	}
	return out, nil
}

// AuditEffects checks a compiled plan against the analyzer's effect
// summaries: every superword must carry a summary with its exact start
// and length, and the summary's trajectory must equal the replay stream
// this package derives independently from the image. This is the
// vaxlint -effects gate — a superword whose replay would apply
// anything but its proven per-cycle stream fails loudly.
func AuditEffects(p *Plan, rom *urom.ROM, sums []Summary) error {
	byStart := make(map[uint16]Summary, len(sums))
	for _, s := range sums {
		if prev, dup := byStart[s.Start]; !dup || s.Len > prev.Len {
			byStart[s.Start] = s
		}
	}
	for a, l := range p.run {
		if l == 0 {
			continue
		}
		sum, ok := byStart[uint16(a)]
		if !ok {
			return fmt.Errorf("ufuse: superword %05o+%d has no effect summary", a, l)
		}
		if sum.Len != int(l) {
			return fmt.Errorf("ufuse: superword %05o+%d summarized with length %d", a, l, sum.Len)
		}
		stream, err := ReplayStream(rom.Image, uint16(a), int(l))
		if err != nil {
			return fmt.Errorf("ufuse: effects audit: %w", err)
		}
		if len(sum.UPCs) != len(stream) {
			return fmt.Errorf("ufuse: superword %05o+%d: summary has %d cycles, replay stream %d",
				a, l, len(sum.UPCs), len(stream))
		}
		for i := range stream {
			if sum.UPCs[i] != stream[i] {
				return fmt.Errorf("ufuse: superword %05o+%d: cycle %d summarized as %05o, replay stream says %05o",
					a, l, i, sum.UPCs[i], stream[i])
			}
		}
	}
	return nil
}
