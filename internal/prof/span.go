package prof

// The profiler's wall-time tree — run → workload → flow, under a
// sweep root in vaxprof — is built from obs spans, so it exports
// through the same Chrome and JSONL writers as the service and run
// traces. Run and workload spans are measured (their wall placements
// come from the host clock); flow spans are synthesized here by
// partitioning a workload's measured duration proportionally to its
// board flow shares — the profiler's statement of "of this
// workload's 1.2 s, the string-move flow cost 300 ms".

import "vax780/internal/obs"

// FlowSpans synthesizes a workload span's flow children from a profile:
// the span's duration is partitioned proportionally to the profile's
// flow shares, hottest first, capped at maxFlows with the remainder
// rolled into "(other flows)". The synthetic nature is the point: flow
// residency interleaves at cycle scale, far below what wall-clock spans
// can resolve, so the partition shows magnitude, not order.
func FlowSpans(ws *obs.Span, p *Profile, maxFlows int) {
	if p == nil || p.TotalCycles == 0 || ws.DurNs <= 0 {
		return
	}
	if maxFlows <= 0 {
		maxFlows = 10
	}
	at := ws.StartNs
	var covered float64
	for _, f := range p.Top(maxFlows) {
		dur := f.Share * ws.DurNs
		ws.Child("flow", f.Name).SetWall(at, dur)
		at += dur
		covered += f.Share
	}
	if rest := 1 - covered; rest > 1e-9 {
		ws.Child("flow", "(other flows)").SetWall(at, rest*ws.DurNs)
	}
}
