package obs

// Chrome trace-event export for span trees (load in Perfetto /
// chrome://tracing) — the one Chrome writer for both the service/run
// traces and the profiler's wall-time tree. A tree may mix two
// timebases: service and profiler spans carry measured wall
// placements, run-side spans carry simulated cycles and no wall clock
// at all (they must stay byte-deterministic across -j). The layout
// rule: a wall-placed span sits at its measured offset; a wall-free
// span is laid out sequentially inside its parent's window with its
// cycle count as the duration unit (one cycle renders as one
// microsecond). The result is schematic for cycle spans — magnitudes
// and nesting are faithful, absolute positions are not — and fully
// deterministic for a trace with no wall data at all.
//
// The track rule: the root sits on tid 0, each depth-1 span (a run's
// workloads, a job's http/queue/attempt spans) gets its own tid, and
// deeper spans inherit their parent's, so concurrently running
// wall-placed workloads render side by side instead of overlapping on
// one track.

import (
	"encoding/json"
	"io"
)

type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// WriteChromeTrace writes the tree as Chrome trace-event JSON ("X"
// complete events, microseconds).
func WriteChromeTrace(w io.Writer, trace string, root *Span) error {
	memo := make(map[*Span]float64)
	var durOf func(s *Span) float64
	durOf = func(s *Span) float64 {
		if d, ok := memo[s]; ok {
			return d
		}
		var sum float64
		for _, c := range s.children {
			sum += durOf(c)
		}
		d := float64(1)
		switch {
		case s.DurNs > 0:
			d = s.DurNs / 1e3
		case float64(s.Cycles) > sum:
			d = float64(s.Cycles)
		case sum > 0:
			d = sum
		}
		memo[s] = d
		return d
	}

	var events []chromeEvent
	var layout func(s *Span, ts float64, tid int)
	layout = func(s *Span, ts float64, tid int) {
		if s.DurNs > 0 {
			ts = s.StartNs / 1e3
		}
		args := make(map[string]any, len(s.attrs)+1)
		args["trace"] = trace
		for k, v := range s.attrs {
			args[k] = v
		}
		events = append(events, chromeEvent{
			Name: s.Name, Cat: s.Kind, Ph: "X",
			Ts: ts, Dur: durOf(s), Pid: 1, Tid: tid,
			Args: args,
		})
		cur := ts
		for i, c := range s.children {
			ct := tid
			if s == root {
				ct = i + 1
			}
			layout(c, cur, ct)
			cur += durOf(c)
		}
	}
	if root != nil {
		layout(root, 0, 0)
	}
	out := struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}{TraceEvents: events}
	return json.NewEncoder(w).Encode(out)
}
