package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
)

// span is one timed call into a layer's public function, recorded from
// outside the layer. Spans of one op share Op; Parent is the ID of the
// enclosing span (0 for a root).
type span struct {
	Op     int     `json:"op"`
	ID     int     `json:"id"`
	Parent int     `json:"parent,omitempty"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_ns"`
	End    float64 `json:"end_ns"`
	Self   float64 `json:"self_ns"`
}

// tracer keeps the traced run's spans in memory until the run ends. It
// is used from one goroutine.
type tracer struct {
	spans []span
}

// add records a span with known bounds and returns its ID.
func (t *tracer) add(op, parent int, name string, start, end float64) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{Op: op, ID: id, Parent: parent, Name: name, Start: start, End: end})
	return id
}

// begin opens a span now; end closes it.
func (t *tracer) begin(op, parent int, name string) int {
	return t.add(op, parent, name, now(), 0)
}

func (t *tracer) end(id int) { t.spans[id-1].End = now() }

// call times fn as a span; on a nil tracer (an untraced run) it only
// calls fn.
func (t *tracer) call(op, parent int, name string, fn func() error) error {
	if t == nil {
		return fn()
	}
	id := t.begin(op, parent, name)
	err := fn()
	t.end(id)
	return err
}

// finish computes every span's self time: its duration minus the part
// of it its children cover.
func (t *tracer) finish() {
	kids := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		s.Self = s.End - s.Start - covered(s.Start, s.End, kids[s.ID])
	}
}

// covered measures the union of the children's intervals inside
// [start, end].
func covered(start, end float64, kids []span) float64 {
	sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
	var total float64
	at := start
	for _, k := range kids {
		lo, hi := max(k.Start, at), min(k.End, end)
		if hi > lo {
			total += hi - lo
			at = hi
		}
	}
	return total
}

// perOp sums f over the spans named name, by op.
func (t *tracer) perOp(name string, f func(span) float64) map[int]float64 {
	out := make(map[int]float64)
	for _, s := range t.spans {
		if s.Name == name {
			out[s.Op] += f(s)
		}
	}
	return out
}

// self is each op's summed self time in spans named name.
func (t *tracer) self(name string) map[int]float64 {
	return t.perOp(name, func(s span) float64 { return s.Self })
}

// dur is each op's summed duration of spans named name.
func (t *tracer) dur(name string) map[int]float64 {
	return t.perOp(name, func(s span) float64 { return s.End - s.Start })
}

// spansPerOp is the mean number of spans an op recorded.
func (t *tracer) spansPerOp() float64 {
	ops := make(map[int]bool)
	for _, s := range t.spans {
		ops[s.Op] = true
	}
	return float64(len(t.spans)) / float64(max(1, len(ops)))
}

// selfMs is the median over ops of the summed self time of the named
// spans, in ms.
func (t *tracer) selfMs(names ...string) float64 {
	perOp := make(map[int]float64)
	for _, name := range names {
		for op, v := range t.self(name) {
			perOp[op] += v
		}
	}
	return median(values(perOp)) / 1e6
}

// writeJSONL writes one span per line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanCostNs is what recording one span costs the harness, so the
// traced run can state its own overhead (the nanoBench discipline): the
// median, over batches, of one begin/end pair on a scratch tracer.
func spanCostNs() float64 {
	const batches, per = 25, 1000
	var costs []float64
	for b := 0; b < batches; b++ {
		t := &tracer{spans: make([]span, 0, per)}
		start := now()
		for i := 0; i < per; i++ {
			t.end(t.begin(0, 0, "calibrate"))
		}
		costs = append(costs, (now()-start)/per)
	}
	return median(costs)
}
