// Package obs is the service observability layer: causal trace spans
// that reach from vaxd's HTTP edge down to the hot control-store flow,
// and service metrics whose every exported counter is machine-checked
// against the journal it was counted from (Validate).
//
// The span side follows the run ledger's determinism discipline: a
// span's identity is a pure function of its trace ID and its path in
// the tree, so the JSONL export of a run trace is byte-identical
// across -j without any cross-worker ID coordination. Wall-clock data
// (start_ns/dur_ns) is optional, additive, and removed by StripWall —
// the same canonicalizer (runlog.Canonicalize) that strips the ledger's
// time and host group.
//
// Every hook is nil-checked and off by default: a nil *Recorder, a nil
// *Span, and a nil *Metrics are all valid "observability disabled"
// values for every method, so call sites need no guards and the
// disabled path costs one pointer test.
package obs

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"strconv"
	"strings"

	"vax780/internal/runlog"
)

// Span is one node of a causal trace tree. Kind is the schema type
// (see SpanSchema), Name the human label, Cycles the simulated-cycle
// cost for spans inside a run (zero for service spans), and
// StartNs/DurNs the optional wall-clock placement — host data, never
// part of the deterministic export.
type Span struct {
	Kind    string
	Name    string
	Cycles  uint64
	StartNs float64
	DurNs   float64

	attrs    map[string]any
	children []*Span
}

// Child appends a child span and returns it. Nil-safe: a nil receiver
// returns nil, so a whole disabled call chain costs only pointer tests.
func (s *Span) Child(kind, name string) *Span {
	if s == nil {
		return nil
	}
	c := &Span{Kind: kind, Name: name}
	s.children = append(s.children, c)
	return c
}

// Attr sets one attribute and returns the span for chaining. Values
// must be json-marshalable; map keys sort on export so attribute
// insertion order never leaks into the bytes.
func (s *Span) Attr(key string, v any) *Span {
	if s == nil {
		return s
	}
	if s.attrs == nil {
		s.attrs = make(map[string]any)
	}
	s.attrs[key] = v
	return s
}

// Adopt grafts an existing subtree under the span as its last child.
// Paths and IDs are derived at export, so the grafted rows come out
// under the new root's ID scheme with no rewriting.
func (s *Span) Adopt(child *Span) {
	if s != nil {
		s.children = append(s.children, child)
	}
}

// SetCycles records the span's simulated-cycle cost.
func (s *Span) SetCycles(c uint64) *Span {
	if s == nil {
		return s
	}
	s.Cycles = c
	return s
}

// SetWall places the span on the host timeline (ns, caller-chosen
// epoch). Wall placement is additive: StripWall removes it and the
// remaining bytes must not depend on it.
func (s *Span) SetWall(startNs, durNs float64) *Span {
	if s == nil {
		return s
	}
	s.StartNs = startNs
	s.DurNs = durNs
	return s
}

// Children returns the span's children in creation order.
func (s *Span) Children() []*Span {
	if s == nil {
		return nil
	}
	return s.children
}

// AttrMap returns the span's attributes (nil when none are set).
func (s *Span) AttrMap() map[string]any {
	if s == nil {
		return nil
	}
	return s.attrs
}

// Recorder roots one trace. The zero hook: RunConfig.Trace and
// jobs attach a Recorder; nil means tracing off.
type Recorder struct {
	trace string
	root  *Span
}

// NewRecorder creates a recorder for the given trace ID. For job
// bundles the trace ID is the bundle's content-address key, so the
// trace is as content-addressed as the measurement it describes.
func NewRecorder(trace string) *Recorder {
	return &Recorder{trace: trace}
}

// TraceID returns the recorder's trace ID ("" for nil).
func (r *Recorder) TraceID() string {
	if r == nil {
		return ""
	}
	return r.trace
}

// Begin opens (or replaces) the root span. Nil-safe.
func (r *Recorder) Begin(kind, name string) *Span {
	if r == nil {
		return nil
	}
	r.root = &Span{Kind: kind, Name: name}
	return r.root
}

// Root returns the root span (nil before Begin or on a nil recorder).
func (r *Recorder) Root() *Span {
	if r == nil {
		return nil
	}
	return r.root
}

// WriteJSONL exports the recorder's tree, one row per line.
func (r *Recorder) WriteJSONL(w io.Writer) error {
	if r == nil || r.root == nil {
		return fmt.Errorf("obs: no trace recorded")
	}
	return WriteRows(w, r.trace, r.root)
}

// Row is the JSONL wire form of one span. The field order here is the
// wire order; Attrs marshals with sorted keys, so the bytes are a pure
// function of the tree.
type Row struct {
	Trace   string         `json:"trace"`
	ID      string         `json:"id"`
	Parent  string         `json:"parent,omitempty"`
	Kind    string         `json:"kind"`
	Name    string         `json:"name"`
	Path    string         `json:"path"`
	Cycles  uint64         `json:"cycles,omitempty"`
	StartNs float64        `json:"start_ns,omitempty"`
	DurNs   float64        `json:"dur_ns,omitempty"`
	Attrs   map[string]any `json:"attrs,omitempty"`
}

// PathID derives a span's ID from its trace and path: FNV-64a over
// trace NUL path, rendered as 16 hex digits. Deterministic IDs are
// what let parallel workers record spans with no coordination and
// still export byte-identical traces, and what lets AssembleJob
// re-root a bundle's rows under a service span by recomputing IDs
// from the new paths.
func PathID(trace, path string) string {
	h := fnv.New64a()
	io.WriteString(h, trace)
	h.Write([]byte{0})
	io.WriteString(h, path)
	return fmt.Sprintf("%016x", h.Sum64())
}

// segment makes a span name safe as a path segment.
func segment(name string) string {
	return strings.ReplaceAll(name, "/", "_")
}

// Flatten renders a tree depth-first into rows. Each child's path
// segment is index-prefixed, so duplicate names (two workloads of the
// same kind, two flows with one name) still get distinct paths and
// therefore distinct IDs.
func Flatten(trace string, root *Span) []Row {
	if root == nil {
		return nil
	}
	var rows []Row
	var walk func(s *Span, path, parentID string)
	walk = func(s *Span, path, parentID string) {
		id := PathID(trace, path)
		rows = append(rows, Row{
			Trace:   trace,
			ID:      id,
			Parent:  parentID,
			Kind:    s.Kind,
			Name:    s.Name,
			Path:    path,
			Cycles:  s.Cycles,
			StartNs: s.StartNs,
			DurNs:   s.DurNs,
			Attrs:   s.attrs,
		})
		for i, c := range s.children {
			walk(c, path+"/"+strconv.Itoa(i)+":"+segment(c.Name), id)
		}
	}
	walk(root, segment(root.Name), "")
	return rows
}

// WriteRows writes a tree's rows as JSONL.
func WriteRows(w io.Writer, trace string, root *Span) error {
	for _, row := range Flatten(trace, root) {
		data, err := json.Marshal(row)
		if err != nil {
			return err
		}
		if _, err := w.Write(append(data, '\n')); err != nil {
			return err
		}
	}
	return nil
}

// ParseRows rebuilds a span tree from a JSONL export. Rows must be in
// Flatten's depth-first order (every parent before its children) —
// the same property ValidateSpans enforces.
func ParseRows(data []byte) (trace string, root *Span, err error) {
	byID := make(map[string]*Span)
	records, _ := runlog.Records(data)
	for i, line := range records {
		n := i + 1
		var row Row
		if err := json.Unmarshal(line, &row); err != nil {
			return "", nil, fmt.Errorf("obs: row %d: %w", n, err)
		}
		s := &Span{
			Kind:    row.Kind,
			Name:    row.Name,
			Cycles:  row.Cycles,
			StartNs: row.StartNs,
			DurNs:   row.DurNs,
			attrs:   row.Attrs,
		}
		if row.Parent == "" {
			if root != nil {
				return "", nil, fmt.Errorf("obs: row %d: second root", n)
			}
			root = s
			trace = row.Trace
		} else {
			p, ok := byID[row.Parent]
			if !ok {
				return "", nil, fmt.Errorf("obs: row %d: parent %s not seen", n, row.Parent)
			}
			p.children = append(p.children, s)
		}
		byID[row.ID] = s
	}
	if root == nil {
		return "", nil, fmt.Errorf("obs: empty trace")
	}
	return trace, root, nil
}

// StripWall canonicalizes a JSONL trace for determinism comparison:
// runlog.Canonicalize with the wall-clock keys start_ns and dur_ns.
// Two exports of the same run must strip to identical bytes regardless
// of parallelism or whether a profiler supplied wall placements.
func StripWall(data []byte) ([]byte, error) {
	out, err := runlog.Canonicalize(data, "start_ns", "dur_ns")
	if err != nil {
		return nil, fmt.Errorf("obs: %w", err)
	}
	return out, nil
}
