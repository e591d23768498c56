package obs

// The golden span schema: for every span kind, the exact attribute
// keys a trace row may carry, held by the same runlog.CheckAttrs as
// the ledger's runlog.Schema. ValidateSpans additionally proves the
// structural contract the /trace endpoint promises: one trace ID, one
// root, every parent emitted before its children (so the export is a
// single connected tree in depth-first order), and every ID
// recomputable from the trace and path alone.

import (
	"encoding/json"
	"fmt"
	"sort"

	"vax780/internal/runlog"
)

// SpanSchema returns the golden span schema, keyed by span kind.
func SpanSchema() map[string]runlog.EventSchema {
	return map[string]runlog.EventSchema{
		// Service spans, assembled from the vaxd journal.
		"job": {
			Required: []string{"id", "key", "tenant", "state"},
			Optional: []string{"cause", "cached", "requeues"},
		},
		"http": {
			Required: []string{"route", "status"},
			Optional: []string{"tenant"},
		},
		"queue": {
			Required: []string{"life"},
		},
		"attempt": {
			Required: []string{"life"},
			Optional: []string{"state", "cause"},
		},
		// Run spans, recorded by RunContext and its merge path.
		"run": {
			Required: []string{"config", "workloads", "instructions"},
			Optional: []string{"retries", "resumed"},
		},
		"resume": {
			Required: []string{"restored"},
		},
		"workload": {
			Required: []string{"index", "instructions", "cpi"},
			Optional: []string{"saturated"},
		},
		"flow": {
			Required: []string{"entry", "share"},
		},
		"checkpoint": {
			Required: []string{"records"},
		},
		"retry": {
			Required: []string{"count"},
		},
	}
}

// rowKeys is the envelope every trace row may carry at the top level.
var rowKeys = map[string]bool{
	"trace": true, "id": true, "parent": true, "kind": true,
	"name": true, "path": true, "cycles": true,
	"start_ns": true, "dur_ns": true, "attrs": true,
}

// ValidateSpans checks a JSONL trace export against the golden schema
// and the structural contract. It accepts the exact bytes WriteRows
// produces (and their StripWall canonical form).
func ValidateSpans(data []byte) error {
	schema := SpanSchema()
	seen := make(map[string]bool)
	var trace string
	records, _ := runlog.Records(data)
	for i, line := range records {
		n := i + 1
		var raw map[string]any
		if err := json.Unmarshal(line, &raw); err != nil {
			return fmt.Errorf("row %d: not a JSON object: %w", n, err)
		}
		var extra []string
		for k := range raw {
			if !rowKeys[k] {
				extra = append(extra, k)
			}
		}
		if len(extra) > 0 {
			sort.Strings(extra)
			return fmt.Errorf("row %d: keys outside schema: %v", n, extra)
		}
		var row Row
		if err := json.Unmarshal(line, &row); err != nil {
			return fmt.Errorf("row %d: %w", n, err)
		}
		if row.Trace == "" || row.ID == "" || row.Kind == "" || row.Path == "" {
			return fmt.Errorf("row %d: missing envelope field (trace/id/kind/path)", n)
		}
		if n == 1 {
			trace = row.Trace
		} else if row.Trace != trace {
			return fmt.Errorf("row %d: second trace ID %q (stream is %q)", n, row.Trace, trace)
		}
		if want := PathID(row.Trace, row.Path); row.ID != want {
			return fmt.Errorf("row %d: id %s does not derive from path %q (want %s)",
				n, row.ID, row.Path, want)
		}
		if seen[row.ID] {
			return fmt.Errorf("row %d: duplicate id %s", n, row.ID)
		}
		switch {
		case row.Parent == "" && n != 1:
			return fmt.Errorf("row %d: second root (no parent)", n)
		case row.Parent != "" && !seen[row.Parent]:
			return fmt.Errorf("row %d: parent %s not emitted before child", n, row.Parent)
		}
		seen[row.ID] = true

		ks, ok := schema[row.Kind]
		if !ok {
			return fmt.Errorf("row %d: unknown span kind %q", n, row.Kind)
		}
		if err := runlog.CheckAttrs(ks, row.Attrs); err != nil {
			return fmt.Errorf("row %d: %s span %w", n, row.Kind, err)
		}
	}
	if len(records) == 0 {
		return fmt.Errorf("empty trace")
	}
	return nil
}
