package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"vax780"
	"vax780/internal/obs"
)

// TestWriteExports: a profiled run's exports are obs span rows that
// parse back as sweep → run → workload → flow, and valid Chrome JSON.
func TestWriteExports(t *testing.T) {
	p := &vax780.Profiler{}
	ids := []vax780.WorkloadID{vax780.TimesharingA, vax780.RTEEducational}
	res, err := vax780.Run(vax780.RunConfig{Instructions: 1500, Workloads: ids, Profiler: p})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	chrome := filepath.Join(dir, "trace.json")
	spans := filepath.Join(dir, "spans.jsonl")
	if err := writeExports(p, res, nil, 0, "", chrome, spans); err != nil {
		t.Fatal(err)
	}

	data, err := os.ReadFile(spans)
	if err != nil {
		t.Fatal(err)
	}
	_, root, err := obs.ParseRows(data)
	if err != nil {
		t.Fatalf("spans file: %v", err)
	}
	if root.Kind != "sweep" || len(root.Children()) != 1 {
		t.Fatalf("root %s/%s with %d children, want one sweep over one run",
			root.Kind, root.Name, len(root.Children()))
	}
	run := root.Children()[0]
	if run.Kind != "run" || len(run.Children()) != len(ids) {
		t.Fatalf("run span %s with %d children, want %d workloads", run.Kind, len(run.Children()), len(ids))
	}
	for _, ws := range run.Children() {
		if ws.Kind != "workload" || len(ws.Children()) == 0 {
			t.Fatalf("span %s/%s has %d children, want a workload with flows", ws.Kind, ws.Name, len(ws.Children()))
		}
		for _, fs := range ws.Children() {
			if fs.Kind != "flow" {
				t.Fatalf("workload %s child kind %q, want flow", ws.Name, fs.Kind)
			}
		}
	}

	data, err = os.ReadFile(chrome)
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatalf("chrome file: %v", err)
	}
	if want := len(obs.Flatten("", root)); len(out.TraceEvents) != want {
		t.Fatalf("chrome file has %d events for %d spans", len(out.TraceEvents), want)
	}
}
