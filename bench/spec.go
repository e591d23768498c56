package main

import (
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"sort"
)

// benchSpec is BENCHMARK.json: the workloads, and every metric the
// harness may print with its unit, direction and (end-to-end only)
// regression bound. The harness reads units from it and refuses to
// print a metric it does not declare.
type benchSpec struct {
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadDecl `json:"workloads"`
	EndToEnd   []metricDecl   `json:"end_to_end"`
	PerLayer   []metricDecl   `json:"per_layer"`
}

type workloadDecl struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var sp benchSpec
	if err := json.Unmarshal(data, &sp); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if err := sp.validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &sp, nil
}

// validate checks the declaration against the harness: names and units
// well formed and unique, counts within limits, bounds where they
// belong, and the workload list equal to the harness's own.
func (sp *benchSpec) validate() error {
	switch {
	case sp.RunSeconds < 1 || sp.RunSeconds > 60:
		return fmt.Errorf("run_seconds %d outside 1..60", sp.RunSeconds)
	case len(sp.Workloads) < 2 || len(sp.Workloads) > 8:
		return fmt.Errorf("%d workloads, want 2..8", len(sp.Workloads))
	case len(sp.EndToEnd) < 1 || len(sp.EndToEnd) > 16:
		return fmt.Errorf("%d end-to-end metrics, want 1..16", len(sp.EndToEnd))
	case len(sp.PerLayer) < 1 || len(sp.PerLayer) > 128:
		return fmt.Errorf("%d per-layer metrics, want 1..128", len(sp.PerLayer))
	}
	seen := make(map[string]bool)
	use := func(name string) error {
		if !nameRE.MatchString(name) {
			return fmt.Errorf("bad name %q", name)
		}
		if seen[name] {
			return fmt.Errorf("name %q used twice", name)
		}
		seen[name] = true
		return nil
	}
	var wl []string
	for _, w := range sp.Workloads {
		if err := use(w.Name); err != nil {
			return err
		}
		if w.Why == "" || len(w.Why) > 200 {
			return fmt.Errorf("workload %s: why must be 1..200 characters", w.Name)
		}
		wl = append(wl, w.Name)
	}
	sort.Strings(wl)
	if fmt.Sprint(wl) != fmt.Sprint(sortedNames()) {
		return fmt.Errorf("workloads %v, harness runs %v", wl, sortedNames())
	}
	for i, list := range [][]metricDecl{sp.EndToEnd, sp.PerLayer} {
		for _, m := range list {
			if err := use(m.Name); err != nil {
				return err
			}
			if !unitRE.MatchString(m.Unit) {
				return fmt.Errorf("metric %s: bad unit %q", m.Name, m.Unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				return fmt.Errorf("metric %s: better must be lower or higher", m.Name)
			}
			if e2e := i == 0; e2e != (m.Bound > 0) || m.Bound > 0.25 {
				return fmt.Errorf("metric %s: bound %v (end-to-end needs 0 < bound <= 0.25, per-layer none)",
					m.Name, m.Bound)
			}
		}
	}
	return nil
}

// declaredFor returns the metrics a run in the given mode must print.
func (sp *benchSpec) declaredFor(traced bool) []metricDecl {
	if traced {
		return sp.PerLayer
	}
	return sp.EndToEnd
}

func sortedNames() []string {
	names := append([]string(nil), workloadOrder...)
	sort.Strings(names)
	return names
}
