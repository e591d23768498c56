package jobs

import (
	"encoding/json"
	"testing"

	"vax780"
)

// FuzzSpec decodes arbitrary JSON into a Spec, the way POST /jobs does.
// Whatever Validate accepts must run: the run configuration and every
// sweep point's configuration go through vax780.Run (shortened to one
// workload of at most 200 instructions), which must return — an error
// is fine, a panic would take the whole service down.
func FuzzSpec(f *testing.F) {
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"workloads":["RTE-COM"],"instructions":500,"cache_bytes":4096,"miss_latency":9}`))
	f.Add([]byte(`{"points":[{"label":"a","cache_ways":4},{"label":"b","tb_entries":64}]}`))
	f.Add([]byte(`{"fault_seed":7,"fault_upc_drop":0.001}`))
	// Oversized overrides that once passed Validate and then panicked in
	// the cache and TB constructors.
	f.Add([]byte(`{"cache_ways":2305843009213693952}`))
	f.Add([]byte(`{"tb_entries":4611686018427387904}`))
	// Geometries the cache and TB would round: rejected, not simulated.
	f.Add([]byte(`{"cache_ways":3}`))
	f.Add([]byte(`{"tb_entries":2}`))
	f.Add([]byte(`{"cache_bytes":1024,"cache_ways":256}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var s Spec
		if json.Unmarshal(data, &s) != nil || s.Validate() != nil {
			return
		}
		cfgs := make([]vax780.RunConfig, 0, 1+len(s.Points))
		cfg, err := s.runConfig()
		if err != nil {
			t.Fatalf("Validate accepted a spec runConfig rejects: %v", err)
		}
		cfgs = append(cfgs, cfg)
		for _, p := range s.Points {
			pc, err := s.pointConfig(p)
			if err != nil {
				t.Fatalf("Validate accepted a point pointConfig rejects: %v", err)
			}
			cfgs = append(cfgs, pc)
		}
		for _, c := range cfgs {
			if c.Instructions <= 0 || c.Instructions > 200 {
				c.Instructions = 200
			}
			if len(c.Workloads) > 1 {
				c.Workloads = c.Workloads[:1]
			} else if len(c.Workloads) == 0 {
				c.Workloads = []vax780.WorkloadID{vax780.TimesharingA}
			}
			vax780.Run(c) // an error is an answer; only a panic fails
		}
	})
}
