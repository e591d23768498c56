package vax780

// Shared read-only trace cache. Workload generation is deterministic —
// a trace is a pure function of its workload shape — and machines
// never write the traces they execute (one trace already drives any
// number of concurrent machines under -j). Regenerating the identical
// trace for every Run was therefore pure overhead, and profiling the
// hot-loop benchmarks showed it dominating per-run host time: the
// 10k-instruction TIMESHARING-A trace costs several milliseconds of
// sampling, encoding, and allocation (plus the GC pressure of its
// garbage) per Run. Every run now resolves its traces through a process-wide cache
// of the sweep's proven design: same key, same immutability argument,
// same concurrency story. The cache is bounded (small LRU) so
// long-lived processes serving varied shapes — vaxd above all — hold a
// few hot traces, not an unbounded history.

import (
	"sync"

	"vax780/internal/workload"
)

// traceKey is the workload-shape identity of a generated trace:
// everything generation depends on. Two runs (or sweep design points)
// differing only in hardware parameters, fault plans or observers
// share one trace — exactly the paper's method of replaying one
// measured address trace against many cache geometries (§5).
type traceKey struct {
	id      WorkloadID
	instr   int
	headway int
}

// traceCache shares generated (immutable) traces across runs. A zero
// cap means unbounded (the sweep's private cache: its key set is the
// sweep's own point list); a positive cap evicts least-recently-used
// entries beyond it (the process-wide cache).
type traceCache struct {
	mu    sync.Mutex
	m     map[traceKey]*workload.Trace
	order []traceKey // LRU order, oldest first; maintained when cap > 0
	cap   int
}

func newTraceCache() *traceCache {
	return &traceCache{m: make(map[traceKey]*workload.Trace)}
}

// sharedTraces is the process-wide cache every Run resolves traces
// through unless a sweep attached its own. Eight entries comfortably
// hold the standard five-workload composite plus custom shapes.
var sharedTraces = &traceCache{
	m:   make(map[traceKey]*workload.Trace),
	cap: 8,
}

// get returns the cached trace for the workload shape, generating it
// on first use. Generation holds the lock: concurrent requests for the
// same shape must not generate twice, and distinct shapes arriving
// together are rare enough (one per workload startup) that a per-key
// latch is not worth its complexity.
func (tc *traceCache) get(id WorkloadID, p workload.Profile, cfg *RunConfig) (*workload.Trace, error) {
	key := traceKey{id: id, instr: cfg.Instructions, headway: cfg.CtxSwitchHeadway}
	tc.mu.Lock()
	defer tc.mu.Unlock()
	if tr, ok := tc.m[key]; ok {
		tc.touch(key)
		return tr, nil
	}
	tr, err := workload.Generate(p)
	if err != nil {
		return nil, err
	}
	tc.m[key] = tr
	tc.touch(key)
	if tc.cap > 0 && len(tc.m) > tc.cap {
		oldest := tc.order[0]
		tc.order = tc.order[1:]
		delete(tc.m, oldest)
	}
	return tr, nil
}

// touch moves key to the most-recently-used end of the LRU order.
func (tc *traceCache) touch(key traceKey) {
	if tc.cap <= 0 {
		return
	}
	for i, k := range tc.order {
		if k == key {
			tc.order = append(tc.order[:i], tc.order[i+1:]...)
			break
		}
	}
	tc.order = append(tc.order, key)
}
