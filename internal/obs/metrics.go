package obs

// The service metrics registry: counters, fixed-bucket duration
// histograms, and gauge closures, rendered in Prometheus text format.
// Counters are deliberately constrained: every counter family is
// declared in counterDefs with at most one label, and the only way a
// counter moves is Count(Rec) — the same pure mapping Recompose
// applies to the journal — so Validate can prove the exported numbers
// recompose exactly from journaled events. Gauges and histograms
// describe the present (queue depth, latency) and are outside that
// contract.
//
// A nil *Metrics is a valid "metrics disabled" for every method.

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
)

// counterDef declares one counter family: its single label key (""
// for unlabeled) and help text. Only declared families can move.
type counterDef struct {
	Label string
	Help  string
}

// counterDefs is the closed set of journal-recomposable counters.
func counterDefs() map[string]counterDef {
	return map[string]counterDef{
		"vaxd_jobs_submitted_total":       {"tenant", "jobs admitted to the queue or served from cache, by tenant"},
		"vaxd_jobs_shed_total":            {"reason", "submissions rejected at admission (queue-full, quota, draining)"},
		"vaxd_job_starts_total":           {"", "job executions started, counting every life of requeued jobs"},
		"vaxd_jobs_done_total":            {"state", "jobs reaching a terminal or requeue state, by state"},
		"vaxd_cache_hits_total":           {"", "submissions answered from the content-addressed store"},
		"vaxd_requests_total":             {"tenant", "settled POST /jobs requests, by tenant"},
		"vaxd_request_errors_total":       {"tenant", "POST /jobs requests answered with a 4xx/5xx status, by tenant"},
		"vaxd_drains_total":               {"", "graceful drains (admission stopped, in-flight jobs requeued)"},
		"vaxd_castore_commit_races_total": {"", "finished bundles discarded because a first writer won the commit"},
		"vaxd_castore_torn_tails_total":   {"", "torn journal records truncated by startup repair"},
	}
}

// histDefs declares the duration histogram families (label key, help).
func histDefs() map[string]counterDef {
	return map[string]counterDef{
		"vaxd_request_duration_seconds": {"tenant", "settled POST /jobs request latency"},
		"vaxd_job_duration_seconds":     {"tenant", "job execution time, queue exit to terminal state"},
	}
}

// durationBuckets are the histogram upper bounds in seconds (+Inf is
// implicit): request latencies live in the low buckets, multi-second
// simulations in the high ones.
var durationBuckets = []float64{0.001, 0.005, 0.025, 0.1, 0.5, 2.5, 10, 60}

type histogram struct {
	buckets []uint64 // one per durationBuckets entry, non-cumulative
	inf     uint64
	sum     float64
	count   uint64
}

func (h *histogram) observe(v float64) {
	h.sum += v
	h.count++
	for i, ub := range durationBuckets {
		if v <= ub {
			h.buckets[i]++
			return
		}
	}
	h.inf++
}

type gaugeDef struct {
	name string
	help string
	fn   func() float64
}

// Metrics is the nil-safe registry vaxd serves on /metrics.
type Metrics struct {
	mu       sync.Mutex
	counters map[string]float64    // Counters() key form
	hists    map[string]*histogram // same key form
	gauges   []gaugeDef
}

// NewMetrics creates an empty registry.
func NewMetrics() *Metrics {
	return &Metrics{
		counters: make(map[string]float64),
		hists:    make(map[string]*histogram),
	}
}

// counterKey renders the Counters() map key for a family and label
// value: `name` when the family is unlabeled, `name{key="value"}`
// otherwise — the same form the Prometheus text rendering uses, so
// live counters and recomposed counters compare directly.
func counterKey(name, label string) string {
	return seriesKey(name, counterDefs()[name].Label, label)
}

// seriesKey renders one series of a family whose label key is key (""
// for unlabeled).
func seriesKey(name, key, value string) string {
	if key == "" {
		return name
	}
	return name + "{" + key + "=\"" + escapeLabel(value) + "\"}"
}

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// Count folds one journal event into the live counters via the shared
// countRec mapping. This is the only mutation path for counters.
func (m *Metrics) Count(r Rec) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	countRec(r, func(name, label string) {
		m.counters[counterKey(name, label)]++
	})
}

// Observe records one duration sample (seconds) into a declared
// histogram family.
func (m *Metrics) Observe(name, label string, seconds float64) {
	if m == nil {
		return
	}
	def, ok := histDefs()[name]
	if !ok {
		return
	}
	key := seriesKey(name, def.Label, label)
	m.mu.Lock()
	defer m.mu.Unlock()
	h := m.hists[key]
	if h == nil {
		h = &histogram{buckets: make([]uint64, len(durationBuckets))}
		m.hists[key] = h
	}
	h.observe(seconds)
}

// Gauge registers a gauge closure, sampled at render time.
func (m *Metrics) Gauge(name, help string, fn func() float64) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.gauges = append(m.gauges, gaugeDef{name: name, help: help, fn: fn})
}

// Counters snapshots the live counters, keyed as counterKey renders
// them — the left-hand side of Validate.
func (m *Metrics) Counters() map[string]float64 {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]float64, len(m.counters))
	for k, v := range m.counters {
		out[k] = v
	}
	return out
}

// WritePrometheus renders the registry in Prometheus text format,
// families and series in sorted order.
func (m *Metrics) WritePrometheus(w io.Writer) error {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	counters := make(map[string]float64, len(m.counters))
	for k, v := range m.counters {
		counters[k] = v
	}
	hists := make(map[string]*histogram, len(m.hists))
	for k, h := range m.hists {
		cp := *h
		cp.buckets = append([]uint64(nil), h.buckets...)
		hists[k] = &cp
	}
	gauges := append([]gaugeDef(nil), m.gauges...)
	m.mu.Unlock()

	defs := counterDefs()
	for _, name := range sortedNames(defs) {
		series := seriesOf(counters, name)
		if len(series) == 0 {
			continue
		}
		values := make([]float64, len(series))
		for i, key := range series {
			values[i] = counters[key]
		}
		WriteMetric(w, name, "counter", defs[name].Help, series, values)
	}

	hdefs := histDefs()
	for _, name := range sortedNames(hdefs) {
		var series []string
		var values []float64
		for _, key := range seriesOf(hists, name) {
			h := hists[key]
			var cum uint64
			for i, ub := range durationBuckets {
				cum += h.buckets[i]
				series = append(series, bucketSeries(key, fmt.Sprintf("%g", ub)))
				values = append(values, float64(cum))
			}
			series = append(series, bucketSeries(key, "+Inf"),
				suffixSeries(key, "_sum"), suffixSeries(key, "_count"))
			values = append(values, float64(cum+h.inf), h.sum, float64(h.count))
		}
		if len(series) > 0 {
			WriteMetric(w, name, "histogram", hdefs[name].Help, series, values)
		}
	}

	sort.Slice(gauges, func(i, j int) bool { return gauges[i].name < gauges[j].name })
	for _, g := range gauges {
		WriteMetric(w, g.name, "gauge", g.help, []string{g.name}, []float64{g.fn()})
	}
	return nil
}

// WriteMetric writes one metric family in the Prometheus text format:
// its # HELP and # TYPE header, then one `series value` line per
// series, series[i] carrying values[i]. Every /metrics body in the
// repository is written through it. Values print with %v: an integer
// counter reads 1000000, a float 1e+06 (%g).
func WriteMetric[V uint64 | float64](w io.Writer, name, typ, help string, series []string, values []V) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	for i, s := range series {
		fmt.Fprintf(w, "%s %v\n", s, values[i])
	}
}

// sortedNames returns a family table's names in sorted order.
func sortedNames(defs map[string]counterDef) []string {
	names := make([]string, 0, len(defs))
	for name := range defs {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// seriesOf returns the sorted series keys of one family.
func seriesOf[V any](m map[string]V, family string) []string {
	var out []string
	for k := range m {
		if k == family || strings.HasPrefix(k, family+"{") {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

// bucketSeries renders `name_bucket{...,le="ub"}` from a series key
// that may or may not already carry a label.
func bucketSeries(key, le string) string {
	if i := strings.IndexByte(key, '{'); i >= 0 {
		return key[:i] + "_bucket" + key[i:len(key)-1] + `,le="` + le + `"}`
	}
	return key + `_bucket{le="` + le + `"}`
}

func suffixSeries(key, suffix string) string {
	if i := strings.IndexByte(key, '{'); i >= 0 {
		return key[:i] + suffix + key[i:]
	}
	return key + suffix
}
