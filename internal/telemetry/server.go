// The live HTTP monitor: Prometheus-text /metrics, expvar, net/http/pprof,
// and a mirror of the histogram board's Unibus control path — the
// start/stop/clear/read register sequence of §2.2 — as /board endpoints.

package telemetry

import (
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"sync/atomic"

	"vax780/internal/obs"
	"vax780/internal/upc"
)

var errTraceDisabled = errors.New("telemetry: tracing not enabled")

// liveTel is the telemetry instance behind the process-wide expvar
// export (expvar's registry is global, so the publication happens once).
var liveTel atomic.Pointer[Telemetry]

var publishExpvar = func() func() {
	var done atomic.Bool
	return func() {
		if done.Swap(true) {
			return
		}
		expvar.Publish("vax780", expvar.Func(func() any {
			t := liveTel.Load()
			if t == nil {
				return nil
			}
			return t.counterMap()
		}))
	}
}()

// monitorCounters is the one table of the monitor's live counters:
// /metrics writes them as counter families in this order (a labelled
// family's series in consecutive rows) and expvar's counter map
// publishes each row under its key.
var monitorCounters = []struct {
	family, labels, help, key string
	counter                   func(*Counters) *atomic.Uint64
}{
	{"vax780_cycles_total", "", "simulated 200ns EBOX cycles", "cycles",
		func(c *Counters) *atomic.Uint64 { return &c.Cycles }},
	{"vax780_stall_cycles_total", "", "read- and write-stalled cycles", "stall_cycles",
		func(c *Counters) *atomic.Uint64 { return &c.StallCycles }},
	{"vax780_instructions_total", "", "decoded VAX instructions", "instructions",
		func(c *Counters) *atomic.Uint64 { return &c.Instrs }},
	{"vax780_cache_miss_total", `{stream="d"}`, "cache read misses by stream", "cache_miss_d",
		func(c *Counters) *atomic.Uint64 { return &c.CacheMissD }},
	{"vax780_cache_miss_total", `{stream="i"}`, "cache read misses by stream", "cache_miss_i",
		func(c *Counters) *atomic.Uint64 { return &c.CacheMissI }},
	{"vax780_tb_miss_total", `{stream="d"}`, "translation-buffer misses by stream", "tb_miss_d",
		func(c *Counters) *atomic.Uint64 { return &c.TBMissD }},
	{"vax780_tb_miss_total", `{stream="i"}`, "translation-buffer misses by stream", "tb_miss_i",
		func(c *Counters) *atomic.Uint64 { return &c.TBMissI }},
	{"vax780_ib_refills_total", "", "IB refill references", "ib_refills",
		func(c *Counters) *atomic.Uint64 { return &c.IBRefills }},
	{"vax780_interrupts_total", "", "interrupt deliveries", "interrupts",
		func(c *Counters) *atomic.Uint64 { return &c.Interrupts }},
	{"vax780_context_switches_total", "", "context switches", "context_switches",
		func(c *Counters) *atomic.Uint64 { return &c.CtxSwitches }},
	{"vax780_intervals_total", "", "recorder intervals rolled", "intervals",
		func(c *Counters) *atomic.Uint64 { return &c.Intervals }},
}

// counterMap snapshots the live counters and the CPI for expvar.
func (t *Telemetry) counterMap() map[string]any {
	m := map[string]any{"cpi": t.C.CPI()}
	for _, c := range monitorCounters {
		m[c.key] = c.counter(&t.C).Load()
	}
	return m
}

// Handler returns the monitor's HTTP handler:
//
//	/metrics            Prometheus text exposition of the live counters
//	/debug/vars         expvar (including the "vax780" counter map)
//	/debug/pprof/...    net/http/pprof profiles of the running simulator
//	/board/start        request collection start (Unibus CSR run bit)
//	/board/stop         request collection stop
//	/board/clear        request bucket clear
//	/board/csr          board status (running, saturated, snapshot cycle)
//	/board/read?addr=N  read one bucket from the latest published snapshot
//	/board/read?hot=N   read the N hottest buckets
//	/events             server-sent event stream of the run ledger's bus
//	/progress           fleet progress JSON (per-workload completion)
//	/prof               latest host-time profile (board engine) JSON
//
// Board commands are applied by the simulation goroutine at its next
// instruction decode, mirroring how Unibus register writes reached the
// real board asynchronously to the measured system.
func (t *Telemetry) Handler() http.Handler {
	liveTel.Store(t)
	t.watched.Store(true)
	publishExpvar()

	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", t.serveMetrics)
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	for _, cmd := range []string{"start", "stop", "clear"} {
		cmd := cmd
		mux.HandleFunc("/board/"+cmd, func(w http.ResponseWriter, r *http.Request) {
			if err := t.Command(cmd); err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			w.WriteHeader(http.StatusAccepted)
			fmt.Fprintf(w, "%s requested; applied at the next simulated cycle\n", cmd)
		})
	}
	mux.HandleFunc("/board/csr", t.serveCSR)
	mux.HandleFunc("/board/read", t.serveRead)
	mux.HandleFunc("/events", t.serveEvents)
	mux.HandleFunc("/progress", t.serveProgress)
	mux.HandleFunc("/prof", t.serveProf)
	return mux
}

// serveMetrics writes the Prometheus text exposition format.
func (t *Telemetry) serveMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	for i := 0; i < len(monitorCounters); {
		family := monitorCounters[i]
		var series []string
		var values []uint64
		for ; i < len(monitorCounters) && monitorCounters[i].family == family.family; i++ {
			c := monitorCounters[i]
			series = append(series, c.family+c.labels)
			values = append(values, c.counter(&t.C).Load())
		}
		obs.WriteMetric(w, family.family, "counter", family.help, series, values)
	}
	writeGauge(w, "vax780_cpi", "cycles per instruction so far", t.C.CPI())
	status := t.Status()
	running, saturated := 0.0, 0.0
	if status&StatusRunning != 0 {
		running = 1
	}
	if status&StatusSaturated != 0 {
		saturated = 1
	}
	writeGauge(w, "vax780_board_running", "UPC board collecting (CSR run bit)", running)
	writeGauge(w, "vax780_board_saturated", "a board counter saturated (CSR sat bit)", saturated)
	t.writeHostMetrics(w)
}

// writeGauge writes a single-sample gauge family.
func writeGauge(w io.Writer, name, help string, v float64) {
	obs.WriteMetric(w, name, "gauge", help, []string{name}, []float64{v})
}

// serveCSR reports the board status the way a CSR read would.
func (t *Telemetry) serveCSR(w http.ResponseWriter, r *http.Request) {
	status := t.Status()
	cycle, h := t.Snapshot()
	resp := map[string]any{
		"running":        status&StatusRunning != 0,
		"saturated":      status&StatusSaturated != 0,
		"snapshot_cycle": cycle,
		"has_snapshot":   h != nil,
		"pending_cmd":    t.cmd.Load(),
	}
	writeJSON(w, resp)
}

// serveRead reads buckets from the latest published snapshot — the
// Unibus address/data register read sequence over HTTP.
func (t *Telemetry) serveRead(w http.ResponseWriter, r *http.Request) {
	cycle, h := t.Snapshot()
	if h == nil {
		http.Error(w, "no snapshot published yet (wait for an interval boundary or issue a board command)",
			http.StatusServiceUnavailable)
		return
	}
	q := r.URL.Query()
	if hot := q.Get("hot"); hot != "" {
		n, err := strconv.Atoi(hot)
		if err != nil || n <= 0 {
			http.Error(w, "bad hot count", http.StatusBadRequest)
			return
		}
		writeJSON(w, map[string]any{
			"snapshot_cycle": cycle,
			"buckets":        hotBuckets(h, n),
		})
		return
	}
	addr, err := strconv.ParseUint(q.Get("addr"), 0, 16)
	if err != nil {
		http.Error(w, "addr or hot query parameter required", http.StatusBadRequest)
		return
	}
	n, s := h.At(uint16(addr) % upc.Buckets)
	writeJSON(w, map[string]any{
		"snapshot_cycle": cycle,
		"addr":           addr,
		"normal":         n,
		"stalled":        s,
	})
}

// bucketCount is one bucket of a /board/read?hot=N response.
type bucketCount struct {
	Addr    uint16 `json:"addr"`
	Normal  uint64 `json:"normal"`
	Stalled uint64 `json:"stalled"`
}

func hotBuckets(h *upc.Histogram, n int) []bucketCount {
	all := make([]bucketCount, 0, 64)
	for a := 0; a < upc.Buckets; a++ {
		nm, st := h.At(uint16(a))
		if nm+st > 0 {
			all = append(all, bucketCount{Addr: uint16(a), Normal: nm, Stalled: st})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		return all[i].Normal+all[i].Stalled > all[j].Normal+all[j].Stalled
	})
	if n < len(all) {
		all = all[:n]
	}
	return all
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
