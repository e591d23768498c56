// The live HTTP monitor: Prometheus-text /metrics, expvar, net/http/pprof,
// and a mirror of the histogram board's Unibus control path — the
// start/stop/clear/read register sequence of §2.2 — as /board endpoints.

package telemetry

import (
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"sync/atomic"

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

// counterMap snapshots the live counters into an ordered-key map.
func (t *Telemetry) counterMap() map[string]any {
	return map[string]any{
		"cycles":           t.C.Cycles.Load(),
		"stall_cycles":     t.C.StallCycles.Load(),
		"instructions":     t.C.Instrs.Load(),
		"cpi":              t.C.CPI(),
		"cache_miss_d":     t.C.CacheMissD.Load(),
		"cache_miss_i":     t.C.CacheMissI.Load(),
		"tb_miss_d":        t.C.TBMissD.Load(),
		"tb_miss_i":        t.C.TBMissI.Load(),
		"ib_refills":       t.C.IBRefills.Load(),
		"interrupts":       t.C.Interrupts.Load(),
		"context_switches": t.C.CtxSwitches.Load(),
		"intervals":        t.C.Intervals.Load(),
	}
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
//	/events             server-sent event stream of interval snapshots
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
	counter := func(name, help string, v uint64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v float64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
	}
	counter("vax780_cycles_total", "simulated 200ns EBOX cycles", t.C.Cycles.Load())
	counter("vax780_stall_cycles_total", "read- and write-stalled cycles", t.C.StallCycles.Load())
	counter("vax780_instructions_total", "decoded VAX instructions", t.C.Instrs.Load())
	fmt.Fprintf(w, "# HELP vax780_cache_miss_total cache read misses by stream\n"+
		"# TYPE vax780_cache_miss_total counter\n"+
		"vax780_cache_miss_total{stream=\"d\"} %d\n"+
		"vax780_cache_miss_total{stream=\"i\"} %d\n",
		t.C.CacheMissD.Load(), t.C.CacheMissI.Load())
	fmt.Fprintf(w, "# HELP vax780_tb_miss_total translation-buffer misses by stream\n"+
		"# TYPE vax780_tb_miss_total counter\n"+
		"vax780_tb_miss_total{stream=\"d\"} %d\n"+
		"vax780_tb_miss_total{stream=\"i\"} %d\n",
		t.C.TBMissD.Load(), t.C.TBMissI.Load())
	counter("vax780_ib_refills_total", "IB refill references", t.C.IBRefills.Load())
	counter("vax780_interrupts_total", "interrupt deliveries", t.C.Interrupts.Load())
	counter("vax780_context_switches_total", "context switches", t.C.CtxSwitches.Load())
	counter("vax780_intervals_total", "recorder intervals rolled", t.C.Intervals.Load())
	gauge("vax780_cpi", "cycles per instruction so far", t.C.CPI())
	status := t.Status()
	running, saturated := 0.0, 0.0
	if status&StatusRunning != 0 {
		running = 1
	}
	if status&StatusSaturated != 0 {
		saturated = 1
	}
	gauge("vax780_board_running", "UPC board collecting (CSR run bit)", running)
	gauge("vax780_board_saturated", "a board counter saturated (CSR sat bit)", saturated)
	t.writeHostMetrics(w)
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
