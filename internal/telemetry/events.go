// The live event and progress feeds of the HTTP monitor: the run
// ledger's bus streamed as Server-Sent Events at /events, the fleet
// tracker's latest snapshot served as JSON at /progress, and host
// self-profile gauges appended to /metrics. Both feeds attach lazily —
// Run wires them when a ledger/tracker exists — and every handler
// degrades to 503 when no run is attached, so the monitor can be
// served before, during, and after runs.

package telemetry

import (
	"fmt"
	"io"
	"net/http"
	"runtime"

	"vax780/internal/runlog"
)

// progressFunc boxes the snapshot closure so it can live in an
// atomic.Pointer (function values cannot be stored atomically).
type progressFunc struct {
	latest func() (runlog.Snapshot, bool)
}

// profFunc boxes the profiler's latest-profile closure the same way.
type profFunc struct {
	latest func() any
}

// SetProf attaches the host-time profiler's latest-profile closure,
// feeding /prof. The closure returns nil until the first workload's
// samples merge, then the cumulative (finally the whole-run) Profile.
func (t *Telemetry) SetProf(latest func() any) {
	t.profFn.Store(&profFunc{latest: latest})
}

// serveProf serves the latest published host-time profile as JSON.
func (t *Telemetry) serveProf(w http.ResponseWriter, r *http.Request) {
	p := t.profFn.Load()
	if p == nil || p.latest == nil {
		http.Error(w, "no profiler attached (set RunConfig.Profiler)",
			http.StatusServiceUnavailable)
		return
	}
	prof := p.latest()
	if prof == nil {
		http.Error(w, "no profile published yet (first workload still executing)",
			http.StatusServiceUnavailable)
		return
	}
	writeJSON(w, prof)
}

// SetEvents attaches a run's live event bus; /events subscribers from
// then on receive its stream. Safe to call while the handler serves.
func (t *Telemetry) SetEvents(b *runlog.Bus) {
	t.evBus.Store(b)
}

// SetProgress attaches the fleet tracker's latest-snapshot closure,
// feeding /progress and the host gauges on /metrics.
func (t *Telemetry) SetProgress(latest func() (runlog.Snapshot, bool)) {
	t.progFn.Store(&progressFunc{latest: latest})
}

// latestProgress returns the current fleet snapshot, if a tracker is
// attached and has published one.
func (t *Telemetry) latestProgress() (runlog.Snapshot, bool) {
	p := t.progFn.Load()
	if p == nil || p.latest == nil {
		return runlog.Snapshot{}, false
	}
	return p.latest()
}

// serveEvents streams the run ledger's live bus as Server-Sent Events.
func (t *Telemetry) serveEvents(w http.ResponseWriter, r *http.Request) {
	bus := t.evBus.Load()
	if bus == nil {
		http.Error(w, "no run attached (start a run with a Ledger, Progress, or Telemetry consumer)",
			http.StatusServiceUnavailable)
		return
	}
	ServeBus(w, r, bus)
}

// ServeBus streams one live event bus as Server-Sent Events: one
// "event:"/"data:" frame per ledger event, the data line being the
// event's canonical JSON object. A subscriber that falls behind loses
// events rather than slowing the run (the bus drops on full buffers) —
// the board's passivity discipline extended to the observers. This is
// the shared plumbing behind the monitor's /events endpoint and the
// vaxd service's per-job streams (see SSEMux).
func ServeBus(w http.ResponseWriter, r *http.Request, bus *runlog.Bus) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	ch, cancel := bus.Subscribe(sseBuffer)
	defer cancel()

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	for {
		select {
		case <-r.Context().Done():
			return
		case ev, ok := <-ch:
			if !ok {
				return
			}
			fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Type, ev.JSON())
			fl.Flush()
		}
	}
}

// sseBuffer is the per-subscriber event buffer of /events. Progress
// events arrive at the tracker period and run events in bursts at
// workload boundaries; 256 rides out any realistic burst.
const sseBuffer = 256

// serveProgress serves the latest fleet-progress snapshot as JSON.
func (t *Telemetry) serveProgress(w http.ResponseWriter, r *http.Request) {
	s, ok := t.latestProgress()
	if !ok {
		http.Error(w, "no progress published yet (no run attached, or first sample pending)",
			http.StatusServiceUnavailable)
		return
	}
	writeJSON(w, s)
}

// writeHostMetrics appends the host self-profile to /metrics: the
// simulator observing its own substrate (allocation, GC, goroutines)
// plus the cost ratio that matters for the reproduction — host
// nanoseconds per simulated 200ns cycle.
func (t *Telemetry) writeHostMetrics(w io.Writer) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	writeGauge(w, "vax780_host_heap_alloc_bytes", "live heap bytes of the simulator process", float64(ms.HeapAlloc))
	writeGauge(w, "vax780_host_sys_bytes", "total memory obtained from the OS", float64(ms.Sys))
	writeGauge(w, "vax780_host_gc_total", "completed GC cycles", float64(ms.NumGC))
	writeGauge(w, "vax780_host_gc_pause_total_ns", "cumulative GC stop-the-world pause", float64(ms.PauseTotalNs))
	writeGauge(w, "vax780_host_goroutines", "live goroutines", float64(runtime.NumGoroutine()))
	if s, ok := t.latestProgress(); ok {
		writeGauge(w, "vax780_host_ns_per_sim_cycle", "host wall nanoseconds per simulated 200ns cycle", s.NsPerSimCycle)
		writeGauge(w, "vax780_progress_instr_per_s", "fleet instruction throughput", s.InstrRate)
		writeGauge(w, "vax780_progress_eta_s", "estimated seconds to run completion", s.ETASeconds)
	}
	if bus := t.evBus.Load(); bus != nil {
		writeGauge(w, "vax780_event_subscribers", "live /events subscribers", float64(bus.Subscribers()))
	}
}
