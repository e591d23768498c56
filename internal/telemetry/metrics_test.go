package telemetry_test

// Golden bytes of the monitor's /metrics body and its expvar counter
// map. Counter values are set past 1e6 after a run, so the integer
// rendering of counters (never 1e+06) is pinned along with every
// family's HELP and TYPE header and its order.

import (
	"encoding/json"
	"io"
	"regexp"
	"testing"

	"vax780/internal/runlog"
	"vax780/internal/telemetry"
)

// setCounters stores distinct values of at least 1e6 in every counter.
func setCounters(c *telemetry.Counters) {
	c.Cycles.Store(12_000_000)
	c.StallCycles.Store(3_000_001)
	c.Instrs.Store(1_000_000)
	c.CacheMissD.Store(1_000_002)
	c.CacheMissI.Store(1_000_003)
	c.TBMissD.Store(1_000_004)
	c.TBMissI.Store(1_000_005)
	c.IBRefills.Store(2_000_000)
	c.Interrupts.Store(1_000_006)
	c.CtxSwitches.Store(1_000_007)
	c.Intervals.Store(1_000_008)
}

// hostValue masks the values of the host gauges that measure this
// process (heap, GC, goroutines), which no two runs share.
var hostValue = regexp.MustCompile(`(?m)^(vax780_host_(?:heap_alloc_bytes|sys_bytes|gc_total|gc_pause_total_ns|goroutines)) \S+$`)

func TestMetricsBodyGolden(t *testing.T) {
	tel, srv := newServer(t)
	runInstrumented(t, tel, 2000)
	tel.Finish()
	setCounters(&tel.C)
	tel.SetProgress(func() (runlog.Snapshot, bool) {
		return runlog.Snapshot{NsPerSimCycle: 61.5, InstrRate: 1e6, ETASeconds: 3.5}, true
	})
	tel.SetEvents(runlog.New(io.Discard).Bus())

	body := hostValue.ReplaceAllString(get(t, srv.URL+"/metrics").body, "$1 X")
	const want = `# HELP vax780_cycles_total simulated 200ns EBOX cycles
# TYPE vax780_cycles_total counter
vax780_cycles_total 12000000
# HELP vax780_stall_cycles_total read- and write-stalled cycles
# TYPE vax780_stall_cycles_total counter
vax780_stall_cycles_total 3000001
# HELP vax780_instructions_total decoded VAX instructions
# TYPE vax780_instructions_total counter
vax780_instructions_total 1000000
# HELP vax780_cache_miss_total cache read misses by stream
# TYPE vax780_cache_miss_total counter
vax780_cache_miss_total{stream="d"} 1000002
vax780_cache_miss_total{stream="i"} 1000003
# HELP vax780_tb_miss_total translation-buffer misses by stream
# TYPE vax780_tb_miss_total counter
vax780_tb_miss_total{stream="d"} 1000004
vax780_tb_miss_total{stream="i"} 1000005
# HELP vax780_ib_refills_total IB refill references
# TYPE vax780_ib_refills_total counter
vax780_ib_refills_total 2000000
# HELP vax780_interrupts_total interrupt deliveries
# TYPE vax780_interrupts_total counter
vax780_interrupts_total 1000006
# HELP vax780_context_switches_total context switches
# TYPE vax780_context_switches_total counter
vax780_context_switches_total 1000007
# HELP vax780_intervals_total recorder intervals rolled
# TYPE vax780_intervals_total counter
vax780_intervals_total 1000008
# HELP vax780_cpi cycles per instruction so far
# TYPE vax780_cpi gauge
vax780_cpi 12
# HELP vax780_board_running UPC board collecting (CSR run bit)
# TYPE vax780_board_running gauge
vax780_board_running 0
# HELP vax780_board_saturated a board counter saturated (CSR sat bit)
# TYPE vax780_board_saturated gauge
vax780_board_saturated 0
# HELP vax780_host_heap_alloc_bytes live heap bytes of the simulator process
# TYPE vax780_host_heap_alloc_bytes gauge
vax780_host_heap_alloc_bytes X
# HELP vax780_host_sys_bytes total memory obtained from the OS
# TYPE vax780_host_sys_bytes gauge
vax780_host_sys_bytes X
# HELP vax780_host_gc_total completed GC cycles
# TYPE vax780_host_gc_total gauge
vax780_host_gc_total X
# HELP vax780_host_gc_pause_total_ns cumulative GC stop-the-world pause
# TYPE vax780_host_gc_pause_total_ns gauge
vax780_host_gc_pause_total_ns X
# HELP vax780_host_goroutines live goroutines
# TYPE vax780_host_goroutines gauge
vax780_host_goroutines X
# HELP vax780_host_ns_per_sim_cycle host wall nanoseconds per simulated 200ns cycle
# TYPE vax780_host_ns_per_sim_cycle gauge
vax780_host_ns_per_sim_cycle 61.5
# HELP vax780_progress_instr_per_s fleet instruction throughput
# TYPE vax780_progress_instr_per_s gauge
vax780_progress_instr_per_s 1e+06
# HELP vax780_progress_eta_s estimated seconds to run completion
# TYPE vax780_progress_eta_s gauge
vax780_progress_eta_s 3.5
# HELP vax780_event_subscribers live /events subscribers
# TYPE vax780_event_subscribers gauge
vax780_event_subscribers 0
`
	if body != want {
		t.Errorf("/metrics body:\n%s\nwant:\n%s", body, want)
	}

	var vars struct {
		VAX780 map[string]float64 `json:"vax780"`
	}
	if err := json.Unmarshal([]byte(get(t, srv.URL+"/debug/vars").body), &vars); err != nil {
		t.Fatal(err)
	}
	wantVars := map[string]float64{
		"cycles": 12e6, "stall_cycles": 3000001, "instructions": 1e6, "cpi": 12,
		"cache_miss_d": 1000002, "cache_miss_i": 1000003,
		"tb_miss_d": 1000004, "tb_miss_i": 1000005, "ib_refills": 2e6,
		"interrupts": 1000006, "context_switches": 1000007, "intervals": 1000008,
	}
	if len(vars.VAX780) != len(wantVars) {
		t.Errorf("expvar vax780 map has %d keys, want %d: %v", len(vars.VAX780), len(wantVars), vars.VAX780)
	}
	for k, v := range wantVars {
		if got, ok := vars.VAX780[k]; !ok || got != v {
			t.Errorf("expvar vax780[%q] = %v (present %v), want %v", k, got, ok, v)
		}
	}
}
