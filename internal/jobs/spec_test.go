package jobs

import (
	"errors"
	"fmt"
	"net/http"
	"testing"
)

func mustKey(t *testing.T, s Spec) string {
	t.Helper()
	k, err := s.Key()
	if err != nil {
		t.Fatalf("Key(%+v): %v", s, err)
	}
	if len(k) != 16 {
		t.Fatalf("Key = %q, want 16 hex digits", k)
	}
	return k
}

func TestSpecKeyIdentity(t *testing.T) {
	base := Spec{Workloads: []string{"TIMESHARING-A"}, Instructions: 2000}
	if mustKey(t, base) != mustKey(t, base) {
		t.Fatal("identical specs hash differently")
	}
	// Every measurement-identity field must move the key.
	variants := []Spec{
		{Workloads: []string{"TIMESHARING-B"}, Instructions: 2000},
		{Workloads: []string{"TIMESHARING-A"}, Instructions: 3000},
		{Workloads: []string{"TIMESHARING-A"}, Instructions: 2000, CacheBytes: 16384},
		{Workloads: []string{"TIMESHARING-A"}, Instructions: 2000, TBEntries: 64},
		{Workloads: []string{"TIMESHARING-A"}, Instructions: 2000, CtxSwitchHeadway: 1000},
		{Workloads: []string{"TIMESHARING-A"}, Instructions: 2000, FaultSeed: 7},
		{Workloads: []string{"TIMESHARING-A"}, Instructions: 2000, FaultMemParity: 1e-5},
		{Workloads: []string{"TIMESHARING-A"}, Instructions: 2000, FaultMachCheck: 1e-6},
	}
	seen := map[string]int{mustKey(t, base): -1}
	for i, v := range variants {
		k := mustKey(t, v)
		if prev, dup := seen[k]; dup {
			t.Errorf("variant %d collides with %d: %s", i, prev, k)
		}
		seen[k] = i
	}
}

func TestSpecKeyServiceFieldsExcluded(t *testing.T) {
	base := Spec{Workloads: []string{"RTE-EDU"}, Instructions: 1500}
	withService := base
	withService.Tenant = "alice"
	withService.DeadlineMS = 30_000
	withService.Parallelism = 4
	if mustKey(t, base) != mustKey(t, withService) {
		t.Fatal("tenant/deadline/parallelism changed the content address; scheduling hints must share one cached result")
	}
}

func TestSpecKeySweep(t *testing.T) {
	sweep := Spec{
		Workloads:    []string{"TIMESHARING-A"},
		Instructions: 1000,
		Points: []Point{
			{Label: "8KB", CacheBytes: 8192},
			{Label: "16KB", CacheBytes: 16384},
		},
	}
	k1 := mustKey(t, sweep)
	reordered := sweep
	reordered.Points = []Point{sweep.Points[1], sweep.Points[0]}
	if k1 == mustKey(t, reordered) {
		t.Fatal("point order does not move the key; bundle tables are ordered")
	}
	single := Spec{Workloads: []string{"TIMESHARING-A"}, Instructions: 1000, CacheBytes: 8192}
	if k1 == mustKey(t, single) {
		t.Fatal("sweep key collides with single-run key")
	}
}

func TestSpecValidate(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
		ok   bool
	}{
		{"zero value", Spec{}, true},
		{"named workloads", Spec{Workloads: []string{"TIMESHARING-A", "RTE-COM"}}, true},
		{"unknown workload", Spec{Workloads: []string{"PDP-11"}}, false},
		{"negative instructions", Spec{Instructions: -1}, false},
		{"negative deadline", Spec{DeadlineMS: -5}, false},
		{"unlabeled point", Spec{Points: []Point{{CacheBytes: 4096}}}, false},
		{"labeled points", Spec{Points: []Point{{Label: "a"}, {Label: "b", CacheWays: 1}}}, true},
		{"negative cache ways", Spec{CacheWays: -2}, false},
		{"negative cache bytes", Spec{CacheBytes: -8192}, false},
		{"negative tb entries", Spec{TBEntries: -128}, false},
		{"negative miss latency", Spec{MissLatency: -6}, false},
		{"negative write busy", Spec{WriteBusy: -6}, false},
		{"negative ctx switch headway", Spec{CtxSwitchHeadway: -1}, false},
		{"negative point cache ways", Spec{Points: []Point{{Label: "a"}, {Label: "b", CacheWays: -2}}}, false},
		{"negative point miss latency", Spec{Points: []Point{{Label: "a", MissLatency: -6}}}, false},
		// Oversized overrides used to pass Validate and then panic in
		// the cache and TB constructors, or stall without end.
		{"oversized cache ways", Spec{CacheWays: 1 << 61}, false},
		{"oversized cache bytes", Spec{CacheBytes: 1 << 40}, false},
		{"oversized tb entries", Spec{TBEntries: 1 << 62}, false},
		{"oversized miss latency", Spec{MissLatency: 1 << 62}, false},
		{"oversized write busy", Spec{WriteBusy: 1 << 62}, false},
		// An instruction count near the int range used to pass Validate
		// and then panic sizing the trace, outside the run's recover.
		{"oversized instructions", Spec{Instructions: 1 << 60}, false},
		{"oversized point tb entries", Spec{Points: []Point{{Label: "a"}, {Label: "b", TBEntries: 1 << 62}}}, false},
		// Sizes the cache and TB cannot be built at: they used to run a
		// rounded geometry under the requested name.
		{"cache ways not dividing the size", Spec{CacheWays: 3}, false},
		{"cache smaller than one set", Spec{CacheBytes: 1024, CacheWays: 256}, false},
		{"tb entries below two halves of two ways", Spec{TBEntries: 2}, false},
		{"tb entries not a multiple of four", Spec{Points: []Point{{Label: "a", TBEntries: 129}}}, false},
		{"largest in-repo sweep point", Spec{Points: []Point{{Label: "16KB/4-way", CacheBytes: 16 << 10, CacheWays: 4}}}, true},
	}
	for _, tc := range cases {
		err := tc.spec.Validate()
		if tc.ok && err != nil {
			t.Errorf("%s: Validate = %v, want nil", tc.name, err)
		}
		if !tc.ok {
			if err == nil {
				t.Errorf("%s: Validate accepted", tc.name)
			} else if !errors.Is(err, ErrBadSpec) {
				t.Errorf("%s: err = %v, want ErrBadSpec", tc.name, err)
			}
		}
	}
}

func TestHTTPStatusTable(t *testing.T) {
	cases := []struct {
		err  error
		want int
	}{
		{nil, http.StatusOK},
		{ErrQueueFull, http.StatusTooManyRequests},
		{ErrQuotaExceeded, http.StatusTooManyRequests},
		{ErrDeadlineExceeded, http.StatusGatewayTimeout},
		{ErrDraining, http.StatusServiceUnavailable},
		{ErrBadSpec, http.StatusBadRequest},
		{ErrUnknownJob, http.StatusNotFound},
		// Wrapped sentinels map the same way: the table is errors.Is-based.
		{fmt.Errorf("%w (depth 16)", ErrQueueFull), http.StatusTooManyRequests},
		{fmt.Errorf("%w: no such workload", ErrBadSpec), http.StatusBadRequest},
		{errors.New("unclassified"), http.StatusInternalServerError},
	}
	for _, tc := range cases {
		if got := HTTPStatus(tc.err); got != tc.want {
			t.Errorf("HTTPStatus(%v) = %d, want %d", tc.err, got, tc.want)
		}
	}
}
