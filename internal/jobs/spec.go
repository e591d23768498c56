package jobs

// The job spec: the wire-format description of one measurement job —
// a single composite run or a design-point sweep — and its reduction
// to the content-address the result cache is keyed by.

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"

	"vax780"
)

// Spec describes one submission. The zero value runs the paper's
// composite (all five workloads at the default length) on the stock
// 11/780 configuration. Fields mirror vax780.RunConfig's measurement
// identity; service-level fields (Tenant, DeadlineMS) and the sweep
// fan-out (Points) ride alongside.
type Spec struct {
	// Workloads by name (as vax780.WorkloadID.String prints them);
	// empty means all five, the paper's composite.
	Workloads []string `json:"workloads,omitempty"`

	// Instructions per workload (0 = the default 50,000).
	Instructions int `json:"instructions,omitempty"`

	// Hardware overrides; zero values select the 11/780 parameters.
	CacheBytes       int  `json:"cache_bytes,omitempty"`
	CacheWays        int  `json:"cache_ways,omitempty"`
	TBEntries        int  `json:"tb_entries,omitempty"`
	MissLatency      int  `json:"miss_latency,omitempty"`
	WriteBusy        int  `json:"write_busy,omitempty"`
	CtxSwitchHeadway int  `json:"ctx_switch_headway,omitempty"`
	OverlapDecode    bool `json:"overlap_decode,omitempty"`

	// Fault plan (all zero: no plan attached). These are part of the
	// measurement identity — they change the produced bytes — so they
	// extend the cache key beyond the checkpoint hash, which excludes
	// them.
	FaultSeed        uint64  `json:"fault_seed,omitempty"`
	FaultUPCDrop     float64 `json:"fault_upc_drop,omitempty"`
	FaultUPCFlip     float64 `json:"fault_upc_flip,omitempty"`
	FaultUPCSaturate float64 `json:"fault_upc_saturate,omitempty"`
	FaultCSRGlitch   float64 `json:"fault_csr_glitch,omitempty"`
	FaultMemParity   float64 `json:"fault_mem_parity,omitempty"`
	FaultIBDrop      float64 `json:"fault_ib_drop,omitempty"`
	FaultMachCheck   float64 `json:"fault_machine_check,omitempty"`

	// Points, when non-empty, makes this a sweep job: each point is the
	// base spec with the point's overrides applied, run through
	// vax780.SweepContext. Sweep jobs have no checkpoint (sweep points
	// cannot carry one), so a drained or crashed sweep restarts from
	// scratch on requeue.
	Points []Point `json:"points,omitempty"`

	// Tenant is the quota identity of the submitter ("" = the default
	// tenant). Not part of the cache key: two tenants submitting the
	// same measurement share its result.
	Tenant string `json:"tenant,omitempty"`

	// DeadlineMS bounds one attempt's wall-clock run time in
	// milliseconds (0 = none). A job that overruns is stopped at the
	// next workload boundary and marked timed-out. Not part of the
	// cache key.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`

	// Parallelism caps the run's worker pool (0 = one worker per CPU).
	// Parallel and sequential runs are bit-exact, so this is purely a
	// scheduling hint and — like RunConfig.ConfigHash, which excludes
	// it — not part of the cache key. It also sets the drain window:
	// cancellation lands at workload boundaries, and workloads already
	// executing when a drain starts run to completion.
	Parallelism int `json:"parallelism,omitempty"`
}

// Point is one design point of a sweep job: the base spec's hardware
// and workload fields with these overrides applied. Zero fields keep
// the base value, matching the RunConfig convention.
type Point struct {
	Label string `json:"label"`

	CacheBytes       int `json:"cache_bytes,omitempty"`
	CacheWays        int `json:"cache_ways,omitempty"`
	TBEntries        int `json:"tb_entries,omitempty"`
	MissLatency      int `json:"miss_latency,omitempty"`
	WriteBusy        int `json:"write_busy,omitempty"`
	CtxSwitchHeadway int `json:"ctx_switch_headway,omitempty"`
}

// IsSweep reports whether the spec fans out over design points.
func (s *Spec) IsSweep() bool { return len(s.Points) > 0 }

// workloadIDs resolves the spec's workload names.
func (s *Spec) workloadIDs() ([]vax780.WorkloadID, error) {
	if len(s.Workloads) == 0 {
		return nil, nil // RunConfig default: all five
	}
	ids := make([]vax780.WorkloadID, len(s.Workloads))
	for i, name := range s.Workloads {
		id, err := vax780.WorkloadByName(name)
		if err != nil {
			return nil, err
		}
		ids[i] = id
	}
	return ids, nil
}

// faultConfig builds the spec's fault plan, nil when no rate is set.
func (s *Spec) faultConfig() *vax780.FaultConfig {
	if s.FaultUPCDrop == 0 && s.FaultUPCFlip == 0 && s.FaultUPCSaturate == 0 &&
		s.FaultCSRGlitch == 0 && s.FaultMemParity == 0 && s.FaultIBDrop == 0 &&
		s.FaultMachCheck == 0 && s.FaultSeed == 0 {
		return nil
	}
	return &vax780.FaultConfig{
		Seed:         s.FaultSeed,
		UPCDrop:      s.FaultUPCDrop,
		UPCFlip:      s.FaultUPCFlip,
		UPCSaturate:  s.FaultUPCSaturate,
		CSRGlitch:    s.FaultCSRGlitch,
		MemParity:    s.FaultMemParity,
		IBDrop:       s.FaultIBDrop,
		MachineCheck: s.FaultMachCheck,
	}
}

// runConfig builds the run configuration of a non-sweep spec (service
// fields like Checkpoint, Ledger, and Events are the manager's to set).
func (s *Spec) runConfig() (vax780.RunConfig, error) {
	ids, err := s.workloadIDs()
	if err != nil {
		return vax780.RunConfig{}, fmt.Errorf("%w: %v", ErrBadSpec, err)
	}
	return vax780.RunConfig{
		Instructions:     s.Instructions,
		Workloads:        ids,
		CacheBytes:       s.CacheBytes,
		CacheWays:        s.CacheWays,
		TBEntries:        s.TBEntries,
		MissLatency:      s.MissLatency,
		WriteBusy:        s.WriteBusy,
		CtxSwitchHeadway: s.CtxSwitchHeadway,
		OverlapDecode:    s.OverlapDecode,
		Parallelism:      s.Parallelism,
		Faults:           s.faultConfig(),
	}, nil
}

// pointConfig builds one design point's run configuration.
func (s *Spec) pointConfig(p Point) (vax780.RunConfig, error) {
	cfg, err := s.runConfig()
	if err != nil {
		return cfg, err
	}
	if p.CacheBytes != 0 {
		cfg.CacheBytes = p.CacheBytes
	}
	if p.CacheWays != 0 {
		cfg.CacheWays = p.CacheWays
	}
	if p.TBEntries != 0 {
		cfg.TBEntries = p.TBEntries
	}
	if p.MissLatency != 0 {
		cfg.MissLatency = p.MissLatency
	}
	if p.WriteBusy != 0 {
		cfg.WriteBusy = p.WriteBusy
	}
	if p.CtxSwitchHeadway != 0 {
		cfg.CtxSwitchHeadway = p.CtxSwitchHeadway
	}
	return cfg, nil
}

// sweepPoints builds the vax780.SweepPoint list of a sweep spec.
func (s *Spec) sweepPoints() ([]vax780.SweepPoint, error) {
	pts := make([]vax780.SweepPoint, len(s.Points))
	for i, p := range s.Points {
		if p.Label == "" {
			return nil, fmt.Errorf("%w: point %d has no label", ErrBadSpec, i)
		}
		cfg, err := s.pointConfig(p)
		if err != nil {
			return nil, err
		}
		pts[i] = vax780.SweepPoint{Label: p.Label, Config: cfg}
	}
	return pts, nil
}

// Validate rejects specs that cannot be run. It is the one place a
// spec's shape is checked; Submit calls it before admission.
func (s *Spec) Validate() error {
	if s.Instructions < 0 {
		return fmt.Errorf("%w: negative instructions", ErrBadSpec)
	}
	if s.DeadlineMS < 0 {
		return fmt.Errorf("%w: negative deadline", ErrBadSpec)
	}
	if s.Parallelism < 0 {
		return fmt.Errorf("%w: negative parallelism", ErrBadSpec)
	}
	cfg, err := s.runConfig()
	if err != nil {
		return err
	}
	if err := cfg.Validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrBadSpec, err)
	}
	if !s.IsSweep() {
		return nil
	}
	pts, err := s.sweepPoints()
	if err != nil {
		return err
	}
	for _, pt := range pts {
		if err := pt.Config.Validate(); err != nil {
			return fmt.Errorf("%w: point %q: %v", ErrBadSpec, pt.Label, err)
		}
	}
	return nil
}

// Key returns the spec's content address: a 16-hex-digit rendering of
// the measurement identity. It starts from the run's checkpoint hash
// (vax780.RunConfig.ConfigHash — instructions, workloads, hardware
// parameters) and extends it with the fault-plan identity, which the
// checkpoint hash deliberately excludes but which changes the measured
// bytes. Sweep keys fold every point's hash in point order, so
// reordering points is a different measurement (the bundle's tables are
// ordered). Tenant and deadline do not enter the key.
func (s *Spec) Key() (string, error) {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	hashCfg := func(cfg vax780.RunConfig) {
		put(cfg.ConfigHash())
	}
	// Fault identity, in fixed field order.
	put(s.FaultSeed)
	for _, rate := range []float64{
		s.FaultUPCDrop, s.FaultUPCFlip, s.FaultUPCSaturate,
		s.FaultCSRGlitch, s.FaultMemParity, s.FaultIBDrop, s.FaultMachCheck,
	} {
		put(math.Float64bits(rate))
	}
	if s.IsSweep() {
		pts, err := s.sweepPoints()
		if err != nil {
			return "", err
		}
		put(uint64(len(pts)))
		for _, pt := range pts {
			put(uint64(len(pt.Label)))
			h.Write([]byte(pt.Label))
			hashCfg(pt.Config)
		}
	} else {
		cfg, err := s.runConfig()
		if err != nil {
			return "", err
		}
		hashCfg(cfg)
	}
	return fmt.Sprintf("%016x", h.Sum64()), nil
}
