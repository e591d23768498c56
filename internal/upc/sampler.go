package upc

// The profiling sampler: the host-time half of the board's observation
// point. Every stride-th EBOX cycle it counts the current micro-PC into
// a bucket array shaped exactly like the Monitor's (normal and stalled
// sets), so a sampled run yields a scaled-down histogram the profiler
// can classify through the same flow and Table 8 machinery as the exact
// counts. Sampling is cycle-driven, not timer-driven: the sample set is
// a pure function of the deterministic cycle stream and the stride, so
// sampled profiles are bit-exact across runs and across -j. Like every
// hook in this repository the sampler is nil on an unprofiled machine,
// and the disabled cost at the EBOX call site is one pointer test per
// cycle.

// DefaultSampleStride is the sampling period used when a profiler
// enables sampling without choosing one: one sample per 64 cycles keeps
// the enabled overhead near the noise floor while a 50k-instruction
// workload (~900k cycles) still lands ~14k samples.
const DefaultSampleStride = 64

// Sampler counts every stride-th cycle's micro-PC. Sample is on the
// per-cycle hot path (a golint hot target): it must not allocate, and
// the common case — the countdown miss — is one decrement and one
// branch.
type Sampler struct {
	counts []uint64 // 2*Buckets: normal set, then stalled set
	left   uint32   // cycles until the next sample
	stride uint32
	taken  uint64 // total samples counted
}

// NewSampler builds a sampler with the given period (stride <= 0
// selects the default).
func NewSampler(stride int) *Sampler {
	if stride <= 0 {
		stride = DefaultSampleStride
	}
	return &Sampler{
		counts: make([]uint64, 2*Buckets),
		left:   uint32(stride),
		stride: uint32(stride),
	}
}

// Sample observes one cycle, counting every stride-th one.
func (s *Sampler) Sample(addr uint16, stalled bool) {
	s.left--
	if s.left != 0 {
		return
	}
	s.left = s.stride
	i := uint32(addr) & (Buckets - 1)
	if stalled {
		i += Buckets
	}
	s.counts[i]++
	s.taken++
}

// Stride returns the sampling period in cycles.
func (s *Sampler) Stride() int { return int(s.stride) }

// Taken returns the number of samples counted so far. Nil-safe.
func (s *Sampler) Taken() uint64 {
	if s == nil {
		return 0
	}
	return s.taken
}

// Reset clears the sample counts and restarts the countdown (the
// supervisor resets it between retry attempts so a snapshot never mixes
// two attempts' samples). Nil-safe.
func (s *Sampler) Reset() {
	if s == nil {
		return
	}
	for i := range s.counts {
		s.counts[i] = 0
	}
	s.left = s.stride
	s.taken = 0
}

// Snapshot copies the sample counts into a Histogram — the same shape
// the Monitor produces, scaled down by the stride — so every consumer
// of exact histograms (flow attribution, Table 8 classification) reads
// sampled ones unchanged. Nil-safe (returns nil).
func (s *Sampler) Snapshot() *Histogram {
	if s == nil {
		return nil
	}
	h := &Histogram{}
	copy(h.Normal[:], s.counts[:Buckets])
	copy(h.Stalled[:], s.counts[Buckets:])
	return h
}
