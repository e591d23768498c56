// Degradation-aware reduction. A real histogram board on a live Unibus
// can saturate counters, suffer RAM corruption, and drop count pulses;
// the reduction below detects what is detectable from the dump itself,
// excludes damaged buckets from every table, and quantifies what the
// surviving data covers so each table can carry a confidence
// annotation. On a healthy histogram nothing is excluded and every
// number is bit-identical to the quality-unaware reduction.
package analysis

import (
	"fmt"
	"sort"

	"vax780/internal/ucode"
	"vax780/internal/upc"
)

// IssueKind classifies one detected bucket problem.
type IssueKind int

// Detectable bucket damage.
const (
	// IssueSaturated: the counter sits exactly at its architectural
	// capacity — a lower bound, not a count.
	IssueSaturated IssueKind = iota
	// IssueCorrupt: the counter holds a physically impossible value
	// (above capacity, or a stall count at a location that never
	// stalls) — bit corruption in the board RAM or the dump.
	IssueCorrupt
	// IssuePhantom: a count at an address outside the assembled
	// control store, which no micro-PC could have produced.
	IssuePhantom
)

func (k IssueKind) String() string {
	switch k {
	case IssueSaturated:
		return "saturated"
	case IssueCorrupt:
		return "corrupt"
	case IssuePhantom:
		return "phantom"
	}
	return fmt.Sprintf("IssueKind(%d)", int(k))
}

// BucketIssue is one damaged (addr, count-set) pair.
type BucketIssue struct {
	Addr    uint16
	Stalled bool // which of the two count sets
	Kind    IssueKind
	Count   uint64 // the damaged raw value
}

// Quality summarizes the health of a histogram and what the reduction
// excluded because of it.
type Quality struct {
	// Per-kind damaged-bucket-set counts.
	Saturated, Corrupt, Phantom int

	// ExcludedCycles is the total count in excluded buckets (using the
	// damaged raw values, so it is itself an estimate for corrupt
	// buckets).
	ExcludedCycles uint64

	// HealthyCycles is the total count in buckets every table may use.
	HealthyCycles uint64

	// DroppedEstimate is a cross-check against the hardware stall
	// counters: stall cycles the memory subsystem recorded that the
	// histogram's stall sets do not hold (dropped count pulses). Zero
	// without hardware counters.
	DroppedEstimate uint64

	// InstrCountDegraded reports that the IRD bucket itself — the
	// normalizer of every per-instruction rate — is saturated or
	// corrupt, so every rate in every table is suspect.
	InstrCountDegraded bool

	// Issues lists the damaged buckets, ordered by address (capped at
	// maxIssues; the counts above are complete).
	Issues []BucketIssue
}

// maxIssues bounds the retained issue list; heavy corruption would
// otherwise make Quality itself enormous.
const maxIssues = 256

// Degraded reports whether any damage or loss was detected.
func (q *Quality) Degraded() bool {
	return q.Saturated+q.Corrupt+q.Phantom > 0 || q.DroppedEstimate > 0
}

// Confidence is the fraction of processor cycles the surviving buckets
// cover, in [0,1]: healthy / (healthy + excluded + dropped-estimate).
// A healthy histogram has confidence 1.
func (q *Quality) Confidence() float64 {
	total := q.HealthyCycles + q.ExcludedCycles + q.DroppedEstimate
	if total == 0 {
		return 1
	}
	return float64(q.HealthyCycles) / float64(total)
}

// Summary renders a one-line health statement.
func (q *Quality) Summary() string {
	if !q.Degraded() {
		return "histogram healthy: all buckets usable"
	}
	s := fmt.Sprintf("%d saturated, %d corrupt, %d phantom bucket set(s); "+
		"%d cycles excluded", q.Saturated, q.Corrupt, q.Phantom, q.ExcludedCycles)
	if q.DroppedEstimate > 0 {
		s += fmt.Sprintf("; ~%d counts dropped (hw cross-check)", q.DroppedEstimate)
	}
	s += fmt.Sprintf("; confidence %.1f%%", 100*q.Confidence())
	if q.InstrCountDegraded {
		s += "; WARNING: instruction-count bucket damaged, all rates suspect"
	}
	return s
}

// exclKey identifies one (addr, count-set) pair in the exclusion set.
func exclKey(addr uint16, stalled bool) uint32 {
	k := uint32(addr) << 1
	if stalled {
		k |= 1
	}
	return k
}

// scanQuality classifies every bucket of the histogram and builds the
// exclusion set. It returns a nil map for a healthy histogram, so the
// hot accessors keep their zero-cost fast path.
func (a *Analysis) scanQuality() {
	q := &Quality{}
	var excl map[uint32]bool
	exclude := func(addr uint16, stalled bool, kind IssueKind, c uint64) {
		if excl == nil {
			excl = make(map[uint32]bool)
		}
		excl[exclKey(addr, stalled)] = true
		q.ExcludedCycles += c
		switch kind {
		case IssueSaturated:
			q.Saturated++
		case IssueCorrupt:
			q.Corrupt++
		case IssuePhantom:
			q.Phantom++
		}
		if len(q.Issues) < maxIssues {
			q.Issues = append(q.Issues, BucketIssue{
				Addr: addr, Stalled: stalled, Kind: kind, Count: c,
			})
		}
	}

	img := a.rom.Image
	size := img.Size()
	for i := 0; i < upc.Buckets; i++ {
		addr := uint16(i)
		n, s := a.h.At(addr)
		if n == 0 && s == 0 {
			continue
		}
		if i >= size {
			// No micro-PC exists here: any count is phantom.
			if n > 0 {
				exclude(addr, false, IssuePhantom, n)
			}
			if s > 0 {
				exclude(addr, true, IssuePhantom, s)
			}
			continue
		}
		mi := img.At(addr)
		classify := func(stalled bool, c uint64) {
			switch {
			case c == 0:
				// healthy and empty
			case c > upc.CounterMax:
				exclude(addr, stalled, IssueCorrupt, c)
			case c == upc.CounterMax:
				exclude(addr, stalled, IssueSaturated, c)
			case stalled && mi.Mem == ucode.MemNone:
				// A location without a memory function never ticks the
				// stalled set; a count there is corruption.
				exclude(addr, stalled, IssueCorrupt, c)
			default:
				q.HealthyCycles += c
			}
		}
		classify(false, n)
		classify(true, s)
	}

	sort.Slice(q.Issues, func(i, j int) bool {
		if q.Issues[i].Addr != q.Issues[j].Addr {
			return q.Issues[i].Addr < q.Issues[j].Addr
		}
		return !q.Issues[i].Stalled && q.Issues[j].Stalled
	})
	if excl != nil {
		if excl[exclKey(a.rom.IRD, false)] {
			q.InstrCountDegraded = true
		}
	}
	a.quality, a.excl = q, excl
}

// crossCheckDropped estimates globally dropped count pulses by
// comparing the histogram's raw stall cycles against the memory
// subsystem's own stall counters (which a UPC fault cannot touch). The
// raw values are used — damaged buckets included — so the estimate
// covers only pulses that never landed anywhere and does not
// double-count cycles already charged to ExcludedCycles; corruption
// that inflates a stall bucket conservatively shrinks the estimate to
// zero. Called when hardware counters are attached.
func (a *Analysis) crossCheckDropped() {
	if a.hw == nil || a.quality == nil {
		return
	}
	var histStall uint64
	img := a.rom.Image
	for addr := 0; addr < img.Size(); addr++ {
		_, s := a.h.At(uint16(addr))
		histStall += s
	}
	hwStall := a.hw.Mem.ReadStall + a.hw.Mem.WriteStall
	if hwStall > histStall {
		a.quality.DroppedEstimate = hwStall - histStall
	}
}

// Quality returns the histogram health assessment driving the
// exclusions and confidence annotations.
func (a *Analysis) Quality() *Quality { return a.quality }

// Healthy returns the histogram as every table reads it: each excluded
// count set is zero. A healthy histogram comes back as is, uncopied.
func (a *Analysis) Healthy() *upc.Histogram {
	if a.excl == nil {
		return a.h
	}
	h := *a.h
	for k := range a.excl {
		if addr := k >> 1; k&1 != 0 {
			h.Stalled[addr] = 0
		} else {
			h.Normal[addr] = 0
		}
	}
	return &h
}

// at is the damage-aware bucket accessor every table uses: excluded
// count sets read as zero, so saturated or corrupt counters never leak
// into a reduced number. With no exclusions (the healthy fast path) it
// is h.At.
func (a *Analysis) at(addr uint16) (normal, stalled uint64) {
	normal, stalled = a.h.At(addr)
	if a.excl != nil {
		if a.excl[exclKey(addr, false)] {
			normal = 0
		}
		if a.excl[exclKey(addr, true)] {
			stalled = 0
		}
	}
	return normal, stalled
}
