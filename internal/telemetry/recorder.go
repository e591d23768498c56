// The interval recorder: the extension the paper's §2.2 names as a
// limitation of its averages-only reduction ("no measures of the
// variation of the statistics during the measurement are collected").
// Every N cycles it snapshots the UPC histogram and the hardware event
// counters, producing a time series of per-interval CPI decompositions.

package telemetry

import (
	"encoding/json"
	"fmt"
	"io"

	"vax780/internal/analysis"
	"vax780/internal/mem"
	"vax780/internal/paper"
	"vax780/internal/upc"
	"vax780/internal/vax"
)

// Interval is one recorded measurement interval: the histogram and
// hardware-counter deltas accumulated between two snapshots.
type Interval struct {
	StartCycle uint64 // absolute telemetry cycle, inclusive
	EndCycle   uint64 // exclusive
	Hist       *upc.Histogram
	Stats      mem.Stats
	Instrs     uint64 // decode events in the interval
}

// Recorder snapshots the bound monitor and memory counters on a fixed
// cycle period. It lives entirely on the simulation goroutine; the
// recorded series is read after the run (or through published board
// snapshots while it executes).
type Recorder struct {
	period uint64
	nextAt uint64
	start  uint64 // current interval start (absolute cycle)

	mon   *upc.Monitor
	stats *mem.Stats

	prevHist   *upc.Histogram
	prevStats  mem.Stats
	prevInstrs uint64

	intervals []Interval
}

func newRecorder(period uint64) *Recorder {
	return &Recorder{period: period, nextAt: period}
}

// rebind points the recorder at a fresh machine's monitor and counters;
// the previous machine's partial interval must already be flushed.
func (r *Recorder) rebind(mon *upc.Monitor, stats *mem.Stats, abs uint64) {
	r.mon = mon
	r.stats = stats
	r.prevHist = &upc.Histogram{}
	r.prevStats = mem.Stats{}
	r.start = abs
	r.nextAt = abs + r.period
}

// cycle rolls an interval when the period elapses with machine cycle
// now (absolute cycle abs). The counts are published as of the end of
// that cycle first, as at every roll.
func (r *Recorder) cycle(t *Telemetry, now, abs uint64) {
	if abs+1 >= r.nextAt {
		t.publishCounts(now + 1)
		r.roll(t, abs+1)
		r.nextAt += r.period
	}
}

// flush closes a trailing partial interval (end of a machine or run).
func (r *Recorder) flush(t *Telemetry, abs uint64) {
	if r.mon != nil && abs > r.start {
		r.roll(t, abs)
	}
}

// roll records the delta since the previous snapshot as one interval
// ending at absolute cycle end (exclusive).
func (r *Recorder) roll(t *Telemetry, end uint64) {
	if r.mon == nil || end <= r.start {
		return
	}
	var delta *upc.Histogram
	watched := t.watched.Load()
	if watched {
		// An HTTP view is attached: dump the full board once and derive
		// the interval delta from it, so the dump can be published as an
		// immutable snapshot.
		cur := r.mon.Snapshot()
		delta = cur.Diff(r.prevHist)
		r.prevHist = cur
	} else {
		// Headless: one fused pass computes the delta and advances the
		// previous-counts buffer in place; nothing is published because
		// nothing can read it. end bounds the pulses delivered since the
		// board was cleared, letting the dump skip the saturation scan.
		delta = r.mon.SnapshotDelta(r.prevHist, end)
	}

	// Stats delta: subtract the previous snapshot from a copy of the
	// live counters (Stats.Add is the inverse used when compositing).
	st := *r.stats
	st.Sub(&r.prevStats)

	instrs := t.C.Instrs.Load()
	r.intervals = append(r.intervals, Interval{
		StartCycle: r.start,
		EndCycle:   end,
		Hist:       delta,
		Stats:      st,
		Instrs:     instrs - r.prevInstrs,
	})
	r.prevStats = *r.stats
	r.prevInstrs = instrs
	r.start = end
	t.C.Intervals.Add(1)
	if watched {
		// Publish the snapshot already taken for the delta instead of
		// dumping the board a second time.
		t.publishHist(end, r.prevHist)
	}
}

// absorb appends a finished child recorder's intervals, shifted onto
// the parent timeline. The shift is exact: interval boundaries are
// integer cycles, and the child recorded from cycle 0 with the same
// period, so its boundaries land where a sequential recorder (rebound
// at the shift) would have rolled.
func (r *Recorder) absorb(child *Recorder, shift uint64) {
	for _, iv := range child.intervals {
		iv.StartCycle += shift
		iv.EndCycle += shift
		r.intervals = append(r.intervals, iv)
	}
}

// Intervals returns the recorded series. Only valid once the run has
// finished (after Telemetry.Finish).
func (r *Recorder) Intervals() []Interval { return r.intervals }

// TotalCycles sums every interval's histogram cycles; on an uncleared
// monitor this equals the final composite histogram's total cycles.
func (r *Recorder) TotalCycles() uint64 {
	var n uint64
	for _, iv := range r.intervals {
		n += iv.Hist.TotalCycles()
	}
	return n
}

// CompositeStats sums the per-interval hardware-counter deltas back
// into run totals, reusing the mem.Stats accumulation the composite
// reduction uses.
func (r *Recorder) CompositeStats() mem.Stats {
	var st mem.Stats
	for i := range r.intervals {
		st.Add(&r.intervals[i].Stats)
	}
	return st
}

// IntervalRow is one exported row of the time series: the interval's
// identity, its CPI decomposition by cycle class, and the hardware
// event deltas.
type IntervalRow struct {
	Index        int     `json:"index"`
	StartCycle   uint64  `json:"start_cycle"`
	EndCycle     uint64  `json:"end_cycle"`
	Instructions uint64  `json:"instructions"`
	Cycles       uint64  `json:"cycles"`
	CPI          float64 `json:"cpi"`

	// Cycles per instruction by cycle class (Table 8 columns).
	Compute    float64 `json:"compute"`
	Read       float64 `json:"read"`
	ReadStall  float64 `json:"read_stall"`
	Write      float64 `json:"write"`
	WriteStall float64 `json:"write_stall"`
	IBStall    float64 `json:"ib_stall"`

	SimplePct float64 `json:"simple_pct"`

	// Hardware event deltas.
	CacheMissD uint64 `json:"cache_miss_d"`
	CacheMissI uint64 `json:"cache_miss_i"`
	TBMissD    uint64 `json:"tb_miss_d"`
	TBMissI    uint64 `json:"tb_miss_i"`
}

// Rows reduces the recorded series into exportable rows: each
// interval's histogram delta gets its own Table 8 column totals, so
// the per-class columns sum to the row's CPI.
func (t *Telemetry) Rows() []IntervalRow {
	t.Finish()
	if t.rec == nil || t.rom == nil {
		return nil
	}
	ivs := t.rec.intervals
	rows := make([]IntervalRow, len(ivs))
	for i := range ivs {
		a := analysis.New(t.rom, ivs[i].Hist)
		perClass := a.CPIMatrix().ColTotals
		r := IntervalRow{
			Index:        i,
			StartCycle:   ivs[i].StartCycle,
			EndCycle:     ivs[i].EndCycle,
			Instructions: a.Instructions(),
			Cycles:       ivs[i].Hist.TotalCycles(),
			Compute:      perClass[paper.T8Compute],
			Read:         perClass[paper.T8Read],
			ReadStall:    perClass[paper.T8RStall],
			Write:        perClass[paper.T8Write],
			WriteStall:   perClass[paper.T8WStall],
			IBStall:      perClass[paper.T8IBStall],
			CacheMissD:   ivs[i].Stats.DReadMisses,
			CacheMissI:   ivs[i].Stats.IReadMisses,
			TBMissD:      ivs[i].Stats.DTBMisses,
			TBMissI:      ivs[i].Stats.ITBMisses,
		}
		if r.Instructions > 0 {
			r.CPI = float64(r.Cycles) / float64(r.Instructions)
		}
		for _, g := range a.OpcodeGroups() {
			if g.Group == vax.GroupSimple {
				r.SimplePct = g.Percent
			}
		}
		rows[i] = r
	}
	return rows
}

// WriteIntervalsCSV writes the time series as CSV.
func (t *Telemetry) WriteIntervalsCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "interval,start_cycle,end_cycle,instructions,cycles,cpi,"+
		"compute,read,read_stall,write,write_stall,ib_stall,simple_pct,"+
		"cache_miss_d,cache_miss_i,tb_miss_d,tb_miss_i"); err != nil {
		return err
	}
	for _, r := range t.Rows() {
		_, err := fmt.Fprintf(w, "%d,%d,%d,%d,%d,%.4f,%.4f,%.4f,%.4f,%.4f,%.4f,%.4f,%.2f,%d,%d,%d,%d\n",
			r.Index, r.StartCycle, r.EndCycle, r.Instructions, r.Cycles, r.CPI,
			r.Compute, r.Read, r.ReadStall, r.Write, r.WriteStall, r.IBStall,
			r.SimplePct, r.CacheMissD, r.CacheMissI, r.TBMissD, r.TBMissI)
		if err != nil {
			return err
		}
	}
	return nil
}

// WriteIntervalsJSON writes the time series as a JSON array.
func (t *Telemetry) WriteIntervalsJSON(w io.Writer) error {
	rows := t.Rows()
	if rows == nil {
		rows = []IntervalRow{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rows)
}
