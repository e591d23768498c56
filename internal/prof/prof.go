// Package prof is the host-time attribution layer: it maps wall-clock
// nanoseconds spent simulating onto the simulator's micro-architectural
// structure — control-store flows, regions, and the Table 8 cycle
// classes — the same way the paper maps the 780's elapsed time onto its
// microcode with the UPC histogram board. Where the board answers
// "where do the *simulated* cycles go", this package answers "where
// does the *simulator's own* time go".
//
// One engine prices host time: the board engine (Board) takes one
// measured histogram — a workload's own board counts, exact across -j —
// and spreads the measured wall time of the run over flows by their
// share of cycles. It adds nothing to the cycle loop: the board already
// counts every cycle. Exact is the same attribution unpriced (cycles,
// shares, Table 8 class splits) for a histogram with no wall time of
// its own, such as a run's composite.
//
// Both classify through ulint's flow index, so profiling and the
// static analyzer cannot disagree about flow boundaries.
package prof

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"vax780/internal/analysis"
	"vax780/internal/paper"
	"vax780/internal/ulint"
	"vax780/internal/upc"
	"vax780/internal/urom"
)

// FlowCost is one flow's attributed cost.
type FlowCost struct {
	Name  string `json:"name"`
	Entry uint16 `json:"entry"`

	// Cycles attributed to the flow: its exact bucket counts.
	Cycles uint64 `json:"cycles"`

	// ClassCycles splits Cycles over the six Table 8 cycle classes.
	ClassCycles [paper.NumT8Cols]uint64 `json:"class_cycles"`

	// Share is Cycles over the profile's total (including unattributed).
	Share float64 `json:"share"`

	// Ns estimates the host nanoseconds the flow cost: its share of the
	// measured wall time (board engine). Zero when unpriced.
	Ns float64 `json:"ns,omitempty"`
}

// Profile is the report format of Board and Exact.
type Profile struct {
	// Engine is "exact" or "board".
	Engine string `json:"engine"`

	// TotalCycles counts every cycle the input histogram holds,
	// attributed or not.
	TotalCycles uint64 `json:"total_cycles"`

	// Unattributed counts cycles on words no flow owns.
	Unattributed uint64 `json:"unattributed,omitempty"`

	// WallNs is the measured wall time of the profiled run, when the
	// caller had one; TotalNs is the sum of attributed flow ns, which
	// the board engine makes WallNs by construction.
	WallNs  float64 `json:"wall_ns,omitempty"`
	TotalNs float64 `json:"total_ns,omitempty"`

	// Flows holds every flow with attributed cycles, hottest first
	// (ties broken by entry address, so the order is deterministic).
	Flows []FlowCost `json:"flows"`
}

// Top returns the n hottest flows (all of them when n <= 0 or exceeds
// the count).
func (p *Profile) Top(n int) []FlowCost {
	if n <= 0 || n > len(p.Flows) {
		n = len(p.Flows)
	}
	return p.Flows[:n]
}

// WriteJSON marshals the profile, indented, with a trailing newline.
func (p *Profile) WriteJSON(w io.Writer) error {
	data, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// ReadProfile unmarshals a profile written by WriteJSON.
func ReadProfile(r io.Reader) (*Profile, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	var p Profile
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, fmt.Errorf("prof: parsing profile: %w", err)
	}
	return &p, nil
}

// Table renders the top-n hot-flow table.
func (p *Profile) Table(n int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "hot flows (%s engine)\n", p.Engine)
	fmt.Fprintf(&b, "%4s  %-22s %6s  %12s %7s  %12s\n",
		"#", "flow", "entry", "cycles", "share", "est host ns")
	for i, f := range p.Top(n) {
		ns := "-"
		if f.Ns > 0 {
			ns = fmt.Sprintf("%12.0f", f.Ns)
		}
		fmt.Fprintf(&b, "%4d  %-22s %06o  %12d %6.2f%%  %12s\n",
			i+1, f.Name, f.Entry, f.Cycles, 100*f.Share, ns)
	}
	if p.Unattributed > 0 {
		fmt.Fprintf(&b, "      %-22s %6s  %12d %6.2f%%\n", "(unattributed)", "",
			p.Unattributed, 100*float64(p.Unattributed)/float64(p.TotalCycles))
	}
	if p.TotalNs > 0 {
		fmt.Fprintf(&b, "total attributed: %.3f ms", p.TotalNs/1e6)
		if p.WallNs > 0 {
			fmt.Fprintf(&b, "  measured wall: %.3f ms  (attributed/wall = %.1f%%)",
				p.WallNs/1e6, 100*p.TotalNs/p.WallNs)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// attribute is the classification walk Board and Exact share: assign
// every bucket of h to its owning flow and Table 8 class.
// Flows come out hottest first.
func attribute(rom *urom.ROM, ix *ulint.FlowIndex, h *upc.Histogram) *Profile {
	flows := ix.Flows()
	costs := make([]FlowCost, len(flows))
	for i, f := range flows {
		costs[i].Name = f.Name
		costs[i].Entry = f.Entry
	}
	p := &Profile{}
	limit := rom.Image.Size()
	if limit > upc.Buckets {
		limit = upc.Buckets
	}
	for addr := 0; addr < limit; addr++ {
		normal, stalled := h.At(uint16(addr))
		if normal == 0 && stalled == 0 {
			continue
		}
		p.TotalCycles += normal + stalled
		fi, owned := ix.FlowOf(uint16(addr))
		if !owned {
			p.Unattributed += normal + stalled
			continue
		}
		c := &costs[fi]
		c.Cycles += normal + stalled
		mi := rom.Image.At(uint16(addr))
		if n := normal; n > 0 {
			if _, col, ok := analysis.BucketCell(mi, false); ok {
				c.ClassCycles[col] += n
			}
		}
		if n := stalled; n > 0 {
			if _, col, ok := analysis.BucketCell(mi, true); ok {
				c.ClassCycles[col] += n
			}
		}
	}
	for _, c := range costs {
		if c.Cycles == 0 {
			continue
		}
		if p.TotalCycles > 0 {
			c.Share = float64(c.Cycles) / float64(p.TotalCycles)
		}
		p.Flows = append(p.Flows, c)
	}
	sort.Slice(p.Flows, func(i, j int) bool {
		if p.Flows[i].Cycles != p.Flows[j].Cycles {
			return p.Flows[i].Cycles > p.Flows[j].Cycles
		}
		return p.Flows[i].Entry < p.Flows[j].Entry
	})
	return p
}

// Exact attributes a histogram to flows without pricing it: cycles,
// shares and class splits only. The input histogram is bit-exact across
// -j and the flow index is a fixed input, so the profile is
// deterministic.
func Exact(rom *urom.ROM, ix *ulint.FlowIndex, h *upc.Histogram) *Profile {
	p := attribute(rom, ix, h)
	p.Engine = "exact"
	return p
}

// Board runs the board engine over one measured histogram: the flows
// are attributed exactly as Exact attributes them, and the measured
// wall time (when wallNs > 0) is distributed over the flows by their
// share of cycles.
func Board(rom *urom.ROM, ix *ulint.FlowIndex, h *upc.Histogram, wallNs float64) *Profile {
	p := attribute(rom, ix, h)
	p.Engine = "board"
	p.WallNs = wallNs
	if wallNs > 0 {
		for i := range p.Flows {
			p.Flows[i].Ns = p.Flows[i].Share * wallNs
			p.TotalNs += p.Flows[i].Ns
		}
	}
	return p
}
