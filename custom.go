package vax780

import (
	"sort"

	"vax780/internal/analysis"
	"vax780/internal/machine"
	"vax780/internal/workload"
)

// CustomWorkload defines a user workload by scaling the calibrated
// composite profile — running your own experiment under the paper's
// measurement methodology.
type CustomWorkload struct {
	Name  string
	Seed  int64
	Users int

	// Content multipliers; zero means unchanged.
	FloatScale   float64
	CharScale    float64
	DecimalScale float64
	ProcScale    float64
	SyscallScale float64
	LoopScale    float64

	// IdleFraction injects the VMS Null process (branch-to-self) the
	// paper deliberately excluded; see RunCustom's doc.
	IdleFraction float64

	// Locality overrides; zero means the calibrated defaults.
	HotPages  int
	ColdPages int
	ColdFrac  float64

	// Event headway overrides; zero means the Table 7 values.
	InterruptHeadway int
	CtxSwitchHeadway int
}

// RunCustom measures a custom workload on the stock 11/780 and returns
// the same Results as Run. Note the paper's warning about idle time
// (§2.2): with IdleFraction > 0 the Null process floods the
// per-instruction statistics — CPI drops toward the cost of a
// branch-to-self and every frequency is diluted — which is exactly why
// the paper excluded it.
func RunCustom(cw CustomWorkload, instructions int) (*Results, error) {
	cfg := RunConfig{Instructions: instructions}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	p := workload.Custom(workload.CustomConfig{
		Name:             cw.Name,
		Seed:             cw.Seed,
		Instructions:     instructions,
		Users:            cw.Users,
		FloatScale:       cw.FloatScale,
		CharScale:        cw.CharScale,
		DecimalScale:     cw.DecimalScale,
		ProcScale:        cw.ProcScale,
		SyscallScale:     cw.SyscallScale,
		LoopScale:        cw.LoopScale,
		IdleFraction:     cw.IdleFraction,
		HotPages:         cw.HotPages,
		ColdPages:        cw.ColdPages,
		ColdFrac:         cw.ColdFrac,
		InterruptHeadway: cw.InterruptHeadway,
		CtxSwitchHeadway: cw.CtxSwitchHeadway,
	})
	cfg.fill()
	tr, err := workload.Generate(p)
	if err != nil {
		return nil, err
	}
	one, err := runOne(tr, cfg, nil, nil, nil, nil)
	if err != nil {
		return nil, err
	}
	hw := analysis.HWCounters{Mem: one.machine.Mem.Stats, IBConsumed: one.machine.IB.Consumed}
	res := &Results{
		cfg:      cfg,
		analysis: analysis.New(machine.ROM(), one.hist).WithHardwareCounters(hw),
		hist:     one.hist,
		describe: one.machine.Describe(),
	}
	res.PerWorkload = []WorkloadResult{{
		Workload:     NumWorkloads, // custom: outside the five
		Instructions: one.machine.Stats.Instrs,
		Cycles:       one.machine.E.Now,
		CPI:          one.machine.CPI(),
	}}
	return res, nil
}

// HotSpot is one ranked control-store location.
type HotSpot struct {
	Addr    uint16
	Label   string // nearest preceding flow label
	Region  string
	Cycles  uint64 // total (normal + stalled)
	Stalled uint64
}

// HotSpots ranks the busiest control-store locations of a composite run,
// resolved to their flow labels — the "additional interpretation of the
// raw histogram data" workflow of §2.2.
func (r *Results) HotSpots(n int) []HotSpot {
	img := machine.ROM().Image
	h := r.hist
	var all []HotSpot
	lastLabel := ""
	for addr := 0; addr < img.Size(); addr++ {
		mi := img.At(uint16(addr))
		if mi.Label != "" {
			lastLabel = mi.Label
		}
		norm, stall := h.At(uint16(addr))
		if norm+stall == 0 {
			continue
		}
		all = append(all, HotSpot{
			Addr:    uint16(addr),
			Label:   lastLabel,
			Region:  mi.Region.String(),
			Cycles:  norm + stall,
			Stalled: stall,
		})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Cycles > all[j].Cycles })
	if n > 0 && n < len(all) {
		all = all[:n]
	}
	return all
}
