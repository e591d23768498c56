// Package tracesim implements the baseline methodology the paper's
// introduction contrasts with: a trace-driven instruction timing model in
// the style of Peuto & Shustek (reference [12]). It walks an
// architectural instruction trace and charges each instruction its
// NOMINAL time — decode, specifier processing, and execution with ideal
// memory — exactly what a timing model built from the hardware manual can
// do.
//
// What it cannot see, by construction, is everything the UPC histogram
// method measures directly: cache read stalls, write-buffer stalls, IB
// stalls, TB miss service, alignment traps, and interrupt/overhead
// microcode. Comparing its estimate with the measured CPI quantifies the
// paper's methodological claim.
package tracesim

import (
	"fmt"

	"vax780/internal/ucode"
	"vax780/internal/urom"
	"vax780/internal/vax"
	"vax780/internal/workload"
)

// Model is the instruction timing model: a walker over the nominal
// microprogram with ideal (zero-stall) memory. Each memory reference
// costs its single issue cycle, every translation hits, and the IB never
// runs dry — the assumptions a manual-derived timing table encodes.
type Model struct {
	rom *urom.ROM
}

// NewModel builds the timing model from the machine's microprogram (the
// published per-instruction timings were derived from the same microcode
// listings).
func NewModel(rom *urom.ROM) *Model { return &Model{rom: rom} }

// Result is the trace-driven estimate for a trace.
type Result struct {
	Instructions uint64
	Cycles       uint64
	// SkippedEvents counts trace items (interrupt deliveries) the model
	// cannot account for: user-program timing models do not see them.
	SkippedEvents uint64
	// PerGroup is the estimated cycles spent per opcode group.
	PerGroup map[vax.Group]uint64
}

// CPI returns estimated cycles per instruction.
func (r *Result) CPI() float64 {
	if r.Instructions == 0 {
		return 0
	}
	return float64(r.Cycles) / float64(r.Instructions)
}

// EstimateTrace walks a trace and returns the nominal time estimate.
func (m *Model) EstimateTrace(items []workload.Item) (*Result, error) {
	res := &Result{PerGroup: make(map[vax.Group]uint64)}
	for i := range items {
		it := &items[i]
		if it.Kind != workload.KindInstr {
			res.SkippedEvents++
			continue
		}
		c, err := m.EstimateInstr(it.In)
		if err != nil {
			return nil, err
		}
		res.Instructions++
		res.Cycles += uint64(c)
		res.PerGroup[it.In.Info().Group] += uint64(c)
	}
	return res, nil
}

// EstimateInstr returns the nominal cycle count of one instruction:
// decode + specifiers + branch displacement + execution, ideal memory.
func (m *Model) EstimateInstr(in *vax.Instr) (int, error) {
	info := in.Info()
	cycles := 1 // the IRD decode cycle

	// Specifier flows.
	dstSpec := -1
	for i := range in.Specs {
		sp := &in.Specs[i]
		tmpl := info.Specs[i]
		pos := 1
		if i == 0 {
			pos = 0
		}
		variant := urom.VariantFor(tmpl.Access)
		entry := m.rom.SpecEntry[pos][sp.Mode][variant]
		n, err := m.walk(entry, in, -1)
		if err != nil {
			return 0, err
		}
		cycles += n
		if sp.Indexed() {
			cycles++ // index preamble cycle
		}
		if (tmpl.Access == vax.AccWrite || tmpl.Access == vax.AccModify) && sp.Mode.IsMemory() {
			dstSpec = i
		}
	}

	// Execute flow (with the literal/register optimization, as the
	// hardware manual documents it).
	entry := m.execEntry(in)
	n, err := m.walk(entry, in, dstSpec)
	if err != nil {
		return 0, err
	}
	cycles += n
	return cycles, nil
}

func (m *Model) execEntry(in *vax.Instr) uint16 {
	op := in.Op
	if in.SIRR && op == vax.MTPR {
		return m.rom.ExecEntrySIRR
	}
	info := in.Info()
	if m.rom.ExecEntryMem[op] != 0 {
		for i, t := range info.Specs {
			if t.Access == vax.AccVField && in.Specs[i].Mode.IsMemory() {
				return m.rom.ExecEntryMem[op]
			}
		}
	}
	if m.rom.ExecEntryOpt[op] != 0 && len(in.Specs) > 0 {
		last := in.Specs[len(in.Specs)-1].Mode
		if last == vax.ModeRegister || last == vax.ModeLiteral {
			return m.rom.ExecEntryOpt[op]
		}
	}
	return m.rom.ExecEntry[op]
}

// walk executes a flow symbolically with ideal memory, returning its
// cycle count. Data-dependent loops use the instruction's actual operand
// sizes, as a parameterized timing formula would.
func (m *Model) walk(entry uint16, in *vax.Instr, dstSpec int) (int, error) {
	img := m.rom.Image
	upc := entry
	cycles := 0
	loop := 0
	var uret uint16
	for steps := 0; ; steps++ {
		if steps > 100_000 {
			return 0, fmt.Errorf("tracesim: runaway flow at %#o", upc)
		}
		mi := img.At(upc)
		cycles++

		if mi.Loop != ucode.LoopNone {
			loop = m.loopCount(mi.Loop, mi.N, in)
		}

		switch mi.Seq {
		case ucode.SeqNext:
			upc++
		case ucode.SeqJump:
			upc = mi.Target
		case ucode.SeqLoop:
			loop--
			if loop > 0 {
				upc = mi.Target
			} else {
				upc++
			}
		case ucode.SeqEndInstr:
			return cycles, nil
		case ucode.SeqStore:
			if dstSpec == 0 {
				upc = m.rom.RStore[0]
			} else if dstSpec > 0 {
				upc = m.rom.RStore[1]
			} else {
				return cycles, nil
			}
		case ucode.SeqCondTaken:
			if in != nil && in.Taken {
				// Branch displacement processing: the B-DISP cycle plus
				// the taken path.
				cycles++ // bdisp micro-subroutine
				uret = mi.Target
				upc = uret
			} else {
				return cycles, nil // untaken: displacement consumed in-cycle
			}
		case ucode.SeqURet:
			upc = uret
		case ucode.SeqDispatch:
			// Specifier flows end in a decode dispatch: the flow is done
			// from the timing model's perspective.
			return cycles, nil
		case ucode.SeqTrapRet:
			// Trap service flows are never entered under ideal memory.
			return cycles, nil
		default:
			return 0, fmt.Errorf("tracesim: unhandled seq %v at %#o", mi.Seq, upc)
		}
	}
}

func (m *Model) loopCount(src ucode.LoopSrc, n int, in *vax.Instr) int {
	v := 1
	switch src {
	case ucode.LoopImm:
		v = n
	case ucode.LoopRegCount:
		if in != nil {
			v = in.RegCount
		}
	case ucode.LoopStrLW:
		if in != nil {
			v = (in.StrLen + 3) / 4
		}
	case ucode.LoopStrBytes:
		if in != nil {
			v = in.StrLen
		}
	case ucode.LoopDigits:
		if in != nil {
			v = (in.Digits + 1) / 2
		}
	case ucode.LoopFieldLen:
		if in != nil {
			v = (in.FieldLen + 31) / 32
		}
	}
	if v < 1 {
		v = 1
	}
	return v
}

// Comparison quantifies what the trace-driven method misses relative to
// the measured (UPC histogram) result.
type Comparison struct {
	EstimatedCPI float64
	MeasuredCPI  float64
	// UnderestimateFraction is the share of real time invisible to the
	// trace-driven model (stalls, TB service, interrupts, aborts).
	UnderestimateFraction float64
}

// Compare builds the comparison.
func Compare(est *Result, measuredCPI float64) Comparison {
	c := Comparison{EstimatedCPI: est.CPI(), MeasuredCPI: measuredCPI}
	if measuredCPI > 0 {
		c.UnderestimateFraction = 1 - c.EstimatedCPI/measuredCPI
	}
	return c
}
