package vax780

import (
	"vax780/internal/machine"
	"vax780/internal/mem"
	"vax780/internal/workload"
)

// The companion studies replay a captured trace on the machine's own
// mem.Cache and mem.TB, so every geometry swept here runs the code the
// live machine runs and the oracle suite in internal/mem checks.

// CacheConfig is one cache organization for an offline cache study.
type CacheConfig struct {
	Name          string
	Bytes         int
	Ways          int
	Block         int
	WriteAllocate bool
	FlushEvery    int // invalidate everything every N references (0 = never)
}

// CacheStudyResult is one configuration's outcome over a captured
// reference trace.
type CacheStudyResult struct {
	Config        CacheConfig
	ReadMissRatio float64
	MissesPerRef  float64
	Reads         uint64
	ReadMisses    uint64
	IReads        uint64
	IReadMisses   uint64
	Writes        uint64
	WriteMisses   uint64
}

// Study780Configs returns the sweep around the production design point
// (8 KB, 2-way, 8-byte blocks, no write-allocate) that the paper's
// companion cache study (reference [2]) explores: size, associativity
// and block size variations, and write-allocate.
func Study780Configs() []CacheConfig {
	return []CacheConfig{
		{Name: "1KB/2way/8B", Bytes: 1 << 10, Ways: 2, Block: 8},
		{Name: "2KB/2way/8B", Bytes: 2 << 10, Ways: 2, Block: 8},
		{Name: "4KB/2way/8B", Bytes: 4 << 10, Ways: 2, Block: 8},
		{Name: "8KB/2way/8B", Bytes: 8 << 10, Ways: 2, Block: 8}, // production
		{Name: "16KB/2way/8B", Bytes: 16 << 10, Ways: 2, Block: 8},
		{Name: "8KB/1way/8B", Bytes: 8 << 10, Ways: 1, Block: 8},
		{Name: "8KB/4way/8B", Bytes: 8 << 10, Ways: 4, Block: 8},
		{Name: "8KB/2way/4B", Bytes: 8 << 10, Ways: 2, Block: 4},
		{Name: "8KB/2way/16B", Bytes: 8 << 10, Ways: 2, Block: 16},
		{Name: "8KB/2way/8B+WA", Bytes: 8 << 10, Ways: 2, Block: 8, WriteAllocate: true},
	}
}

// CacheStudy captures one workload's physical reference trace on the
// stock machine and replays it against every given configuration — the
// trace-once, simulate-many methodology of the companion cache paper the
// Section 4 numbers come from.
func CacheStudy(id WorkloadID, instructions int, cfgs []CacheConfig) ([]CacheStudyResult, error) {
	sys, err := capture(id, instructions, func(s *mem.System) { s.Trace = &mem.RefTrace{} })
	if err != nil {
		return nil, err
	}
	var out []CacheStudyResult
	for _, cfg := range cfgs {
		out = append(out, replayCache(sys.Trace, cfg))
	}
	return out, nil
}

// capture runs one workload on the stock machine with the trace that
// attach sets up, returning the memory system that holds it.
func capture(id WorkloadID, instructions int, attach func(*mem.System)) (*mem.System, error) {
	p, err := id.profile(instructions)
	if err != nil {
		return nil, err
	}
	tr, err := workload.Generate(p)
	if err != nil {
		return nil, err
	}
	m := machine.New(machine.Config{Mem: mem.Config{}}, tr.Program)
	attach(m.Mem)
	if err := m.Run(tr.Stream()); err != nil {
		return nil, err
	}
	return m.Mem, nil
}

// replayCache replays a captured reference trace against one cache
// organization (ways below 1 count as 1, blocks below 4 bytes as 4).
// D-stream and PTE reads count as reads, I-stream refills as IReads.
func replayCache(trace *mem.RefTrace, cfg CacheConfig) CacheStudyResult {
	ways, block := max(cfg.Ways, 1), max(cfg.Block, 4)
	c := mem.NewCache(cfg.Bytes, ways, block)
	r := CacheStudyResult{Config: cfg}
	for i, ref := range trace.Refs {
		if cfg.FlushEvery > 0 && i > 0 && i%cfg.FlushEvery == 0 {
			c.Flush()
		}
		switch ref.Kind {
		case mem.RefDRead, mem.RefPTERead:
			r.Reads++
			if !c.Access(ref.PA, true) {
				r.ReadMisses++
			}
		case mem.RefDWrite:
			r.Writes++
			if !c.Access(ref.PA, cfg.WriteAllocate) {
				r.WriteMisses++
			}
		case mem.RefIRead:
			r.IReads++
			if !c.Access(ref.PA, true) {
				r.IReadMisses++
			}
		}
	}
	if reads := r.Reads + r.IReads; reads > 0 {
		r.ReadMissRatio = float64(r.ReadMisses+r.IReadMisses) / float64(reads)
	}
	if refs := r.Reads + r.Writes + r.IReads; refs > 0 {
		r.MissesPerRef = float64(r.ReadMisses+r.IReadMisses+r.WriteMisses) / float64(refs)
	}
	return r
}

// TBConfig is one translation buffer organization for an offline TB
// study.
type TBConfig struct {
	Name          string
	Entries       int
	Ways          int
	IgnoreFlushes bool // address-space tags: survive context switches
}

// TBStudyResult is one configuration's outcome over a captured probe
// trace.
type TBStudyResult struct {
	Config    TBConfig
	Probes    uint64
	Misses    uint64
	Flushes   uint64
	MissRatio float64
}

// StudyTBConfigs returns the sweep the companion TB paper (reference [3])
// explores around the production 128-entry 2-way split design, including
// the no-flush what-if of address-space tags.
func StudyTBConfigs() []TBConfig {
	return []TBConfig{
		{Name: "64e/2way", Entries: 64, Ways: 2},
		{Name: "128e/2way", Entries: 128, Ways: 2}, // production
		{Name: "256e/2way", Entries: 256, Ways: 2},
		{Name: "512e/2way", Entries: 512, Ways: 2},
		{Name: "128e/1way", Entries: 128, Ways: 1},
		{Name: "128e/4way", Entries: 128, Ways: 4},
		{Name: "128e/2way/noflush", Entries: 128, Ways: 2, IgnoreFlushes: true},
	}
}

// TBStudy captures one workload's TB probe trace (including the
// context-switch flushes) and replays it against every configuration —
// the simulation half of the companion paper "Performance of the
// VAX-11/780 Translation Buffer: Simulation and Measurement".
func TBStudy(id WorkloadID, instructions int, cfgs []TBConfig) ([]TBStudyResult, error) {
	sys, err := capture(id, instructions, func(s *mem.System) { s.VTrace = &mem.VATrace{} })
	if err != nil {
		return nil, err
	}
	var out []TBStudyResult
	for _, cfg := range cfgs {
		out = append(out, replayTB(sys.VTrace, cfg))
	}
	return out, nil
}

// replayTB replays a captured probe trace against one TB organization
// (ways below 1 count as 1) with the machine's 512-byte pages. A missing
// translation is installed at once, as the miss service always fills.
func replayTB(trace *mem.VATrace, cfg TBConfig) TBStudyResult {
	tb := mem.NewTB(cfg.Entries, max(cfg.Ways, 1))
	page := uint32(mem.Default().PageBytes)
	r := TBStudyResult{Config: cfg}
	for _, ref := range trace.Refs {
		if ref.Flush {
			r.Flushes++
			if !cfg.IgnoreFlushes {
				tb.FlushProcess()
			}
			continue
		}
		r.Probes++
		vpn, sys := ref.VA/page, ref.VA&0x8000_0000 != 0
		if !tb.Lookup(vpn, sys) {
			r.Misses++
			tb.Insert(vpn, sys)
		}
	}
	if r.Probes > 0 {
		r.MissRatio = float64(r.Misses) / float64(r.Probes)
	}
	return r
}
