// Package mem models the VAX-11/780 memory subsystem with the timing
// behaviour the paper measures: a microcode-managed translation buffer, a
// write-through data cache, a one-longword write buffer, and the SBI path
// to main memory.
//
// The model is timing-only: it decides how many EBOX cycles each reference
// stalls and keeps the hardware event counters that the paper's companion
// cache study (reference [2]) provides — the UPC monitor itself cannot see
// cache or IB events, and neither does the analysis package; it reads
// these counters through the machine's "cache study" channel instead.
package mem

import "fmt"

// Config holds the memory system geometry and timing. Zero fields are
// replaced by the 11/780 values by Default.
type Config struct {
	CacheBytes     int // data cache size (11/780: 8 KB)
	CacheWays      int // associativity (2)
	CacheBlock     int // block size in bytes (8)
	TBEntries      int // translation buffer entries (128, split in halves)
	TBWays         int // TB associativity (2)
	PageBytes      int // VAX page size (512)
	MissLatency    int // cycles from SBI request to data (6, simplest case)
	WriteBusy      int // cycles the write buffer is busy per write (6)
	MemoryBytes    int // main memory size (8 MB on all measured systems)
	PTERegionBytes int // physical region holding page tables
}

// Default returns the VAX-11/780 configuration used in the paper's
// measurements.
func Default() Config {
	return Config{
		CacheBytes:     8 << 10,
		CacheWays:      2,
		CacheBlock:     8,
		TBEntries:      128,
		TBWays:         2,
		PageBytes:      512,
		MissLatency:    6,
		WriteBusy:      6,
		MemoryBytes:    8 << 20,
		PTERegionBytes: 512 << 10,
	}
}

// WithDefaults returns c with every zero field replaced by its 11/780
// value: the configuration New builds.
func (c Config) WithDefaults() Config {
	d := Default()
	if c.CacheBytes == 0 {
		c.CacheBytes = d.CacheBytes
	}
	if c.CacheWays == 0 {
		c.CacheWays = d.CacheWays
	}
	if c.CacheBlock == 0 {
		c.CacheBlock = d.CacheBlock
	}
	if c.TBEntries == 0 {
		c.TBEntries = d.TBEntries
	}
	if c.TBWays == 0 {
		c.TBWays = d.TBWays
	}
	if c.PageBytes == 0 {
		c.PageBytes = d.PageBytes
	}
	if c.MissLatency == 0 {
		c.MissLatency = d.MissLatency
	}
	if c.WriteBusy == 0 {
		c.WriteBusy = d.WriteBusy
	}
	if c.MemoryBytes == 0 {
		c.MemoryBytes = d.MemoryBytes
	}
	if c.PTERegionBytes == 0 {
		c.PTERegionBytes = d.PTERegionBytes
	}
	return c
}

// Probe is the passive telemetry hook of the memory subsystem: like the
// UPC board, attaching one changes nothing about the measured system.
// It is nil on an uninstrumented machine (the fast path).
type Probe interface {
	// CacheMiss observes a cache read miss (D-stream, PTE, or I-stream)
	// and the stall/latency cycles it cost.
	CacheMiss(now uint64, istream bool, pa uint32, stall int)
}

// FaultInjector is the memory subsystem's fault hook (see
// internal/faults): a deterministic plan deciding, per D-stream read,
// whether the reference takes a memory parity error. nil on a healthy
// system — the fast path is one pointer check per reference.
type FaultInjector interface {
	// MemParity reports whether this read takes a parity error.
	MemParity(pa uint32) bool
}

// Stats are the hardware event counters: the numbers the paper's Section 4
// takes from the earlier cache study rather than from the UPC histogram.
type Stats struct {
	DReads        uint64 // D-stream read references (physical)
	DWrites       uint64 // D-stream write references (physical)
	DReadMisses   uint64
	IReads        uint64 // I-stream (IB) references
	IReadMisses   uint64
	IBytes        uint64 // bytes delivered to the IB
	DTBMisses     uint64
	ITBMisses     uint64
	PTEReads      uint64
	PTEReadMisses uint64
	ReadStall     uint64 // cycles
	WriteStall    uint64 // cycles
	SBIBusy       uint64 // cycles the backplane bus was occupied
	Unaligned     uint64 // unaligned D-stream references (extra physical refs)
}

// Add accumulates other into st — the counter summing behind the
// paper's composite workload and the telemetry interval totals.
func (st *Stats) Add(other *Stats) {
	st.DReads += other.DReads
	st.DWrites += other.DWrites
	st.DReadMisses += other.DReadMisses
	st.IReads += other.IReads
	st.IReadMisses += other.IReadMisses
	st.IBytes += other.IBytes
	st.DTBMisses += other.DTBMisses
	st.ITBMisses += other.ITBMisses
	st.PTEReads += other.PTEReads
	st.PTEReadMisses += other.PTEReadMisses
	st.ReadStall += other.ReadStall
	st.WriteStall += other.WriteStall
	st.SBIBusy += other.SBIBusy
	st.Unaligned += other.Unaligned
}

// Sub subtracts other from st: the delta between two counter snapshots,
// the unit of the telemetry layer's interval time series.
func (st *Stats) Sub(other *Stats) {
	st.DReads -= other.DReads
	st.DWrites -= other.DWrites
	st.DReadMisses -= other.DReadMisses
	st.IReads -= other.IReads
	st.IReadMisses -= other.IReadMisses
	st.IBytes -= other.IBytes
	st.DTBMisses -= other.DTBMisses
	st.ITBMisses -= other.ITBMisses
	st.PTEReads -= other.PTEReads
	st.PTEReadMisses -= other.PTEReadMisses
	st.ReadStall -= other.ReadStall
	st.WriteStall -= other.WriteStall
	st.SBIBusy -= other.SBIBusy
	st.Unaligned -= other.Unaligned
}

// System is the memory subsystem.
type System struct {
	cfg   Config
	tb    *TB
	cache *Cache
	Stats Stats

	// Trace, when non-nil, captures every physical reference for the
	// companion cache-study workflow (see RefTrace).
	Trace *RefTrace

	// VTrace, when non-nil, captures every TB probe and flush for the
	// companion TB-study workflow (see VATrace).
	VTrace *VATrace

	// probe, when non-nil, observes cache misses for the telemetry layer.
	probe Probe

	// fault, when non-nil, injects memory parity errors on reads. A
	// fired parity error is latched in parityPA/parityHit until the
	// EBOX collects it and runs the machine-check abort.
	fault     FaultInjector
	parityPA  uint32
	parityHit bool

	asid uint32 // current process context for process-space translation

	// gen changes whenever a Translate result could change: on every
	// TB insert, process-half flush and context switch. A caller may
	// reuse a translation it saved while gen is unchanged (see Gen).
	gen uint64

	// Index arithmetic without hardware divides (see divisor).
	page    divisor // VA → page number and offset
	frames  divisor // frame-hash key → frame number
	pteHalf divisor // PTE offset within its half of the PTE region

	// sbiFreeAt is the cycle at which the SBI finishes its current
	// transaction; concurrent activity queues behind it.
	sbiFreeAt uint64
	// wbFreeAt is the cycle at which the one-longword write buffer frees.
	wbFreeAt uint64
}

// New builds a memory system from cfg (zero fields take 11/780 defaults).
func New(cfg Config) *System {
	cfg = cfg.WithDefaults()
	if cfg.PageBytes < 2 || cfg.CacheBlock < 2 {
		// Below 2 bytes a page number or cache tag can reach 2^32−1,
		// and the TB's vpn+1 / the cache's tag+1 encoding would wrap.
		panic(fmt.Sprintf("mem: page %d and block %d bytes must be at least 2",
			cfg.PageBytes, cfg.CacheBlock))
	}
	return &System{
		cfg:     cfg,
		tb:      NewTB(cfg.TBEntries, cfg.TBWays),
		cache:   NewCache(cfg.CacheBytes, cfg.CacheWays, cfg.CacheBlock),
		page:    newDivisor(cfg.PageBytes),
		frames:  newDivisor(cfg.MemoryBytes / cfg.PageBytes),
		pteHalf: newDivisor(cfg.PTERegionBytes / 2),
	}
}

// Config returns the active configuration.
func (s *System) Config() Config { return s.cfg }

// Geometry returns the cache bytes and TB entries the system was built
// with. They equal Config's only when the cache size is a multiple of
// ways × block and the TB size a multiple of 2 halves × ways; otherwise
// the constructors round down (to at least one set).
func (s *System) Geometry() (cacheBytes, tbEntries int) {
	return len(s.cache.tags) << s.cache.blockBits, len(s.tb.entries)
}

// SetProbe attaches a telemetry probe (nil detaches it).
func (s *System) SetProbe(p Probe) { s.probe = p }

// SetFault attaches a fault injector (nil detaches it).
func (s *System) SetFault(f FaultInjector) { s.fault = f }

// TakeParity collects a latched parity error: the faulting physical
// address and whether one fired since the last collection. The EBOX
// checks it after each data reference when a fault plan is attached and
// routes the abort through the machine-check path.
func (s *System) TakeParity() (pa uint32, ok bool) {
	if !s.parityHit {
		return 0, false
	}
	s.parityHit = false
	return s.parityPA, true
}

// SetASID switches the process context used for process-space address
// translation. It does NOT flush the TB: the LDPCTX microcode flow is
// responsible for calling FlushProcessTB, exactly as on the real machine.
func (s *System) SetASID(id uint32) {
	s.asid = id
	s.gen++
}

// ASID returns the current process context.
func (s *System) ASID() uint32 { return s.asid }

// FlushProcessTB invalidates the process half of the translation buffer.
func (s *System) FlushProcessTB() {
	s.recordFlush()
	s.tb.FlushProcess()
	s.gen++
}

// Gen returns the translation generation. While it is unchanged, every
// Translate answers exactly as it did before: a caller that saved a hit
// for a page may compute later addresses on that page itself, calling
// Reprobe in place of each Translate it skips.
func (s *System) Gen() uint64 { return s.gen }

// Reprobe stands for a Translate whose hit the caller reused under an
// unchanged Gen. Translate has no side effect but the VTrace record, so
// this keeps the captured probe stream identical.
func (s *System) Reprobe(va uint32) { s.recordVA(va) }

// PageOffset returns va's offset within its page.
func (s *System) PageOffset(va uint32) uint32 {
	_, off := s.page.divmod(va)
	return off
}

// systemSpace reports whether va is in VAX system space (bit 31 set).
func systemSpace(va uint32) bool { return va&0x8000_0000 != 0 }

// Translate probes the TB for va. On a hit it returns the physical
// address. On a miss it returns ok=false and the caller must run the TB
// miss service microcode (which performs the PTE read and calls InsertTB)
// before retrying.
func (s *System) Translate(va uint32) (pa uint32, ok bool) {
	s.recordVA(va)
	vpn, off := s.page.divmod(va)
	sys := systemSpace(va)
	if !s.tb.Lookup(vpn, sys) {
		return 0, false
	}
	return s.frame(vpn, sys) + off, true
}

// InsertTB installs the translation for va, evicting as needed. Called by
// the TB-miss microcode flow after its PTE fetch.
func (s *System) InsertTB(va uint32) {
	vpn, _ := s.page.divmod(va)
	s.tb.Insert(vpn, systemSpace(va))
	s.gen++
}

// frame deterministically assigns a physical frame to each (space, asid,
// vpn) so that physical addresses are stable across the run without
// simulating real page tables.
func (s *System) frame(vpn uint32, sys bool) uint32 {
	key := vpn
	if !sys {
		key = key*2654435761 + s.asid*40503
	} else {
		key = key * 2246822519
	}
	return s.frames.mod(key) * uint32(s.cfg.PageBytes)
}

// PTEAddr returns the physical address of the page table entry mapping
// va. Adjacent pages have adjacent PTEs, so PTE reads enjoy the spatial
// locality the real machine's page tables had.
func (s *System) PTEAddr(va uint32) uint32 {
	vpn, _ := s.page.divmod(va)
	base := uint32(s.cfg.MemoryBytes - s.cfg.PTERegionBytes)
	var off uint32
	if systemSpace(va) {
		off = s.pteHalf.mod(vpn * 4)
	} else {
		off = uint32(s.cfg.PTERegionBytes/2) + s.pteHalf.mod((s.asid*16384+vpn)*4)
	}
	return base + off
}

// sbiAcquire queues a transaction of busy cycles on the SBI starting no
// earlier than now, returning when its data is available.
func (s *System) sbiAcquire(now uint64, busy int) (dataAt uint64) {
	start := now
	if s.sbiFreeAt > start {
		start = s.sbiFreeAt
	}
	dataAt = start + uint64(busy)
	s.sbiFreeAt = dataAt
	s.Stats.SBIBusy += uint64(busy)
	return dataAt
}

// DRead performs an EBOX D-stream read at physical address pa, returning
// the read-stall cycles the EBOX incurs ("the requesting microinstruction
// simply waits for the data to arrive", §4.3).
func (s *System) DRead(pa uint32, now uint64) (stall int) {
	s.Stats.DReads++
	s.record(RefDRead, pa)
	if s.fault != nil && s.fault.MemParity(pa) {
		s.parityPA, s.parityHit = pa, true
	}
	if s.cache.Access(pa, true) {
		return 0
	}
	s.Stats.DReadMisses++
	dataAt := s.sbiAcquire(now, s.cfg.MissLatency)
	stall = int(dataAt - now)
	s.Stats.ReadStall += uint64(stall)
	if s.probe != nil {
		s.probe.CacheMiss(now, false, pa, stall)
	}
	return stall
}

// PTERead performs the page-table-entry read of the TB miss routine. It is
// a D-stream read but counted separately so the analysis can report the
// 3.5-cycle average PTE stall of §4.2.
func (s *System) PTERead(pa uint32, now uint64) (stall int) {
	s.Stats.PTEReads++
	s.record(RefPTERead, pa)
	if s.fault != nil && s.fault.MemParity(pa) {
		s.parityPA, s.parityHit = pa, true
	}
	if s.cache.Access(pa, true) {
		return 0
	}
	s.Stats.PTEReadMisses++
	dataAt := s.sbiAcquire(now, s.cfg.MissLatency)
	stall = int(dataAt - now)
	s.Stats.ReadStall += uint64(stall)
	if s.probe != nil {
		s.probe.CacheMiss(now, false, pa, stall)
	}
	return stall
}

// DWrite performs an EBOX D-stream write at pa. The 11/780 write-through
// scheme: the write buffers in the one-longword write buffer and completes
// over the SBI; the EBOX stalls only when the buffer is still busy with
// the previous write (§2.1). The cache is updated only on a write hit (no
// write-allocate).
func (s *System) DWrite(pa uint32, now uint64) (stall int) {
	s.Stats.DWrites++
	s.record(RefDWrite, pa)
	if s.wbFreeAt > now {
		stall = int(s.wbFreeAt - now)
		s.Stats.WriteStall += uint64(stall)
	}
	issued := now + uint64(stall)
	done := s.sbiAcquire(issued, s.cfg.WriteBusy)
	s.wbFreeAt = done
	s.cache.Access(pa, false) // update on hit; no allocate on miss
	return stall
}

// IRead performs an IB refill read of one longword at pa. The EBOX does
// not stall; the IB receives the data after the returned latency. miss
// reports whether the reference went to memory.
func (s *System) IRead(pa uint32, now uint64) (latency int, miss bool) {
	s.Stats.IReads++
	s.record(RefIRead, pa)
	if s.cache.Access(pa, true) {
		return 0, false
	}
	s.Stats.IReadMisses++
	dataAt := s.sbiAcquire(now, s.cfg.MissLatency)
	if s.probe != nil {
		s.probe.CacheMiss(now, true, pa, int(dataAt-now))
	}
	return int(dataAt - now), true
}

// NoteIBytes counts bytes actually delivered to the IB (the IB accepts
// only as many bytes as it has room for at arrival time, §4.1).
func (s *System) NoteIBytes(n int) { s.Stats.IBytes += uint64(n) }

// NoteUnaligned counts an unaligned D-stream reference.
func (s *System) NoteUnaligned() { s.Stats.Unaligned++ }

// NoteTBMiss counts one translation-buffer miss. The machine calls it once
// per microtrap (D-stream) or once per I-fetch miss flag (I-stream), so
// repeated probes during service do not double count.
func (s *System) NoteTBMiss(istream bool) {
	if istream {
		s.Stats.ITBMisses++
	} else {
		s.Stats.DTBMisses++
	}
}

// CacheReadMissRate returns D-stream and I-stream read misses per the
// given instruction count (the cache study's headline numbers).
func (st *Stats) CacheReadMissRate(instr uint64) (d, i float64) {
	if instr == 0 {
		return 0, 0
	}
	return float64(st.DReadMisses) / float64(instr),
		float64(st.IReadMisses) / float64(instr)
}

func (st *Stats) String() string {
	return fmt.Sprintf("dR=%d dRm=%d iR=%d iRm=%d dW=%d tbD=%d tbI=%d rdStall=%d wrStall=%d",
		st.DReads, st.DReadMisses, st.IReads, st.IReadMisses, st.DWrites,
		st.DTBMisses, st.ITBMisses, st.ReadStall, st.WriteStall)
}
