package mem

// The flat TB and cache, and the divisor behind their indices, are a
// derived path: they must answer exactly as the direct one did. The
// direct path survives here as the oracle — jagged per-set slices with
// separate valid bits, and hardware divides for every page, set, tag,
// frame and PTE index — and a random or fuzzed reference stream must
// produce the same hits, misses, physical addresses and Stats through
// both.

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

type oracleCache struct {
	ways, sets int
	blockBits  uint
	tags       [][]uint32
	valid      [][]bool
	victim     []uint32
}

func newOracleCache(bytes, ways, block int) *oracleCache {
	sets := bytes / (ways * block)
	if sets < 1 {
		sets = 1
	}
	c := &oracleCache{ways: ways, sets: sets, blockBits: log2(block)}
	c.tags = make([][]uint32, sets)
	c.valid = make([][]bool, sets)
	c.victim = make([]uint32, sets)
	for i := 0; i < sets; i++ {
		c.tags[i] = make([]uint32, ways)
		c.valid[i] = make([]bool, ways)
	}
	return c
}

// flush invalidates every block and keeps the victim pointers.
func (c *oracleCache) flush() {
	for s := range c.valid {
		clear(c.valid[s])
	}
}

func (c *oracleCache) access(pa uint32, allocate bool) bool {
	blk := pa >> c.blockBits
	set := blk % uint32(c.sets)
	tag := blk / uint32(c.sets)
	for w := 0; w < c.ways; w++ {
		if c.valid[set][w] && c.tags[set][w] == tag {
			return true
		}
	}
	if allocate {
		v := c.victim[set] % uint32(c.ways)
		c.victim[set]++
		c.tags[set][v] = tag
		c.valid[set][v] = true
	}
	return false
}

type oracleTBEntry struct {
	vpn   uint32
	valid bool
}

type oracleTB struct {
	ways, sets int
	entries    [2][][]oracleTBEntry
	clock      uint32
}

func newOracleTB(entries, ways int) *oracleTB {
	setsPerHalf := entries / 2 / ways
	if setsPerHalf < 1 {
		setsPerHalf = 1
	}
	t := &oracleTB{ways: ways, sets: setsPerHalf}
	for half := 0; half < 2; half++ {
		t.entries[half] = make([][]oracleTBEntry, setsPerHalf)
		for s := range t.entries[half] {
			t.entries[half][s] = make([]oracleTBEntry, ways)
		}
	}
	return t
}

func oracleHalf(sys bool) int {
	if sys {
		return 1
	}
	return 0
}

func (t *oracleTB) lookup(vpn uint32, sys bool) bool {
	set := t.entries[oracleHalf(sys)][vpn%uint32(t.sets)]
	for i := range set {
		if set[i].valid && set[i].vpn == vpn {
			return true
		}
	}
	return false
}

func (t *oracleTB) insert(vpn uint32, sys bool) {
	set := t.entries[oracleHalf(sys)][vpn%uint32(t.sets)]
	for i := range set {
		if !set[i].valid {
			set[i] = oracleTBEntry{vpn: vpn, valid: true}
			return
		}
		if set[i].vpn == vpn {
			return
		}
	}
	t.clock++
	set[t.clock%uint32(t.ways)] = oracleTBEntry{vpn: vpn, valid: true}
}

func (t *oracleTB) flushProcess() {
	for s := range t.entries[0] {
		for w := range t.entries[0][s] {
			t.entries[0][s][w].valid = false
		}
	}
}

// oracleSystem is the memory system's reference path over the oracle
// structures, with hardware divides throughout. Timing and counters
// follow System's rules exactly; only the indexing differs.
type oracleSystem struct {
	cfg       Config
	tb        *oracleTB
	cache     *oracleCache
	Stats     Stats
	asid      uint32
	sbiFreeAt uint64
	wbFreeAt  uint64
}

func newOracleSystem(cfg Config) *oracleSystem {
	cfg = cfg.WithDefaults()
	return &oracleSystem{
		cfg:   cfg,
		tb:    newOracleTB(cfg.TBEntries, cfg.TBWays),
		cache: newOracleCache(cfg.CacheBytes, cfg.CacheWays, cfg.CacheBlock),
	}
}

func (s *oracleSystem) Translate(va uint32) (uint32, bool) {
	vpn := va / uint32(s.cfg.PageBytes)
	sys := systemSpace(va)
	if !s.tb.lookup(vpn, sys) {
		return 0, false
	}
	return s.frame(vpn, sys) + va%uint32(s.cfg.PageBytes), true
}

func (s *oracleSystem) InsertTB(va uint32) {
	s.tb.insert(va/uint32(s.cfg.PageBytes), systemSpace(va))
}

func (s *oracleSystem) frame(vpn uint32, sys bool) uint32 {
	key := vpn
	if !sys {
		key = key*2654435761 + s.asid*40503
	} else {
		key = key * 2246822519
	}
	frames := uint32(s.cfg.MemoryBytes / s.cfg.PageBytes)
	return (key % frames) * uint32(s.cfg.PageBytes)
}

func (s *oracleSystem) PTEAddr(va uint32) uint32 {
	vpn := va / uint32(s.cfg.PageBytes)
	base := uint32(s.cfg.MemoryBytes - s.cfg.PTERegionBytes)
	var off uint32
	if systemSpace(va) {
		off = (vpn * 4) % uint32(s.cfg.PTERegionBytes/2)
	} else {
		off = uint32(s.cfg.PTERegionBytes/2) +
			((s.asid*16384+vpn)*4)%uint32(s.cfg.PTERegionBytes/2)
	}
	return base + off
}

func (s *oracleSystem) sbiAcquire(now uint64, busy int) uint64 {
	start := now
	if s.sbiFreeAt > start {
		start = s.sbiFreeAt
	}
	s.sbiFreeAt = start + uint64(busy)
	s.Stats.SBIBusy += uint64(busy)
	return s.sbiFreeAt
}

func (s *oracleSystem) read(pa uint32, now uint64, misses *uint64) int {
	if s.cache.access(pa, true) {
		return 0
	}
	*misses++
	stall := int(s.sbiAcquire(now, s.cfg.MissLatency) - now)
	s.Stats.ReadStall += uint64(stall)
	return stall
}

func (s *oracleSystem) DRead(pa uint32, now uint64) int {
	s.Stats.DReads++
	return s.read(pa, now, &s.Stats.DReadMisses)
}

func (s *oracleSystem) PTERead(pa uint32, now uint64) int {
	s.Stats.PTEReads++
	return s.read(pa, now, &s.Stats.PTEReadMisses)
}

func (s *oracleSystem) DWrite(pa uint32, now uint64) (stall int) {
	s.Stats.DWrites++
	if s.wbFreeAt > now {
		stall = int(s.wbFreeAt - now)
		s.Stats.WriteStall += uint64(stall)
	}
	s.wbFreeAt = s.sbiAcquire(now+uint64(stall), s.cfg.WriteBusy)
	s.cache.access(pa, false)
	return stall
}

func (s *oracleSystem) IRead(pa uint32, now uint64) (int, bool) {
	s.Stats.IReads++
	if s.cache.access(pa, true) {
		return 0, false
	}
	s.Stats.IReadMisses++
	return int(s.sbiAcquire(now, s.cfg.MissLatency) - now), true
}

// oracleGeometries are the shapes the flat path must match the oracle
// on: degenerate one-set structures, non-power-of-two set counts and
// page sizes, 256 ways, the 11/780 defaults, and the cache and TB
// geometries the companion studies sweep (Study780Configs and
// StudyTBConfigs in the root package).
var oracleGeometries = []struct {
	name string
	cfg  Config
}{
	{"defaults", Config{}},
	{"one-set", Config{TBEntries: 4, CacheBytes: 16, CacheWays: 2}},
	{"6KiB-3way", Config{CacheBytes: 6 << 10, CacheWays: 3, TBEntries: 12}},
	{"24B-1way", Config{CacheBytes: 24, CacheWays: 1, TBEntries: 6, TBWays: 1}},
	{"256-way", Config{CacheBytes: 4 << 10, CacheWays: 256, TBEntries: 1024, TBWays: 256}},
	{"odd-page", Config{PageBytes: 500, CacheBlock: 12, CacheBytes: 7 * 12 * 5, CacheWays: 5}},
	{"study-1KB-64e", Config{CacheBytes: 1 << 10, TBEntries: 64}},
	{"study-16KB-512e", Config{CacheBytes: 16 << 10, TBEntries: 512}},
	{"study-1way", Config{CacheWays: 1, TBWays: 1}},
	{"study-4way", Config{CacheWays: 4, TBWays: 4, TBEntries: 256}},
	{"study-4B-block", Config{CacheBytes: 2 << 10, CacheBlock: 4}},
	{"study-16B-block", Config{CacheBytes: 4 << 10, CacheBlock: 16}},
}

// oracleRun drives one operation stream through both implementations,
// failing at the first difference. Each op is a kind byte and an
// address; the address is folded into a small working set so that
// hits, evictions and flushes all occur.
type oracleRun struct {
	t    testing.TB
	flat *System
	ref  *oracleSystem
	now  uint64
	trs  int // translations checked
	hits int // of which TB hits
}

func newOracleRun(t testing.TB, cfg Config) *oracleRun {
	r := &oracleRun{t: t, flat: New(cfg), ref: newOracleSystem(cfg)}
	r.flat.VTrace = &VATrace{}
	r.flat.Trace = &RefTrace{}
	return r
}

func (r *oracleRun) step(kind byte, x uint32) {
	t := r.t
	r.now += uint64(x % 5)
	// Virtual addresses: 48 pages in each space; physical addresses:
	// twice the cache size. Either is occasionally anywhere at all.
	va := x % (48 * 512)
	if kind&0x80 != 0 {
		va |= 0x8000_0000
	}
	pa := x % uint32(2*r.ref.cfg.CacheBytes)
	if x%97 == 0 {
		va, pa = x, x%uint32(r.ref.cfg.MemoryBytes)
	}
	switch kind % 8 {
	case 0, 1:
		pf, okf := r.flat.Translate(va)
		pr, okr := r.ref.Translate(va)
		if pf != pr || okf != okr {
			t.Fatalf("Translate(%#x): flat %#x,%v oracle %#x,%v", va, pf, okf, pr, okr)
		}
		if okf {
			r.hits++
		} else {
			r.flat.InsertTB(va)
			r.ref.InsertTB(va)
			if a, b := r.flat.PTEAddr(va), r.ref.PTEAddr(va); a != b {
				t.Fatalf("PTEAddr(%#x): flat %#x oracle %#x", va, a, b)
			}
		}
		r.trs++
	case 2:
		if a, b := r.flat.DRead(pa, r.now), r.ref.DRead(pa, r.now); a != b {
			t.Fatalf("DRead(%#x): stall flat %d oracle %d", pa, a, b)
		}
	case 3:
		if a, b := r.flat.DWrite(pa, r.now), r.ref.DWrite(pa, r.now); a != b {
			t.Fatalf("DWrite(%#x): stall flat %d oracle %d", pa, a, b)
		}
	case 4:
		la, ma := r.flat.IRead(pa&^3, r.now)
		lb, mb := r.ref.IRead(pa&^3, r.now)
		if la != lb || ma != mb {
			t.Fatalf("IRead(%#x): flat %d,%v oracle %d,%v", pa, la, ma, lb, mb)
		}
	case 5:
		if a, b := r.flat.PTERead(pa, r.now), r.ref.PTERead(pa, r.now); a != b {
			t.Fatalf("PTERead(%#x): stall flat %d oracle %d", pa, a, b)
		}
	case 6:
		// An insert need not follow a miss (the I-stream miss flag can
		// be serviced after a D-stream miss installed the page).
		if x%16 == 0 {
			r.flat.FlushProcessTB()
			r.ref.tb.flushProcess()
		} else {
			r.flat.InsertTB(va)
			r.ref.InsertTB(va)
		}
	case 7:
		if x%8 == 0 {
			asid := x >> 29
			r.flat.SetASID(asid)
			r.ref.asid = asid
		} else if x%64 == 1 {
			r.flat.cache.Flush()
			r.ref.cache.flush()
		}
	}
	if r.flat.Stats != r.ref.Stats {
		t.Fatalf("Stats diverged:\nflat   %+v\noracle %+v", r.flat.Stats, r.ref.Stats)
	}
}

func TestFlatMemMatchesOracle(t *testing.T) {
	for _, g := range oracleGeometries {
		t.Run(g.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(len(g.name))))
			r := newOracleRun(t, g.cfg)
			for i := 0; i < 200_000; i++ {
				r.step(byte(rng.Intn(256)), rng.Uint32())
			}
			st := r.flat.Stats
			if st.DReadMisses == 0 || st.DReadMisses == st.DReads ||
				st.IReadMisses == 0 || st.IReadMisses == st.IReads {
				t.Errorf("stream never both hits and misses the cache: %+v", st)
			}
			if st.DWrites == 0 || st.PTEReads == 0 {
				t.Errorf("stream skipped a reference kind: %+v", st)
			}
			if r.hits == 0 || r.hits == r.trs {
				t.Errorf("TB: %d hits in %d translations, want both hits and misses", r.hits, r.trs)
			}
		})
	}
}

// FuzzMemOracle reads a geometry byte and then 5-byte ops (a kind
// byte and a little-endian address) from the input.
func FuzzMemOracle(f *testing.F) {
	f.Add([]byte{0, 0, 0x34, 0x12, 0, 0, 2, 0x34, 0x12, 0, 0})
	f.Add([]byte{1, 0x80, 0, 2, 0, 0, 0x81, 0, 2, 0, 0, 6, 0, 0, 0, 0})
	f.Add([]byte{2, 7, 0, 0, 0, 0, 1, 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{3, 4, 8, 0, 0, 0, 4, 16, 0, 0, 0, 4, 24, 0, 0, 0})
	f.Add([]byte{4, 2, 0, 0, 0, 0, 2, 0, 32, 0, 0, 2, 0, 64, 0, 0})
	f.Add([]byte{5, 0, 0xf4, 1, 0, 0, 5, 0xf4, 1, 0, 0})
	f.Add([]byte{6, 2, 1, 0, 0, 0, 7, 1, 0, 0, 0, 4, 1, 0, 0, 0, 2, 9, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		g := oracleGeometries[int(data[0])%len(oracleGeometries)]
		r := newOracleRun(t, g.cfg)
		for ops := data[1:]; len(ops) >= 5; ops = ops[5:] {
			r.step(ops[0], binary.LittleEndian.Uint32(ops[1:5]))
		}
	})
}

// TestDivisorExact checks the multiply-high division against the
// hardware divide: exhaustively below 2^20 for every divisor up to 1024
// and around each power of two up to 2^17, and at the ends of the
// numerator range and random points for those and random divisors.
func TestDivisorExact(t *testing.T) {
	ds := make([]uint32, 0, 1024+3*18)
	for d := uint32(1); d <= 1024; d++ {
		ds = append(ds, d)
	}
	for k := 10; k <= 17; k++ {
		ds = append(ds, 1<<k-1, 1<<k, 1<<k+1)
	}
	check := func(d, n uint32) {
		q, r := newDivisor(int(d)).divmod(n)
		if q != n/d || r != n%d {
			t.Fatalf("%d / %d: got %d rem %d, want %d rem %d", n, d, q, r, n/d, n%d)
		}
		if m := newDivisor(int(d)).mod(n); m != n%d {
			t.Fatalf("%d %% %d: mod got %d, want %d", n, d, m, n%d)
		}
	}
	for _, d := range ds {
		v := newDivisor(int(d))
		for n := uint32(0); n < 1<<20; n++ {
			if q, r := v.divmod(n); q != n/d || r != n%d || v.mod(n) != r {
				t.Fatalf("%d / %d: got %d rem %d (mod %d), want %d rem %d",
					n, d, q, r, v.mod(n), n/d, n%d)
			}
		}
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20_000; i++ {
		ds = append(ds, 1+uint32(rng.Int63n(math.MaxUint32)))
	}
	ds = append(ds, math.MaxUint32, math.MaxUint32-1, 1<<31, 1<<31+1)
	for _, d := range ds {
		for _, n := range []uint32{0, 1, d - 1, d, d + 1, 2*d - 1, math.MaxUint32, math.MaxUint32 - 1} {
			check(d, n)
		}
		for i := 0; i < 16; i++ {
			check(d, rng.Uint32())
		}
	}
}
