package ibox

import (
	"errors"
	"math/rand"
	"testing"

	"vax780/internal/mem"
)

// linearSource returns pages holding va&0xFF at every materialized
// address and 0 elsewhere.
func linearSource(materialized map[uint32]bool) PageSource {
	return func(va uint32) *[PageBytes]byte {
		p := new([PageBytes]byte)
		base := va &^ (PageBytes - 1)
		for i := range p {
			if a := base + uint32(i); materialized == nil || materialized[a] {
				p[i] = byte(a)
			}
		}
		return p
	}
}

func warmIB(t *testing.T, ib *IBox, m *mem.System, start uint32) uint64 {
	t.Helper()
	m.InsertTB(start)
	m.InsertTB(start + 511)
	ib.Redirect(start)
	now := uint64(0)
	for i := 0; i < 200 && ib.bufLen < Capacity; i++ {
		ib.Tick(now, true)
		now++
	}
	return now
}

func TestFillsToCapacity(t *testing.T) {
	m := mem.New(mem.Config{})
	ib := New(m, linearSource(nil))
	warmIB(t, ib, m, 0x1000)
	if len(ib.Bytes()) != Capacity {
		t.Fatalf("IB filled to %d bytes, want %d", len(ib.Bytes()), Capacity)
	}
	for i, b := range ib.Bytes() {
		if b != byte(0x1000+i) {
			t.Errorf("byte %d = %#x, want %#x", i, b, byte(0x1000+i))
		}
	}
	if ib.BufVA() != 0x1000 {
		t.Errorf("BufVA = %#x", ib.BufVA())
	}
}

func TestConsumeShifts(t *testing.T) {
	m := mem.New(mem.Config{})
	ib := New(m, linearSource(nil))
	warmIB(t, ib, m, 0x1000)
	ib.Consume(3)
	if ib.BufVA() != 0x1003 {
		t.Errorf("BufVA = %#x, want 0x1003", ib.BufVA())
	}
	if ib.Bytes()[0] != byte(0x1003&0xFF) {
		t.Errorf("front byte = %#x", ib.Bytes()[0])
	}
}

func TestConsumeTooMuchErrors(t *testing.T) {
	m := mem.New(mem.Config{})
	ib := New(m, linearSource(nil))
	if err := ib.Consume(1); !errors.Is(err, ErrConsumeOverrun) {
		t.Errorf("over-consume error = %v, want ErrConsumeOverrun", err)
	}
}

func TestRedirectFlushes(t *testing.T) {
	m := mem.New(mem.Config{})
	ib := New(m, linearSource(nil))
	warmIB(t, ib, m, 0x1000)
	m.InsertTB(0x2000)
	ib.Redirect(0x2000)
	if len(ib.Bytes()) != 0 || ib.BufVA() != 0x2000 {
		t.Errorf("redirect did not flush: len=%d va=%#x", len(ib.Bytes()), ib.BufVA())
	}
	// Refill delivers target-stream bytes.
	for i := uint64(100); i < 150 && len(ib.Bytes()) < 4; i++ {
		ib.Tick(i, true)
	}
	if len(ib.Bytes()) == 0 || ib.Bytes()[0] != byte(0x2000&0xFF) {
		t.Error("refill after redirect delivered wrong bytes")
	}
}

func TestITBMissFlag(t *testing.T) {
	m := mem.New(mem.Config{})
	ib := New(m, linearSource(nil))
	ib.Redirect(0x3000) // no TB entry
	ib.Tick(0, true)
	miss, va := ib.ITBMiss()
	if !miss || va != 0x3000 {
		t.Fatalf("ITBMiss = %v %#x, want true 0x3000", miss, va)
	}
	if m.Stats.ITBMisses != 1 {
		t.Errorf("ITBMisses = %d, want 1", m.Stats.ITBMisses)
	}
	// While flagged, no refills are issued and the flag is not re-counted.
	for i := uint64(1); i < 10; i++ {
		ib.Tick(i, true)
	}
	if m.Stats.ITBMisses != 1 {
		t.Errorf("ITBMisses re-counted: %d", m.Stats.ITBMisses)
	}
	if len(ib.Bytes()) != 0 {
		t.Error("bytes delivered during ITB miss")
	}
	// Service and resume.
	m.InsertTB(0x3000)
	ib.ClearITBMiss()
	for i := uint64(10); i < 60 && len(ib.Bytes()) == 0; i++ {
		ib.Tick(i, true)
	}
	if len(ib.Bytes()) == 0 {
		t.Error("no refill after ITB miss service")
	}
}

func TestPortArbitration(t *testing.T) {
	m := mem.New(mem.Config{})
	ib := New(m, linearSource(nil))
	m.InsertTB(0x1000)
	ib.Redirect(0x1000)
	// With the port always busy, the IB never issues.
	for i := uint64(0); i < 20; i++ {
		ib.Tick(i, false)
	}
	if m.Stats.IReads != 0 {
		t.Errorf("IB issued %d refs with the port busy", m.Stats.IReads)
	}
}

func TestRepeatedReferencesToSameLongword(t *testing.T) {
	// Fill the IB, consume one byte, and watch the refill re-reference the
	// longword it already partially took (§4.1: up to four references).
	m := mem.New(mem.Config{})
	ib := New(m, linearSource(nil))
	now := warmIB(t, ib, m, 0x1000)
	refsAfterFill := m.Stats.IReads
	ib.Consume(1)
	for i := now; i < now+10 && len(ib.Bytes()) < Capacity; i++ {
		ib.Tick(i, true)
	}
	if m.Stats.IReads <= refsAfterFill {
		t.Error("no re-reference after partial consume")
	}
	// The refill delivered exactly 1 byte (the freed slot) from a longword
	// it had already referenced.
	if len(ib.Bytes()) != Capacity {
		t.Errorf("IB not refilled: %d", len(ib.Bytes()))
	}
}

func TestBytesDeliveredAccounting(t *testing.T) {
	m := mem.New(mem.Config{})
	ib := New(m, linearSource(nil))
	warmIB(t, ib, m, 0x1000)
	if m.Stats.IBytes != uint64(len(ib.Bytes())) {
		t.Errorf("IBytes = %d, buffered %d", m.Stats.IBytes, len(ib.Bytes()))
	}
	// Delivery per reference ≤ 4 (one longword).
	if m.Stats.IBytes > 4*m.Stats.IReads {
		t.Errorf("delivered %d bytes over %d refs (>4/ref)", m.Stats.IBytes, m.Stats.IReads)
	}
}

func TestUnmaterializedBytesAreZero(t *testing.T) {
	mat := map[uint32]bool{0x1000: true}
	m := mem.New(mem.Config{})
	ib := New(m, linearSource(mat))
	warmIB(t, ib, m, 0x1000)
	b := ib.Bytes()
	if b[0] != 0x00 {
		t.Errorf("materialized byte wrong: %#x", b[0])
	}
	// 0x1000&0xFF = 0 anyway; check a non-materialized one differs from
	// the linear pattern (it must be zero filler).
	if b[1] != 0 {
		t.Errorf("unmaterialized byte = %#x, want 0", b[1])
	}
}

func TestForceResyncCounts(t *testing.T) {
	m := mem.New(mem.Config{})
	ib := New(m, linearSource(nil))
	ib.ForceResync(0x5000)
	if ib.Resyncs != 1 || ib.BufVA() != 0x5000 {
		t.Errorf("resync: count=%d va=%#x", ib.Resyncs, ib.BufVA())
	}
}

// TestTranslationReuse: a refill that reuses the saved I-stream
// translation must fetch the physical longword a fresh Translate would
// give, and still leave one TB probe in VTrace per reference, across
// TB inserts, process-half flushes and context switches that change
// or evict the mapping.
func TestTranslationReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	// One set per TB half: the five process pages keep evicting each
	// other.
	m := mem.New(mem.Config{TBEntries: 4})
	twin := mem.New(mem.Config{TBEntries: 4}) // the direct path
	m.Trace, m.VTrace = &mem.RefTrace{}, &mem.VATrace{}
	ib := New(m, linearSource(nil))
	both := func(f func(*mem.System)) { f(m); f(twin) }
	pages := []uint32{0x1000, 0x1200, 0x1400, 0x5e00, 0x9000, 0x8000_3000, 0x8000_3200}
	now := uint64(0)
	reused, fresh := 0, 0
	for op := 0; op < 20000; op++ {
		switch r := rng.Intn(16); {
		case r < 10:
			probes, refs := len(m.VTrace.Refs), len(m.Trace.Refs)
			gen := m.Gen()
			saved := ib.xlSpan != 0 && ib.xlGen == gen && ib.fetchVA-ib.xlVA < ib.xlSpan
			ib.Tick(now, true)
			now++
			if len(m.Trace.Refs) == refs {
				continue
			}
			if saved {
				reused++
			} else {
				fresh++
			}
			if len(m.VTrace.Refs) != probes+1 {
				t.Fatalf("op %d: %d TB probes for one reference", op, len(m.VTrace.Refs)-probes)
			}
			va := m.VTrace.Refs[probes].VA
			pa, ok := twin.Translate(va)
			if got := m.Trace.Refs[refs].PA; !ok || got != pa&^3 {
				t.Fatalf("op %d: refill of %#x read %#x, Translate gives %#x (hit %v)", op, va, got, pa&^3, ok)
			}
		case r < 12:
			if ib.bufLen > 0 {
				ib.Consume(1 + rng.Intn(ib.bufLen))
			}
		case r == 12:
			ib.Redirect(pages[rng.Intn(len(pages))] + uint32(rng.Intn(512)))
		case r == 13:
			va := pages[rng.Intn(len(pages))]
			both(func(s *mem.System) { s.InsertTB(va) })
		case r == 14:
			both(func(s *mem.System) { s.FlushProcessTB() })
		default:
			asid := uint32(rng.Intn(3))
			both(func(s *mem.System) { s.SetASID(asid) })
		}
		if miss, va := ib.ITBMiss(); miss {
			both(func(s *mem.System) { s.InsertTB(va) })
			ib.ClearITBMiss()
		}
	}
	if reused < 500 || fresh < 500 {
		t.Errorf("%d refills reused the saved translation and %d translated afresh; want both", reused, fresh)
	}
}

// BenchmarkIBRefill prices the I-Fetch stage's refill path in
// isolation: a free cache port every cycle, sequential code over eight
// TB-resident pages, and a decode side that takes three bytes whenever
// four are buffered. One op is 4096 cycles; ns/refill divides the time
// by the references the IB issued.
func BenchmarkIBRefill(b *testing.B) {
	const base, end = 0x1000, 0x1000 + 8*PageBytes
	m := mem.New(mem.Config{})
	for va := uint32(base); va < end; va += PageBytes {
		m.InsertTB(va)
	}
	code := linearSource(nil)(0)
	ib := New(m, func(uint32) *[PageBytes]byte { return code })
	ib.Redirect(base)
	b.ReportAllocs()
	b.ResetTimer()
	now := uint64(0)
	for i := 0; i < b.N; i++ {
		for stop := now + 4096; now < stop; now++ {
			ib.Tick(now, true)
			if ib.bufLen >= 4 {
				ib.Consume(3)
			}
			if ib.fetchVA >= end {
				ib.Redirect(base)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(ib.Refs), "ns/refill")
}
