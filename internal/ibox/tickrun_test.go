package ibox

// TickRun is the EBOX superword path's bulk I-Fetch advance. Its
// contract: bit-exact with n individual Tick(now+i, true) calls —
// fused microwords leave the cache port free — across every reachable
// stage state (refill in flight, idle, full buffer, latched TB miss).

import (
	"math/rand"
	"testing"

	"vax780/internal/mem"
)

// sameState compares every field of the two stages that the EBOX or
// the decode path can observe.
func sameState(t *testing.T, step, bulk *IBox, ctx string) {
	t.Helper()
	if step.bufLen != bulk.bufLen || step.bufVA != bulk.bufVA ||
		step.fetchVA != bulk.fetchVA ||
		step.pending != bulk.pending || step.pendingArrive != bulk.pendingArrive ||
		step.itbMiss != bulk.itbMiss || step.itbMissVA != bulk.itbMissVA ||
		step.Refs != bulk.Refs || step.Consumed != bulk.Consumed {
		t.Fatalf("%s: stage state diverged:\nstep %+v\nbulk %+v", ctx, step, bulk)
	}
	for i, b := range step.Bytes() {
		if b != bulk.Bytes()[i] {
			t.Fatalf("%s: buffered byte %d differs", ctx, i)
		}
		if want := byte(step.bufVA + uint32(i)); b != want {
			t.Fatalf("%s: buffered byte %d is %#x, the code image holds %#x", ctx, i, b, want)
		}
	}
}

// TestTickRunMatchesTick walks both forms through a randomized but
// deterministic schedule of fused blocks, consumes, and redirects.
func TestTickRunMatchesTick(t *testing.T) {
	rng := rand.New(rand.NewSource(42))

	mkPair := func() (step, bulk *IBox, ms, mb *mem.System) {
		ms, mb = mem.New(mem.Config{}), mem.New(mem.Config{})
		step, bulk = New(ms, linearSource(nil)), New(mb, linearSource(nil))
		for _, m := range []*mem.System{ms, mb} {
			m.InsertTB(0x1000)
			m.InsertTB(0x1000 + 511)
		}
		step.Redirect(0x1000)
		bulk.Redirect(0x1000)
		return
	}

	step, bulk, _, _ := mkPair()
	now := uint64(0)
	for op := 0; op < 2000; op++ {
		switch rng.Intn(4) {
		case 0, 1: // a fused block of 1..8 cycles
			n := 1 + rng.Intn(8)
			for i := 0; i < n; i++ {
				step.Tick(now+uint64(i), true)
			}
			bulk.TickRun(now, n)
			now += uint64(n)
		case 2: // the decode path consumes some bytes
			if step.bufLen > 0 {
				n := 1 + rng.Intn(step.bufLen)
				if err := step.Consume(n); err != nil {
					t.Fatal(err)
				}
				if err := bulk.Consume(n); err != nil {
					t.Fatal(err)
				}
			}
		case 3: // occasionally, a taken branch
			if rng.Intn(4) == 0 {
				target := 0x1000 + uint32(rng.Intn(256))
				step.Redirect(target)
				bulk.Redirect(target)
			}
		}
		sameState(t, step, bulk, "after op")
	}
}

// TestTickRunStopsAtTBMiss: a latched I-stream TB miss ends the bulk
// walk exactly where per-cycle ticking stops.
func TestTickRunStopsAtTBMiss(t *testing.T) {
	ms, mb := mem.New(mem.Config{}), mem.New(mem.Config{})
	step, bulk := New(ms, linearSource(nil)), New(mb, linearSource(nil))
	// No InsertTB: the first reference takes an I-stream TB miss.
	step.Redirect(0x2000)
	bulk.Redirect(0x2000)
	for i := 0; i < 32; i++ {
		step.Tick(uint64(i), true)
	}
	bulk.TickRun(0, 32)
	sameState(t, step, bulk, "latched miss")
	if miss, _ := bulk.ITBMiss(); !miss {
		t.Fatal("expected a latched I-stream TB miss")
	}
}
