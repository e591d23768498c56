package telemetry

// The tracer's cheaper paths against the direct ones they replace: the
// integer timestamp form and the duration cache against AppendFloat,
// the one-copy merge against per-event emit, and the child stop rule
// against a merge of children that collect everything.

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"sync"
	"testing"
)

func wantMicros(c uint64) string {
	return strconv.FormatFloat(cycleMicros(c), 'f', -1, 64)
}

// TestAppendMicrosMatchesAppendFloat: the integer timestamp form is
// AppendFloat's for every cycle below 2 000 000, on both sides of the
// 2^50 bound, and for random cycles of every magnitude up to MaxUint64.
func TestAppendMicrosMatchesAppendFloat(t *testing.T) {
	check := func(c uint64) {
		if got, want := string(appendMicros(nil, c)), wantMicros(c); got != want {
			t.Fatalf("cycle %d: appendMicros %q, AppendFloat %q", c, got, want)
		}
	}
	for c := uint64(0); c < 2_000_000; c++ {
		check(c)
	}
	for c := uint64(1<<50 - 200_000); c < 1<<50+200_000; c++ {
		check(c)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 300_000; i++ {
		check(rng.Uint64() >> rng.Intn(64))
	}
	check(math.MaxUint64)
}

// TestDurCacheMatchesAppendFloat: cached durations format exactly as
// AppendFloat does, on a first sight and on a hit, when two durations
// share a slot and evict each other, and for forms too long for a slot.
func TestDurCacheMatchesAppendFloat(t *testing.T) {
	tw := newTestTracer().newWriter(nil)
	check := func(d float64) {
		t.Helper()
		if got, want := string(tw.appendDur(nil, d)), strconv.FormatFloat(d, 'f', -1, 64); got != want {
			t.Fatalf("duration %v: appendDur %q, AppendFloat %q", d, got, want)
		}
	}
	slot := func(d float64) uint64 { return durSlot(math.Float64bits(d)) }

	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 200_000; i++ {
		s := rng.Uint64() >> rng.Intn(64)
		e := s + uint64(rng.Intn(5000))
		if i%4 == 0 {
			e = rng.Uint64() >> rng.Intn(64)
		}
		if d := cycleMicros(e) - cycleMicros(s); d != 0 {
			check(d)
			check(d)
		}
	}

	// Two durations in one slot, alternating: each sight evicts the
	// other, and neither may be served the other's form.
	a := 0.2
	b := a
	for d := 0.4; ; d += 0.2 {
		if slot(d) == slot(a) && d != a {
			b = d
			break
		}
	}
	for i := 0; i < 4; i++ {
		check(a)
		check(b)
	}
	if e := tw.durs[slot(a)]; e.n == 0 || e.bits != math.Float64bits(b) {
		t.Errorf("slot holds bits %x (n %d), want the last duration formatted, %v", e.bits, e.n, b)
	}

	// Forms longer than a slot are formatted each time and never
	// stored.
	long := 1.2345678901234567e-10
	if n := len(strconv.FormatFloat(long, 'f', -1, 64)); n <= len(durEntry{}.s) {
		t.Fatalf("%v formats in %d bytes, which fits a slot", long, n)
	}
	check(long)
	check(long)
	if e := tw.durs[slot(long)]; e.n != 0 && e.bits == math.Float64bits(long) {
		t.Error("an over-long form was cached")
	}
}

// newStopParent builds a parent tracer with its metadata events and no
// control-store map (every address is outside it).
func newStopParent(maxEvents int) *Tracer {
	tr := &Tracer{max: maxEvents, names: newNameTable(), tab: &traceTables{}}
	tr.meta()
	return tr
}

// decode drives one instruction decode and three cycles into a child as
// the telemetry layer does: a truncated tracer is skipped. Each decode
// after the first closes one instruction slice, and every third one
// also delivers an interrupt.
func decode(c *Tracer, n int) {
	abs := uint64(n) * 3
	if c.truncated {
		return
	}
	c.instr(abs, uint32(0x200+n), 0xC1)
	if n%3 == 2 {
		c.interrupt(abs+1, 0x800)
	}
	for k := uint64(0); k < 3 && !c.truncated; k++ {
		c.cycle(abs+k, 0, k == 1)
	}
}

// emitAbsorb is the per-event merge absorb replaced: every shifted
// event through emit, then the child's truncation.
func emitAbsorb(tr, child *Tracer, shift uint64) {
	for _, ev := range child.events {
		ev.Start += shift
		if ev.Ph == 'X' {
			ev.End += shift
		}
		tr.emit(ev)
	}
	if child.truncated {
		tr.truncated = true
	}
}

// mergeInto splices finished children into parent in order, each behind
// a phase marker, with each child's timeline ending at ends[i]; absorb
// is the merge step under test.
func mergeInto(parent *Tracer, children []*Tracer, ends []uint64, absorb func(tr, child *Tracer, shift uint64)) []byte {
	var shift uint64
	for i, c := range children {
		c.finish(ends[i])
		parent.phase(shift, fmt.Sprint("child ", i))
		absorb(parent, c, shift)
		shift += ends[i]
	}
	var out bytes.Buffer
	if err := parent.WriteTrace(&out); err != nil {
		panic(err)
	}
	return out.Bytes()
}

// mergeWithoutRule is the reference merge: children without a stop
// rule, each driven through all its decodes, merged by per-event emit.
func mergeWithoutRule(maxEvents int, decodes []int, ends []uint64) []byte {
	ref := newStopParent(maxEvents)
	free := make([]*Tracer, len(decodes))
	for i, n := range decodes {
		free[i] = &Tracer{max: maxEvents, tab: ref.tab}
		for k := 0; k < n; k++ {
			decode(free[i], k)
		}
	}
	return mergeInto(ref, free, ends, emitAbsorb)
}

// TestChildStopRule drives four children of one run by hand. Child 2
// truncates first: child 1 keeps collecting, and child 3 collects
// nothing and never allocates its buffer. When child 0 then truncates,
// child 1 stops at its next decode. The merged trace equals a per-event
// merge of children that ran without the rule.
func TestChildStopRule(t *testing.T) {
	const maxEvents = 40
	decodes := []int{60, 30, 60, 30}
	ends := make([]uint64, len(decodes))
	for i, n := range decodes {
		ends[i] = uint64(n) * 3
	}

	parent := newStopParent(maxEvents)
	cs := parent.newChildren(len(decodes))
	run := func(i, from, to int) {
		for n := from; n < to; n++ {
			decode(cs[i], n)
		}
	}

	run(2, 0, decodes[2])
	if !cs[2].truncated || len(cs[2].events) != maxEvents {
		t.Fatalf("child 2: truncated %v with %d events, want the %d-event cap", cs[2].truncated, len(cs[2].events), maxEvents)
	}
	run(1, 0, 10)
	if cs[1].truncated || len(cs[1].events) == 0 {
		t.Fatalf("child 1 stopped (%d events) when only child 2 had truncated", len(cs[1].events))
	}
	run(3, 0, decodes[3])
	if !cs[3].truncated || cs[3].events != nil {
		t.Fatalf("child 3: truncated %v, buffer cap %d; want stopped before allocating", cs[3].truncated, cap(cs[3].events))
	}
	run(0, 0, decodes[0])
	if !cs[0].truncated {
		t.Fatal("child 0 did not reach its cap")
	}
	held := len(cs[1].events)
	decode(cs[1], 10)
	if !cs[1].truncated || len(cs[1].events) != held {
		t.Fatalf("child 1 after child 0 truncated: truncated %v, %d events (had %d)", cs[1].truncated, len(cs[1].events), held)
	}
	run(1, 11, decodes[1])
	got := mergeInto(parent, cs, ends, (*Tracer).absorb)
	if want := mergeWithoutRule(maxEvents, decodes, ends); !bytes.Equal(got, want) {
		t.Errorf("merge with the stop rule differs from the merge without it (%d vs %d bytes)", len(got), len(want))
	}
}

// TestChildStopRuleConcurrent: children collecting on their own
// goroutines, as a parallel run's workers do, lower the shared index
// concurrently; whatever the interleaving, the merge equals a merge of
// children that ran without the rule.
func TestChildStopRuleConcurrent(t *testing.T) {
	decodes := []int{40, 90, 20, 70, 50, 90}
	ends := make([]uint64, len(decodes))
	for i, n := range decodes {
		ends[i] = uint64(n) * 3
	}
	for _, maxEvents := range []int{30, 60, 120, 400} {
		parent := newStopParent(maxEvents)
		cs := parent.newChildren(len(decodes))
		var wg sync.WaitGroup
		for i, c := range cs {
			wg.Add(1)
			go func(c *Tracer, n int) {
				defer wg.Done()
				for k := 0; k < n; k++ {
					decode(c, k)
				}
			}(c, decodes[i])
		}
		wg.Wait()
		got := mergeInto(parent, cs, ends, (*Tracer).absorb)
		if want := mergeWithoutRule(maxEvents, decodes, ends); !bytes.Equal(got, want) {
			t.Errorf("cap %d: concurrent merge differs from the merge without the rule", maxEvents)
		}
	}
}

// TestChildStopRuleScope: the dead index belongs to one run's children.
// A child truncated in an earlier run, never merged, does not stop a
// later run's children, and a parent that has truncated starts a new
// run's children all dead.
func TestChildStopRuleScope(t *testing.T) {
	parent := newStopParent(20)
	failed := parent.newChildren(2)
	for n := 0; n < 40; n++ {
		decode(failed[0], n)
	}
	if !failed[0].truncated || !failed[1].stopped() {
		t.Fatal("a truncated child did not stop the child after it")
	}
	later := parent.newChildren(2)
	if later[0].stopped() || later[1].stopped() {
		t.Error("a failed run's truncation stopped a later run's children")
	}
	parent.truncated = true
	for i, c := range parent.newChildren(2) {
		if !c.stopped() {
			t.Errorf("child %d of a truncated parent is live", i)
		}
	}
}

// TestAbsorbTruncatesLikeEmit: the one-copy merge keeps exactly the
// events, and sets exactly the truncation, of per-event emit, for a
// child just under, exactly at and just over the parent's room, for a
// child that truncated itself, for an uncapped parent, and for a parent
// that has already truncated.
func TestAbsorbTruncatesLikeEmit(t *testing.T) {
	child := func(n int, truncated bool) *Tracer {
		c := &Tracer{max: -1, truncated: truncated}
		for i := 0; i < n; i++ {
			c.events = append(c.events, traceEvent{Name: nameStall, Ph: 'X', Pid: 1, Tid: tidStall,
				Start: uint64(2 * i), End: uint64(2*i + 1)})
		}
		return c
	}
	const maxEvents = 30
	room := maxEvents - 9 // the parent holds 9 metadata events
	for _, c := range []struct {
		max, n          int
		childTruncated  bool
		parentTruncated bool
	}{
		{maxEvents, room - 1, false, false},
		{maxEvents, room, false, false},
		{maxEvents, room + 1, false, false},
		{maxEvents, room - 1, true, false},
		{maxEvents, 0, false, false},
		{5, 0, false, false},
		{5, 3, false, false},
		{-1, 100, false, false},
		{maxEvents, 3, false, true},
	} {
		t.Run(fmt.Sprintf("max=%d/n=%d/child-trunc=%v/parent-trunc=%v", c.max, c.n, c.childTruncated, c.parentTruncated), func(t *testing.T) {
			got, want := newStopParent(c.max), newStopParent(c.max)
			got.truncated, want.truncated = c.parentTruncated, c.parentTruncated
			got.absorb(child(c.n, c.childTruncated), 1000)
			emitAbsorb(want, child(c.n, c.childTruncated), 1000)
			if len(got.events) != len(want.events) || got.truncated != want.truncated {
				t.Fatalf("absorb kept %d events (truncated %v), emit %d (truncated %v)",
					len(got.events), got.truncated, len(want.events), want.truncated)
			}
			for i := range got.events {
				if got.events[i] != want.events[i] {
					t.Fatalf("event %d: absorb %+v, emit %+v", i, got.events[i], want.events[i])
				}
			}
		})
	}
}
