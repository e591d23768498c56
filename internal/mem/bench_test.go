package mem_test

import (
	"sync"
	"testing"

	"vax780/internal/machine"
	"vax780/internal/mem"
	"vax780/internal/workload"
)

// compositeRefs captures the TB probe stream and the physical reference
// stream of the paper's five experiments at 50k instructions each, once
// per process.
var compositeRefs = sync.OnceValues(func() ([]mem.VARef, []mem.Ref) {
	var va []mem.VARef
	var refs []mem.Ref
	for _, p := range workload.AllProfiles(50_000) {
		tr, err := workload.Generate(p)
		if err != nil {
			panic(err)
		}
		m := machine.New(machine.Config{}, tr.Program)
		m.Mem.Trace, m.Mem.VTrace = &mem.RefTrace{}, &mem.VATrace{}
		if err := m.Run(tr.Stream()); err != nil {
			panic(err)
		}
		va = append(va, m.Mem.VTrace.Refs...)
		refs = append(refs, m.Mem.Trace.Refs...)
	}
	return va, refs
})

// BenchmarkMemRef prices the memory system's per-reference path in
// isolation: the captured composite streams replayed through Translate
// (InsertTB on a miss, FlushProcessTB at each context switch) and the
// cache read/write paths, with no EBOX or IB around them. One op is the
// whole replay; ns/ref divides it by the references replayed.
func BenchmarkMemRef(b *testing.B) {
	va, refs := compositeRefs()
	s := mem.New(mem.Config{})
	var now uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range va {
			if r.Flush {
				s.FlushProcessTB()
			} else if _, ok := s.Translate(r.VA); !ok {
				s.InsertTB(r.VA)
			}
		}
		for _, r := range refs {
			now += 4
			switch r.Kind {
			case mem.RefDRead:
				s.DRead(r.PA, now)
			case mem.RefDWrite:
				s.DWrite(r.PA, now)
			case mem.RefIRead:
				s.IRead(r.PA, now)
			case mem.RefPTERead:
				s.PTERead(r.PA, now)
			}
		}
	}
	n := float64(b.N) * float64(len(va)+len(refs))
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/ref")
	b.ReportMetric(float64(len(va)+len(refs)), "refs/op")
}
