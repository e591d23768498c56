package main

import (
	"math/rand"
	"runtime"
	"sort"
	"syscall"
	"time"
	"unsafe"
)

// The host probe sets the speed the benchmark's CPU times are reported
// at. CPU time leaves out steal, but not the cost of sharing caches and
// cores with other guests, and on the shared two-core host that cost
// wanders by up to 1.8x over tens of minutes: ten composite runs spread
// 47% in CPU time across one such swing. The probe is a fixed kernel
// that runs no repository code, sorting a fixed shuffled slice, timed
// in CPU time beside the work. Of the kernels tried (SHA-256, pointer
// chases over 2 and 16 MB, map lookups, a toy interpreter, sorting),
// sorting followed the simulator most closely: over 45 windows of 20 s
// its time moved with the simulator's at correlation 0.94-0.97, and the
// simulator's CPU time divided by it spread 6-9% where the raw time
// spread 22-24%. A time t measured beside probe median p is reported as
// t x refProbeNs / p: the time at the host speed at which the probe
// takes refProbeNs.
const (
	probeInts = 40_000

	// refProbeNs is the probe's CPU time on the host the benchmark was
	// defined on when that host was quiet. It fixes the unit of the
	// reported times and nothing else.
	refProbeNs = 3e6

	// probeEvery is the probe's period beside work it cannot interleave
	// with (vaxd-mix's vaxd process): about a tenth of one core.
	probeEvery = 30 * time.Millisecond
)

type probe struct {
	src, dst []int
	samples  []float64 // CPU ns per pass
}

func newProbe() *probe {
	rng := rand.New(rand.NewSource(1))
	p := &probe{src: make([]int, probeInts), dst: make([]int, probeInts)}
	for i := range p.src {
		p.src[i] = rng.Int()
	}
	return p
}

// run times one pass of the kernel on this goroutine's thread alone.
func (p *probe) run() {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	start := threadCPUNs()
	copy(p.dst, p.src)
	sort.Ints(p.dst)
	p.samples = append(p.samples, threadCPUNs()-start)
}

// sample runs the probe every probeEvery on its own goroutine until the
// returned stop is called; stop returns once the goroutine has ended.
func (p *probe) sample() (stop func()) {
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(probeEvery)
		defer tick.Stop()
		for {
			select {
			case <-quit:
				return
			case <-tick.C:
				p.run()
			}
		}
	}()
	return func() {
		close(quit)
		<-done
	}
}

// ms is the probe's median CPU time in ms.
func (p *probe) ms() float64 { return median(p.samples) / 1e6 }

// scale converts a CPU time measured beside the probe to the reference
// host speed.
func (p *probe) scale() float64 { return refProbeNs / median(p.samples) }

// clockThreadCPUTimeID is CLOCK_THREAD_CPUTIME_ID, which the syscall
// package does not name. getrusage(RUSAGE_THREAD) is no substitute: it
// resolves only scheduler ticks.
const clockThreadCPUTimeID = 3

// threadCPUNs is the CPU time of the calling thread, in ns.
func threadCPUNs() float64 {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic("clock_gettime(CLOCK_THREAD_CPUTIME_ID): " + errno.Error()) // fails only on a bad argument
	}
	return float64(ts.Nano())
}
