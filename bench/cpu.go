package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"syscall"
)

// The benchmark's times are host CPU times, user plus system. On a
// shared virtual machine the hypervisor now and then runs another guest
// on this guest's CPUs; the kernel counts that time as steal and leaves
// it out of every process's CPU time, while wall time keeps running. In
// a 4-minute series of the paper composite at Parallelism 1 on the
// two-core host, steal took 0.4-19% of the host's CPU time from one
// 10 s window to the next; the windows' wall-time p50 moved 178-266 ms
// with it, the CPU-time p50 only 179-213 ms. What CPU time still feels
// of the other guests, the host probe (probe.go) takes out.

// cpuNs is the CPU time this process has used since it started, in ns.
func cpuNs() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage(RUSAGE_SELF): %v", err)) // fails only on a bad argument
	}
	return rusageNs(&ru)
}

// rusageNs is the CPU time a resource-usage record holds, in ns.
func rusageNs(ru *syscall.Rusage) float64 {
	return float64(ru.Utime.Nano() + ru.Stime.Nano())
}

// clockTicksPerS is USER_HZ, the unit of the CPU times in /proc: 100 on
// every Linux architecture Go supports.
const clockTicksPerS = 100

// procCPUNs reads the CPU time a running process has used so far from
// /proc/<pid>/stat, to the 10 ms the file resolves.
func procCPUNs(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseStatCPU(string(data))
}

// parseStatCPU returns utime+stime, in ns, from the text of a
// /proc/<pid>/stat file. The command name (field 2) is in parentheses
// and may hold spaces, so fields are counted after its closing one:
// field 3 (state) comes first, utime and stime are fields 14 and 15.
func parseStatCPU(stat string) (float64, error) {
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, fmt.Errorf("/proc stat %.40q: no command name", stat)
	}
	f := strings.Fields(stat[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("/proc stat: %d fields after the command name, want at least 13", len(f))
	}
	var ticks float64
	for _, s := range f[11:13] {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("/proc stat: %w", err)
		}
		ticks += float64(v)
	}
	return ticks * 1e9 / clockTicksPerS, nil
}
