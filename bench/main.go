// Command bench is the repository's benchmark. It runs four workloads
// — composite, observed, custom-seeds and vaxd-mix — each in its own
// child process after a correctness gate, and prints the end-to-end
// metrics BENCHMARK.json declares or, with -trace 1, its per-layer
// metrics. Run it from the repository root through bench/run.sh, which
// builds it and vaxd from source:
//
//	bash bench/run.sh --workload composite --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object per workload:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// Every time among the end-to-end metrics is host CPU time brought to a
// reference host speed (cpu.go and probe.go say why and how); wall times
// go to standard error. The exit status is nonzero
// when a correctness check fails or a metric cannot be measured.
// README.md explains the workloads, the metrics and the numbers
// measured so far.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"vax780/internal/runlog"
)

// clock is the harness's only wall clock; the repository admits host
// time through runlog.Clock alone.
var clock = runlog.NewClock()

// now is nanoseconds since the process started.
func now() float64 { return clock.Ns() }

const (
	// setupRuns is how many times an untraced run sets its workload up,
	// each in a fresh process, before it measures; setup_s is their
	// median.
	setupRuns = 7

	// setupProbes is how many probe passes a set-up-only child times to
	// bring its set-up CPU time to the reference host speed.
	setupProbes = 15

	// budget bounds one invocation, setups and children included.
	budget = 175 * time.Second
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	spec     string
	vaxd     string
	work     string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run (default: all four, one after another)")
	flag.Int64Var(&o.seed, "seed", 1, "input seed (1 is the working seed, 2 is held out for claims)")
	flag.Float64Var(&o.seconds, "seconds", 0, "measured window per workload (default: run_seconds of the spec)")
	flag.IntVar(&o.trace, "trace", 0, "1 runs the traced variant and prints the per-layer metrics")
	flag.StringVar(&o.spec, "spec", "BENCHMARK.json", "benchmark definition")
	flag.StringVar(&o.vaxd, "vaxd", "", "vaxd binary that vaxd-mix drives")
	flag.StringVar(&o.work, "work", ".bench_build", "scratch directory (data directories, span files)")
	child := flag.String("child", "", "internal: run the named workload in this process")
	setupOnly := flag.Bool("setup-only", false, "internal: with -child, exit once set up")
	flag.Parse()

	sp, err := loadSpec(o.spec)
	if err != nil {
		fatal(err)
	}
	if o.seconds <= 0 {
		o.seconds = float64(sp.RunSeconds)
	}
	if o.trace != 0 && o.trace != 1 {
		fatal(fmt.Errorf("-trace %d: want 0 or 1", o.trace))
	}
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		fatal(err)
	}
	if *child != "" {
		os.Exit(runChild(o, *child, *setupOnly))
	}
	names := workloadOrder
	if o.workload != "" {
		if _, ok := workloads[o.workload]; !ok {
			fatal(fmt.Errorf("unknown workload %q (have %s)", o.workload, strings.Join(workloadOrder, ", ")))
		}
		names = []string{o.workload}
	}
	ctx, cancel := context.WithTimeout(context.Background(), budget*time.Duration(len(names)))
	defer cancel()
	code := 0
	for _, name := range names {
		res, err := measureWorkload(ctx, o, sp, name)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", name, err))
		}
		printTable(name, res, sp.declaredFor(o.trace == 1))
		line, err := json.Marshal(res)
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
		if !res.Correct {
			code = 1
		}
	}
	os.Exit(code)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// result is what a run prints as its last line: one JSON object.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// measureWorkload runs one workload: in an untraced run, setupRuns
// setup-only children first, then the measuring child. It adds the
// metrics only the parent sees and checks that the metric set is
// exactly the declared one.
func measureWorkload(ctx context.Context, o options, sp *benchSpec, name string) (*result, error) {
	traced := o.trace == 1
	var setups []float64
	for i := 0; i < setupRuns && !traced; i++ {
		line, _, err := spawn(ctx, o, name, true)
		if err != nil {
			return nil, err
		}
		s, err := strconv.ParseFloat(line, 64)
		if err != nil {
			return nil, fmt.Errorf("set-up child printed %q: %w", line, err)
		}
		setups = append(setups, s)
	}
	line, rssMB, err := spawn(ctx, o, name, false)
	if err != nil {
		return nil, err
	}
	res := new(result)
	if err := json.Unmarshal([]byte(line), res); err != nil {
		return nil, fmt.Errorf("child result %q: %w", line, err)
	}
	if !traced {
		res.Metrics["setup_s"] = metricValue{Value: median(setups)}
		if _, ok := res.Metrics["rss_max_mb"]; !ok {
			res.Metrics["rss_max_mb"] = metricValue{Value: rssMB}
		}
	}
	want := sp.declaredFor(traced)
	for _, m := range want {
		v, ok := res.Metrics[m.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s not measured", m.Name)
		}
		res.Metrics[m.Name] = metricValue{Value: v.Value, Unit: m.Unit}
	}
	if len(res.Metrics) != len(want) {
		return nil, fmt.Errorf("run printed %d metrics, %d declared", len(res.Metrics), len(want))
	}
	return res, nil
}

// spawn runs this binary as a child on one workload and returns the
// last line it printed (a set-up-only child: its set-up CPU seconds; a
// measuring child: its result) and its peak resident set in MB.
func spawn(ctx context.Context, o options, name string, setupOnly bool) (last string, rssMB float64, err error) {
	self, err := os.Executable()
	if err != nil {
		return "", 0, err
	}
	args := []string{"-child", name,
		"-seed", strconv.FormatInt(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
		"-trace", strconv.Itoa(o.trace),
		"-spec", o.spec, "-vaxd", o.vaxd, "-work", o.work}
	if setupOnly {
		args = append(args, "-setup-only")
	}
	cmd := exec.CommandContext(ctx, self, args...)
	// Past the budget, kill the child's whole process group: vaxd-mix's
	// vaxd goes with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	cmd.Cancel = func() error { return syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL) }
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return "", 0, err
	}
	if err := cmd.Start(); err != nil {
		return "", 0, err
	}
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	for sc.Scan() {
		last = sc.Text()
	}
	if err := cmd.Wait(); err != nil {
		return "", 0, fmt.Errorf("child: %w", err)
	}
	if last == "" {
		return "", 0, errors.New("child printed nothing")
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rssMB = float64(ru.Maxrss) / 1024 // Linux reports KB
	}
	return last, rssMB, nil
}

// runChild sets one workload up in this process and then either prints
// the CPU seconds the set-up took at the reference host speed
// (setupOnly) or measures the workload and prints its result. The
// set-up's CPU time runs from exec, Go runtime start-up included, and
// adds that of any service the set-up started (vaxd-mix: vaxd, stopped
// once ready).
func runChild(o options, name string, setupOnly bool) int {
	setup, ok := workloads[name]
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", name)
		return 2
	}
	work, err := os.MkdirTemp(o.work, name+"-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	defer os.RemoveAll(work)
	cfg := runConfig{
		name:    name,
		seed:    o.seed,
		seconds: o.seconds,
		minOps:  minOps,
		traced:  o.trace == 1,
		vaxd:    o.vaxd,
		work:    work,
	}
	if cfg.traced {
		cfg.minOps = minTracedOps
		cfg.spans = filepath.Join(o.work, "spans-"+name+".jsonl")
	}
	s, err := setup(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s setup: %v\n", name, err)
		return 1
	}
	setupCPU := cpuNs()
	var out *outcome
	if !setupOnly {
		out, err = s.measure()
	}
	if cerr := s.close(); err == nil {
		err = cerr
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
		return 1
	}
	if setupOnly {
		host := newProbe()
		for i := 0; i < setupProbes; i++ {
			host.run()
		}
		fmt.Println(strconv.FormatFloat((setupCPU+s.serviceCPUNs())*host.scale()/1e9, 'g', -1, 64))
		return 0
	}
	for _, e := range out.errs {
		fmt.Fprintf(os.Stderr, "bench: %s: correctness: %s\n", name, e)
	}
	res := result{
		Correct:   len(out.errs) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]metricValue),
	}
	for k, v := range out.metrics {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(os.Stderr, "bench: %s: %s could not be measured (too few samples?)\n", name, k)
			return 1
		}
		res.Metrics[k] = metricValue{Value: v}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

func printTable(name string, res *result, decl []metricDecl) {
	fmt.Printf("%s: correct=%v attempted=%d failed=%d\n", name, res.Correct, res.Attempted, res.Failed)
	for _, m := range decl {
		v := res.Metrics[m.Name]
		fmt.Printf("  %-32s %14.4f %s\n", m.Name, v.Value, v.Unit)
	}
}
