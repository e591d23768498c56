// Command vaxtrace generates a workload and dumps its executed
// instruction trace in VAX MACRO syntax, with the overhead events
// interleaved — a window into exactly what the simulated 11/780 runs.
//
// Usage:
//
//	vaxtrace [-workload NAME] [-n INSTRUCTIONS] [-head N]
//	         [-save FILE] [-load FILE] [-sim-trace FILE]
//
// -save archives the generated trace (program image + items) for
// bit-identical replay; -load dumps a previously saved trace instead of
// generating one. -sim-trace additionally executes the trace on an
// instrumented machine and writes a Chrome trace-event JSON of the
// microcode activity, loadable in chrome://tracing or Perfetto.
package main

import (
	"flag"
	"fmt"
	"os"

	"vax780/internal/machine"
	"vax780/internal/mem"
	"vax780/internal/telemetry"
	"vax780/internal/upc"
	"vax780/internal/vax"
	"vax780/internal/workload"
)

func main() {
	var (
		name     = flag.String("workload", "TIMESHARING-A", "workload name")
		n        = flag.Int("n", 5_000, "instructions to generate")
		head     = flag.Int("head", 120, "trace items to print")
		save     = flag.String("save", "", "archive the trace to FILE")
		load     = flag.String("load", "", "dump a previously saved trace instead of generating")
		simTrace = flag.String("sim-trace", "", "execute the trace and write a Chrome trace-event JSON to FILE")
		traceMax = flag.Int("trace-max", 2_000_000, "cap on retained trace events (-1 = unlimited)")
	)
	flag.Parse()
	if *n < 1 {
		fmt.Fprintf(os.Stderr, "vaxtrace: -n must be at least 1, got %d\n", *n)
		os.Exit(2)
	}
	if *simTrace != "" && *traceMax == 0 {
		// A zero cap disables the tracer, so the export could only fail:
		// refuse it before generating and simulating.
		fmt.Fprintln(os.Stderr, "vaxtrace: -trace-max 0 disables tracing; give -sim-trace a positive cap or -1 (unlimited)")
		os.Exit(2)
	}

	var tr *workload.Trace
	if *load != "" {
		f, err := os.Open(*load)
		if err != nil {
			fmt.Fprintln(os.Stderr, "vaxtrace:", err)
			os.Exit(1)
		}
		defer f.Close()
		tr, err = workload.ReadTrace(f)
		if err != nil {
			fmt.Fprintln(os.Stderr, "vaxtrace:", err)
			os.Exit(1)
		}
	} else {
		p, err := profileByName(*name, *n)
		if err != nil {
			fmt.Fprintln(os.Stderr, "vaxtrace:", err)
			os.Exit(2)
		}
		tr, err = workload.Generate(p)
		if err != nil {
			fmt.Fprintln(os.Stderr, "vaxtrace:", err)
			os.Exit(1)
		}
	}
	if *save != "" {
		f, err := os.Create(*save)
		if err != nil {
			fmt.Fprintln(os.Stderr, "vaxtrace:", err)
			os.Exit(1)
		}
		if _, err := tr.WriteTo(f); err != nil {
			fmt.Fprintln(os.Stderr, "vaxtrace:", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "vaxtrace:", err)
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, "trace archived to", *save)
	}

	fmt.Printf("%s: %d items, %d instructions, %d bytes of code\n\n",
		tr.Name, len(tr.Items), tr.Instructions(), tr.Program.Bytes())

	printed := 0
	for _, it := range tr.Items {
		if printed >= *head {
			break
		}
		printed++
		switch it.Kind {
		case workload.KindInterrupt:
			fmt.Printf("          ========== interrupt -> %08X ==========\n", it.HandlerPC)
		case workload.KindInstr:
			in := it.In
			marks := ""
			if in.Info().PCClass != vax.PCNone {
				if in.Taken {
					marks = fmt.Sprintf("  ; taken -> %08X", in.Target)
				} else {
					marks = "  ; not taken"
				}
			}
			if in.SIRR {
				marks += "  ; posts software interrupt"
			}
			fmt.Printf("%08X  %s%s\n", in.PC, vax.Disasm(in), marks)
		}
	}

	fmt.Printf("\n(%d more items)\n", len(tr.Items)-printed)
	printSummary(tr)

	if *simTrace != "" {
		if err := writeSimTrace(tr, *simTrace, *traceMax); err != nil {
			fmt.Fprintln(os.Stderr, "vaxtrace:", err)
			os.Exit(1)
		}
	}
}

// writeSimTrace executes the trace on an instrumented machine and
// exports the collected Chrome trace-event JSON.
func writeSimTrace(tr *workload.Trace, path string, maxEvents int) error {
	tel := telemetry.New(telemetry.Options{ROM: machine.ROM(), TraceMaxEvents: maxEvents})
	mon := upc.New()
	mon.Start()
	m := machine.New(machine.Config{Mem: mem.Config{}, Monitor: mon, Telemetry: tel}, tr.Program)
	if err := m.Run(tr.Stream()); err != nil {
		return err
	}
	tel.Finish()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tel.WriteTrace(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "Chrome trace of %d instructions (%d cycles) written to %s\n",
		m.Stats.Instrs, m.E.Now, path)
	return nil
}

func profileByName(name string, n int) (workload.Profile, error) {
	for _, p := range workload.AllProfiles(n) {
		if p.Name == name {
			return p, nil
		}
	}
	return workload.Profile{}, fmt.Errorf("unknown workload %q", name)
}

func printSummary(tr *workload.Trace) {
	var bytes, count int
	var groups [vax.NumGroups]int
	for _, it := range tr.Items {
		if it.Kind != workload.KindInstr {
			continue
		}
		count++
		bytes += it.In.Size()
		groups[it.In.Info().Group]++
	}
	fmt.Printf("\naverage instruction size: %.2f bytes\n", float64(bytes)/float64(count))
	fmt.Println("group mix:")
	for g := vax.Group(0); g < vax.NumGroups; g++ {
		fmt.Printf("  %-10s %6.2f%%\n", g, 100*float64(groups[g])/float64(count))
	}
}
