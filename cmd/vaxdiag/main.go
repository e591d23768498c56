// Command vaxdiag prints the simulated system's structure: the Figure 1
// block diagram, the control-store region summary, the static microcode
// verifier's verdict, and (with -listing) the full microprogram listing.
// -probes adds the telemetry layer's probe-point map: where each live
// observation is tapped and what consumes it. -lint runs the
// whole-program control-store analyzer (internal/ulint) and prints its
// attribution proof and per-flow worst-case cycle bounds.
//
// -ledger FILE switches to the run-ledger pretty-printer: the JSONL
// event stream a run wrote (vaxmon -ledger, RunConfig.Ledger) is
// validated against the golden schema and rendered one event per line.
// -ev TYPE[,TYPE...] filters to the named event types (e.g.
// "machine-fault,retry"); exit code 1 when the file fails validation.
//
// -obs DATA_DIR switches to the observability auditor: the vaxd data
// directory's journal is validated against the golden event schema,
// the counters it implies are recomposed and printed, and every
// committed bundle's trace.jsonl is checked against the span schema.
// With -metrics URL the live /metrics counters are additionally proven
// to recompose exactly from the journal (obs.Validate). Exit code 1 on
// any failed check.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"vax780"
	"vax780/internal/runlog"
)

func main() {
	listing := flag.Bool("listing", false, "print the full control store listing")
	probes := flag.Bool("probes", false, "print the telemetry probe-point map")
	lint := flag.Bool("lint", false, "run the control-store static analyzer and print flow bounds")
	ledger := flag.String("ledger", "", "pretty-print a run-ledger JSONL file instead of the system structure")
	evFilter := flag.String("ev", "", "with -ledger: only print these comma-separated event types")
	obsDir := flag.String("obs", "", "audit a vaxd data directory's observability invariants (journal, counters, traces)")
	metricsURL := flag.String("metrics", "", "with -obs: prove this live /metrics endpoint recomposes from the journal")
	flag.Parse()

	if *obsDir != "" {
		if err := runObs(*obsDir, *metricsURL); err != nil {
			fmt.Fprintln(os.Stderr, "vaxdiag:", err)
			os.Exit(1)
		}
		return
	}

	if *ledger != "" {
		if err := printLedger(*ledger, *evFilter); err != nil {
			fmt.Fprintln(os.Stderr, "vaxdiag:", err)
			os.Exit(1)
		}
		return
	}

	fmt.Println(vax780.BlockDiagram())
	if *probes {
		fmt.Println(vax780.DescribeTelemetryProbes())
		fmt.Println()
	}
	fmt.Println(vax780.ControlStoreSummary())

	issues := vax780.VerifyMicrocode()
	if len(issues) == 0 {
		fmt.Println("microcode verifier: clean")
	} else {
		fmt.Printf("microcode verifier: %d issues\n", len(issues))
		for _, i := range issues {
			fmt.Println(" ", i)
		}
		defer os.Exit(1)
	}

	if *lint {
		rep := vax780.LintControlStore()
		fmt.Println()
		fmt.Println(rep.Summary())
		for _, f := range rep.Findings {
			fmt.Println(" ", f)
		}
		fmt.Println()
		fmt.Println("per-flow worst-case cycle bounds (stalls excluded):")
		for _, b := range rep.Bounds {
			fmt.Println(" ", b)
		}
		if !rep.Proven() || len(rep.Errors()) > 0 {
			defer os.Exit(1)
		}
	}

	if *listing {
		fmt.Println()
		fmt.Println(vax780.ControlStoreListing())
	}
}

// printLedger validates and renders a run-ledger JSONL file: one line
// per event — sequence, time, event type, then the event's own
// attributes in sorted key order (envelope fields elided).
func printLedger(path, evFilter string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := vax780.ValidateLedger(data); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	keep := map[string]bool{}
	for _, t := range strings.Split(evFilter, ",") {
		if t = strings.TrimSpace(t); t != "" {
			keep[t] = true
		}
	}

	// Validation parsed a non-blank tail as the final record.
	records, tail := runlog.Records(data)
	if len(bytes.TrimSpace(tail)) > 0 {
		records = append(records, tail)
	}
	for _, line := range records {
		var rec map[string]any
		if err := json.Unmarshal(line, &rec); err != nil {
			return err
		}
		ev, _ := rec["msg"].(string)
		if len(keep) > 0 && !keep[ev] {
			continue
		}
		seq, _ := rec["seq"].(float64)
		tstamp, _ := rec["time"].(string)
		keys := make([]string, 0, len(rec))
		for k := range rec {
			switch k {
			case "time", "level", "msg", "seq":
				continue
			}
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var b strings.Builder
		fmt.Fprintf(&b, "%4.0f  %s  %-18s", seq, tstamp, ev)
		for _, k := range keys {
			fmt.Fprintf(&b, "  %s=%s", k, renderValue(rec[k]))
		}
		fmt.Println(b.String())
	}
	return nil
}

// renderValue compacts one attribute for the single-line rendering:
// scalars as-is, structures re-marshaled (the flight snapshot of a
// machine-fault event stays one JSON blob on the line).
func renderValue(v any) string {
	switch x := v.(type) {
	case string:
		return x
	case float64:
		if x == float64(int64(x)) {
			return fmt.Sprintf("%d", int64(x))
		}
		return fmt.Sprintf("%.3f", x)
	case bool:
		return fmt.Sprintf("%t", x)
	}
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Sprintf("%v", v)
	}
	return string(b)
}
