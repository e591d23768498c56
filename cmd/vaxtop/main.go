// Command vaxtop is a live fleet-progress viewer for a running
// measurement: it polls the /progress endpoint a vaxmon -serve (or any
// program serving Telemetry.Handler) exposes and renders the worker
// table in place — which workload each pool worker is simulating, how
// far along it is, its instruction rate and ETA, and the run-wide
// fault/retry tallies. When the run carries a host-time profiler
// (RunConfig.Profiler), vaxtop also polls /prof and appends the hot
// control-store flows — where the simulator's own time is going, live.
// The terminal handling is plain ANSI (cursor home + clear), no
// external dependencies; when stdout is not a terminal — or with
// -lines — each snapshot prints as a block instead, so vaxtop pipes
// cleanly into a log.
//
// With -jobs, vaxtop watches a vaxd service instead of a run monitor:
// the pane seeds from GET /jobs and then follows the service-wide
// GET /events SSE stream, showing every job's lifecycle (queued →
// running → done/failed/evicted/timed-out), cache hits, requeue
// counts, and the shed/drain tallies admission control is applying.
//
// Usage:
//
//	vaxtop [-url http://localhost:8780] [-interval 1s] [-once] [-lines] [-flows 5] [-jobs]
//
// -once fetches and prints a single snapshot and exits (0 when a
// snapshot was served, 1 otherwise) — usable as a health probe.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"strings"
	"time"

	"vax780"
)

func main() {
	url := flag.String("url", "http://localhost:8780", "base URL of the live monitor (vaxmon -serve)")
	interval := flag.Duration("interval", time.Second, "poll period")
	once := flag.Bool("once", false, "print one snapshot and exit")
	lines := flag.Bool("lines", false, "line mode: print snapshot blocks instead of redrawing in place")
	flows := flag.Int("flows", 5, "hot control-store flows to show from /prof (0 disables the section)")
	jobsMode := flag.Bool("jobs", false, "fleet mode: watch a vaxd service (GET /jobs + /events SSE)")
	flag.Parse()

	ansi := !*lines && !*once && stdoutIsTerminal()
	client := &http.Client{Timeout: 5 * time.Second}

	if *jobsMode {
		runFleet(client, *url, *interval, *once, *lines)
		return
	}

	for {
		snap, err := fetchProgress(client, *url)
		switch {
		case err != nil && *once:
			fmt.Fprintln(os.Stderr, "vaxtop:", err)
			os.Exit(1)
		case err != nil:
			if ansi {
				fmt.Print("\x1b[H\x1b[J")
			}
			fmt.Printf("vaxtop: %s — waiting: %v\n", *url, err)
		default:
			prof, _ := fetchProf(client, *url) // nil when no profiler attached
			if ansi {
				fmt.Print("\x1b[H\x1b[J")
			}
			fmt.Print(render(*url, snap))
			fmt.Print(renderProf(prof, *flows))
		}
		if *once {
			return
		}
		if snap != nil && snap.Final && err == nil {
			return // the run finished; leave the last frame on screen
		}
		time.Sleep(*interval)
	}
}

// stdoutIsTerminal reports whether stdout is a character device — the
// no-dependency TTY test that decides between in-place redraw and line
// mode.
func stdoutIsTerminal() bool {
	fi, err := os.Stdout.Stat()
	if err != nil {
		return false
	}
	return fi.Mode()&os.ModeCharDevice != 0
}

// fetchProgress GETs one fleet snapshot; a 503 (no run attached yet)
// comes back as an error so the caller keeps waiting.
func fetchProgress(client *http.Client, base string) (*vax780.Progress, error) {
	resp, err := client.Get(strings.TrimRight(base, "/") + "/progress")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/progress: %s", resp.Status)
	}
	var s vax780.Progress
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		return nil, fmt.Errorf("/progress: %w", err)
	}
	return &s, nil
}

// fetchProf GETs the latest host-time profile; any failure (no
// profiler attached, no workload merged yet) comes back as an error and
// the section is simply omitted.
func fetchProf(client *http.Client, base string) (*vax780.Profile, error) {
	resp, err := client.Get(strings.TrimRight(base, "/") + "/prof")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/prof: %s", resp.Status)
	}
	var p vax780.Profile
	if err := json.NewDecoder(resp.Body).Decode(&p); err != nil {
		return nil, fmt.Errorf("/prof: %w", err)
	}
	return &p, nil
}

// renderProf formats the hot-flow section under the worker table.
func renderProf(p *vax780.Profile, n int) string {
	if p == nil || n <= 0 || len(p.Flows) == 0 {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "\n  hot flows (host time, %s engine, %d cycles)\n",
		p.Engine, p.TotalCycles)
	fmt.Fprintf(&b, "  %-24s %12s %7s %10s\n", "FLOW", "CYCLES", "SHARE", "HOST MS")
	for _, f := range p.Flows {
		if n--; n < 0 {
			break
		}
		ms := "-"
		if f.Ns > 0 {
			ms = fmt.Sprintf("%.1f", f.Ns/1e6)
		}
		fmt.Fprintf(&b, "  %-24s %12d %6.2f%% %10s\n",
			f.Name, f.Cycles, 100*f.Share, ms)
	}
	return b.String()
}

// render formats one snapshot as the full display frame.
func render(url string, s *vax780.Progress) string {
	var b strings.Builder
	state := "running"
	if s.Final {
		state = "done"
	}
	fmt.Fprintf(&b, "vaxtop — %s  [%s]  elapsed %s  units %d/%d  eta %s\n",
		url, state, fmtSeconds(s.ElapsedSeconds), s.DoneUnits, s.TotalUnits,
		fmtSeconds(s.ETASeconds))
	fmt.Fprintf(&b, "  %d instructions  %d sim cycles  %s instr/s  %.1f ns/sim-cycle  faults %d  retries %d\n\n",
		s.Instrs, s.Cycles, fmtRate(s.InstrRate), s.NsPerSimCycle, s.Faults, s.Retries)
	fmt.Fprintf(&b, "  %-3s %-28s %12s %12s %12s %10s %8s %3s %3s\n",
		"W", "WORKLOAD", "INSTR", "TARGET", "CYCLES", "INSTR/S", "ETA", "F", "R")
	for _, w := range s.Workers {
		label := w.Label
		if !w.Busy {
			label = "(idle)"
		}
		fmt.Fprintf(&b, "  %-3d %-28s %12d %12d %12d %10s %8s %3d %3d\n",
			w.Worker, label, w.Instrs, w.TotalInstrs, w.Cycles,
			fmtRate(w.InstrRate), fmtSeconds(w.ETASeconds), w.Faults, w.Retries)
	}
	return b.String()
}

// fmtSeconds renders a duration estimate compactly ("-" when unknown).
func fmtSeconds(s float64) string {
	if s <= 0 {
		return "-"
	}
	d := time.Duration(s * float64(time.Second))
	if d >= time.Minute {
		return d.Round(time.Second).String()
	}
	return fmt.Sprintf("%.1fs", s)
}

// fmtRate renders an instruction rate with k/M suffixes.
func fmtRate(r float64) string {
	switch {
	case r <= 0:
		return "-"
	case r >= 1e6:
		return fmt.Sprintf("%.2fM", r/1e6)
	case r >= 1e3:
		return fmt.Sprintf("%.1fk", r/1e3)
	}
	return fmt.Sprintf("%.0f", r)
}
