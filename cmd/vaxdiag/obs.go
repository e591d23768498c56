// The -obs mode: offline verification of a vaxd data directory's
// observability invariants. Three checks, all against the same
// append-only journal the service recovers from:
//
//  1. every complete journal record validates against the golden
//     runlog event schema (a torn final line is reported, not fatal —
//     the next vaxd start truncates it);
//  2. the counters the journal implies (obs.Recompose) are printed,
//     and with -metrics URL the live /metrics counters are proven to
//     recompose exactly from them (obs.Validate);
//  3. every committed bundle's trace.jsonl validates against the span
//     schema.
//
// Exit code 1 when any check fails.

package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"vax780/internal/castore"
	"vax780/internal/obs"
	"vax780/internal/runlog"
)

func runObs(data, metricsURL string) error {
	raw, err := os.ReadFile(filepath.Join(data, "journal.jsonl"))
	if err != nil {
		return err
	}
	records, tail := runlog.Records(raw)
	switch {
	case len(tail) == len(raw) && len(raw) > 0:
		fmt.Printf("journal: single torn record (%d bytes), no complete events\n", len(raw))
	case len(tail) > 0:
		fmt.Printf("journal: torn tail (%d bytes) ignored; next vaxd start repairs it\n", len(tail))
	}
	raw = raw[:len(raw)-len(tail)]
	if len(records) > 0 {
		if err := runlog.Validate(bytes.NewReader(raw)); err != nil {
			return fmt.Errorf("journal schema: %w", err)
		}
	}
	fmt.Printf("journal: %d records, schema valid\n", len(records))

	counts, err := obs.Recompose(bytes.NewReader(raw))
	if err != nil {
		return err
	}
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Printf("recomposed counters (%d series):\n", len(keys))
	for _, k := range keys {
		fmt.Printf("  %s %g\n", k, counts[k])
	}

	if metricsURL != "" {
		live, err := fetchCounters(metricsURL)
		if err != nil {
			return err
		}
		if err := obs.Validate(live, bytes.NewReader(raw)); err != nil {
			return err
		}
		fmt.Printf("live /metrics: %d counter series recompose exactly from the journal\n", len(live))
	}

	store, err := castore.Open(data)
	if err != nil {
		return err
	}
	defer store.Close()
	bundleKeys, err := store.Keys()
	if err != nil {
		return err
	}
	traced := 0
	for _, key := range bundleKeys {
		names, err := store.Bundle(key)
		if err != nil {
			return err
		}
		hasTrace := false
		for _, n := range names {
			if n == "trace.jsonl" {
				hasTrace = true
			}
		}
		if !hasTrace {
			continue // sweep bundles carry no trace
		}
		rows, err := store.ReadFile(key, "trace.jsonl")
		if err != nil {
			return err
		}
		if err := obs.ValidateSpans(rows); err != nil {
			return fmt.Errorf("bundle %s trace: %w", key, err)
		}
		traced++
	}
	fmt.Printf("bundles: %d committed, %d traces span-schema valid\n", len(bundleKeys), traced)
	return nil
}

// fetchCounters scrapes the vaxd counter families from a /metrics
// endpoint. Counters are exactly the vaxd_*_total series; histograms
// and gauges are outside the recomposition contract.
func fetchCounters(url string) (map[string]float64, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: %s", url, resp.Status)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	live := make(map[string]float64)
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		series, valStr := line[:sp], line[sp+1:]
		family := series
		if i := strings.IndexByte(family, '{'); i >= 0 {
			family = family[:i]
		}
		if !strings.HasPrefix(family, "vaxd_") || !strings.HasSuffix(family, "_total") {
			continue
		}
		var v float64
		if _, err := fmt.Sscanf(valStr, "%g", &v); err != nil {
			return nil, fmt.Errorf("parsing %q: %w", line, err)
		}
		live[series] = v
	}
	return live, nil
}
