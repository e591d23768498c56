package runlog

// The ledger's golden schema: for every event type, the exact attribute
// keys a JSONL record may carry. TestLedgerSchema pins this against the
// constructors; Validate is reused by vaxdiag -ledger -check and CI so
// a drifting format fails loudly everywhere at once.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// EventSchema lists an event type's required and optional attribute
// keys (beyond the standard slog time/level/msg envelope and the
// ledger's seq counter).
type EventSchema struct {
	Required []string
	Optional []string
}

// stdKeys is the envelope every JSONL record carries: slog's handler
// fields plus the ledger sequence number.
var stdKeys = []string{"time", "level", "msg", "seq"}

// Schema returns the golden ledger schema, keyed by event type. The
// bus-only progress event is deliberately absent: its presence in a
// JSONL file is a validation error.
func Schema() map[string]EventSchema {
	return map[string]EventSchema{
		EvRunStart: {
			Required: []string{"config", "workloads", "count", "instructions", "faults"},
			Optional: []string{"fault_seed"},
		},
		EvResume: {
			Required: []string{"path", "restored"},
		},
		EvWlStart: {
			Required: []string{"workload", "index", "instructions"},
		},
		EvWlDone: {
			Required: []string{"workload", "index", "instructions", "cycles",
				"cpi", "retries", "saturated"},
		},
		EvCheckpoint: {
			Required: []string{"path", "records"},
		},
		EvRetry: {
			Required: []string{"workload", "index", "attempt", "cause", "upc",
				"cycle", "backoff_ms"},
		},
		EvFaults: {
			Required: []string{"workload", "index", "total", "classes"},
		},
		EvFault: {
			Required: []string{"workload", "attempts", "upc", "cycle", "site",
				"cause", "transient", "flight"},
		},
		EvProf: {
			Required: []string{"engine", "cycles", "flows"},
			Optional: []string{"host"},
		},
		EvRunDone: {
			Required: []string{"workloads", "instructions", "cycles", "cpi",
				"retries", "resumed", "faults", "table8", "host"},
			Optional: []string{"prof"},
		},
		EvSweepStart: {
			Required: []string{"points"},
		},
		EvPointDone: {
			Required: []string{"label", "index", "instructions", "cycles",
				"cpi", "error"},
		},
		EvSweepDone: {
			Required: []string{"points", "errors"},
		},
		EvJobQueued: {
			Required: []string{"id", "key", "tenant", "deadline_ms", "spec"},
		},
		EvJobStart: {
			Required: []string{"id", "key", "requeues"},
		},
		EvJobDone: {
			Required: []string{"id", "key", "state", "cause", "cached",
				"instructions", "cycles", "cpi"},
		},
		EvDrain: {
			Required: []string{"reason", "requeued"},
		},
		EvJobHTTP: {
			Required: []string{"id", "route", "tenant", "status"},
			// The request duration is wall-clock data; StripWallClock
			// removes the host group, so it cannot be required.
			Optional: []string{"host"},
		},
		EvJobShed: {
			Required: []string{"tenant", "reason"},
		},
		EvCommitRace: {
			Required: []string{"key"},
		},
		EvJournalTorn: {
			Required: []string{"records"},
		},
	}
}

// ValidateLine checks one JSONL record against the golden schema:
// envelope present, known event type, all required attributes present,
// no attributes outside the schema.
func ValidateLine(line []byte) error {
	var rec map[string]json.RawMessage
	if err := json.Unmarshal(line, &rec); err != nil {
		return fmt.Errorf("not a JSON object: %w", err)
	}
	var typ string
	if raw, ok := rec["msg"]; !ok {
		return fmt.Errorf("missing msg field")
	} else if err := json.Unmarshal(raw, &typ); err != nil {
		return fmt.Errorf("msg is not a string: %w", err)
	}
	es, ok := Schema()[typ]
	if !ok {
		return fmt.Errorf("unknown event type %q", typ)
	}
	allowed := make(map[string]bool, len(stdKeys)+len(es.Required)+len(es.Optional))
	for _, k := range stdKeys {
		allowed[k] = true
	}
	for _, k := range es.Required {
		allowed[k] = true
		if _, ok := rec[k]; !ok {
			return fmt.Errorf("%s: missing required attribute %q", typ, k)
		}
	}
	for _, k := range es.Optional {
		allowed[k] = true
	}
	var extra []string
	for k := range rec {
		if !allowed[k] {
			extra = append(extra, k)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		return fmt.Errorf("%s: attributes outside schema: %v", typ, extra)
	}
	return nil
}

// Validate checks a whole JSONL stream, returning the first offending
// line number (1-based) in the error.
func Validate(r io.Reader) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	n := 0
	for sc.Scan() {
		n++
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		if err := ValidateLine(line); err != nil {
			return fmt.Errorf("line %d: %w", n, err)
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("reading ledger: %w", err)
	}
	if n == 0 {
		return fmt.Errorf("empty ledger")
	}
	return nil
}

// StripWallClock canonicalizes a JSONL ledger for determinism
// comparison: Canonicalize with the wall-clock attributes — the slog
// timestamp on every record and the host self-profile group (both
// measure the host, not the simulation). Two runs of the same
// configuration must strip to identical bytes regardless of
// parallelism.
func StripWallClock(data []byte) ([]byte, error) {
	return Canonicalize(data, "time", "host")
}

// Canonicalize re-encodes a JSONL stream for byte comparison: each
// record's named top-level keys are dropped and the rest re-encoded
// with sorted keys, one record per line. Blank lines are skipped. A
// final line without its newline is still a record — a complete one is
// kept, a torn one fails to parse — so a truncated stream is reported,
// never silently shortened. Errors name the 1-based input line.
func Canonicalize(data []byte, drop ...string) ([]byte, error) {
	var out bytes.Buffer
	for i, line := range bytes.Split(data, []byte{'\n'}) {
		line = bytes.TrimSpace(line)
		if len(line) == 0 {
			continue
		}
		var rec map[string]any
		if err := json.Unmarshal(line, &rec); err != nil {
			return nil, fmt.Errorf("line %d: %w", i+1, err)
		}
		for _, k := range drop {
			delete(rec, k)
		}
		// encoding/json sorts map keys, giving the canonical order.
		enc, err := json.Marshal(rec)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", i+1, err)
		}
		out.Write(enc)
		out.WriteByte('\n')
	}
	return out.Bytes(), nil
}
