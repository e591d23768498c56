package runlog

// The ledger's golden schema: for every event type, the exact attribute
// keys a JSONL record may carry. TestLedgerSchema pins this against the
// constructors; Validate is reused by vaxdiag -ledger -check and CI so
// a drifting format fails loudly everywhere at once. The span schema
// (obs.SpanSchema) uses the same EventSchema and CheckAttrs, and every
// JSONL reader in the repository splits its records with Records.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sort"
)

// EventSchema lists a record kind's required and optional attribute
// keys: a ledger event type's (beyond the standard slog time/level/msg
// envelope and the ledger's seq counter), or a span kind's.
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

// CheckAttrs checks one record's attribute keys against its schema:
// every required key present, none outside Required and Optional. The
// ledger passes a record's top-level keys minus the envelope, a span
// row its attrs object.
func CheckAttrs[V any](es EventSchema, attrs map[string]V) error {
	for _, k := range es.Required {
		if _, ok := attrs[k]; !ok {
			return fmt.Errorf("missing required attribute %q", k)
		}
	}
	var extra []string
	for k := range attrs {
		if !slices.Contains(es.Required, k) && !slices.Contains(es.Optional, k) {
			extra = append(extra, k)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		return fmt.Errorf("attributes outside schema: %v", extra)
	}
	return nil
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
	for _, k := range stdKeys {
		delete(rec, k)
	}
	if err := CheckAttrs(es, rec); err != nil {
		return fmt.Errorf("%s: %w", typ, err)
	}
	return nil
}

// Records splits JSONL data into its complete records and its
// unterminated tail. A record is a newline-terminated line holding a
// non-space byte, returned as written minus its newline; blank lines
// are skipped. The tail is everything after the last newline (all of
// data when there is none): each caller decides whether it is a torn
// write to ignore or a final record to parse.
func Records(data []byte) (records [][]byte, tail []byte) {
	for {
		nl := bytes.IndexByte(data, '\n')
		if nl < 0 {
			return records, data
		}
		if line := data[:nl]; len(bytes.TrimSpace(line)) > 0 {
			records = append(records, line)
		}
		data = data[nl+1:]
	}
}

// ledgerRecords is Records for a whole ledger: a non-blank tail is its
// final record, so a truncated ledger fails to parse rather than
// silently losing its last event.
func ledgerRecords(data []byte) [][]byte {
	records, tail := Records(data)
	if len(bytes.TrimSpace(tail)) > 0 {
		records = append(records, tail)
	}
	return records
}

// lineOf returns the 1-based line of data on which rec begins; rec is
// one of ledgerRecords(data), so it shares data's backing array and
// its offset is the difference of their capacities.
func lineOf(data, rec []byte) int {
	return bytes.Count(data[:cap(data)-cap(rec)], []byte{'\n'}) + 1
}

// Validate checks a whole JSONL stream, returning the first offending
// line number (1-based) in the error. A ledger without records, blank
// lines only included, is rejected as empty.
func Validate(r io.Reader) error {
	data, err := io.ReadAll(r)
	if err != nil {
		return fmt.Errorf("reading ledger: %w", err)
	}
	records := ledgerRecords(data)
	if len(records) == 0 {
		return fmt.Errorf("empty ledger")
	}
	for _, line := range records {
		if err := ValidateLine(line); err != nil {
			return fmt.Errorf("line %d: %w", lineOf(data, line), err)
		}
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
	for _, line := range ledgerRecords(data) {
		var rec map[string]any
		if err := json.Unmarshal(line, &rec); err != nil {
			return nil, fmt.Errorf("line %d: %w", lineOf(data, line), err)
		}
		for _, k := range drop {
			delete(rec, k)
		}
		// encoding/json sorts map keys, giving the canonical order.
		enc, err := json.Marshal(rec)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineOf(data, line), err)
		}
		out.Write(enc)
		out.WriteByte('\n')
	}
	return out.Bytes(), nil
}
