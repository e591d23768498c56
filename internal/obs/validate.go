package obs

// Counter reconciliation: the Röhl-style "validated events only"
// contract for vaxd's /metrics. Every counter family in counterDefs
// moves only through Count(Rec), and countRec is a pure function of a
// journal record — so replaying the journal through the same mapping
// (Recompose) must land on exactly the live numbers. Validate proves
// it; a mismatch means a counter moved without a journal record (or a
// record was journaled without counting), which is precisely the kind
// of silent drift the paper's measurement discipline exists to catch.
// It runs in the test suite and as `vaxdiag -obs`.

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"vax780/internal/runlog"
)

// Rec is the counter-relevant projection of one journal record. The
// manager constructs it at each emit site; ParseRec recovers it from
// journal bytes; countRec maps either onto counter increments.
type Rec struct {
	Msg    string `json:"msg"`
	Tenant string `json:"tenant"`
	State  string `json:"state"`
	Reason string `json:"reason"`
	Cached bool   `json:"cached"`
	Status int    `json:"status"`
}

// ParseRec recovers the projection from one journal line.
func ParseRec(line []byte) (Rec, bool) {
	var r Rec
	if err := json.Unmarshal(line, &r); err != nil || r.Msg == "" {
		return Rec{}, false
	}
	return r, true
}

// countRec maps one record onto counter increments — the single
// definition both the live registry and the journal replay share.
// Unknown record types count nothing.
func countRec(r Rec, inc func(name, label string)) {
	switch r.Msg {
	case runlog.EvJobQueued:
		inc("vaxd_jobs_submitted_total", r.Tenant)
	case runlog.EvJobStart:
		inc("vaxd_job_starts_total", "")
	case runlog.EvJobDone:
		inc("vaxd_jobs_done_total", r.State)
		if r.Cached {
			inc("vaxd_cache_hits_total", "")
		}
	case runlog.EvJobShed:
		inc("vaxd_jobs_shed_total", r.Reason)
	case runlog.EvJobHTTP:
		inc("vaxd_requests_total", r.Tenant)
		if r.Status >= 400 {
			inc("vaxd_request_errors_total", r.Tenant)
		}
	case runlog.EvDrain:
		inc("vaxd_drains_total", "")
	case runlog.EvCommitRace:
		inc("vaxd_castore_commit_races_total", "")
	case runlog.EvJournalTorn:
		inc("vaxd_castore_torn_tails_total", "")
	}
}

// Recompose replays a journal stream through the counter mapping and
// returns the counters it implies, keyed like Metrics.Counters. An
// unterminated final line (torn tail) is ignored, matching the
// castore's replay tolerance.
func Recompose(r io.Reader) (map[string]float64, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("obs: reading journal: %w", err)
	}
	counts := make(map[string]float64)
	records, _ := runlog.Records(data)
	for _, line := range records {
		if rec, ok := ParseRec(line); ok {
			countRec(rec, func(name, label string) {
				counts[counterKey(name, label)]++
			})
		}
	}
	return counts, nil
}

// Validate proves the live counters recompose exactly from the
// journal: every recomposed series must match the live value and no
// live series may exist without journal support. The error lists all
// mismatches, sorted.
func Validate(live map[string]float64, journal io.Reader) error {
	want, err := Recompose(journal)
	if err != nil {
		return err
	}
	var bad []string
	for k, w := range want {
		if g := live[k]; g != w {
			bad = append(bad, fmt.Sprintf("%s: live %g, journal %g", k, g, w))
		}
	}
	for k, g := range live {
		if _, ok := want[k]; !ok {
			bad = append(bad, fmt.Sprintf("%s: live %g, journal 0 (no supporting events)", k, g))
		}
	}
	if len(bad) > 0 {
		sort.Strings(bad)
		return fmt.Errorf("obs: %d counter(s) do not recompose from the journal:\n  %s",
			len(bad), joinLines(bad))
	}
	return nil
}

func joinLines(s []string) string {
	out := ""
	for i, l := range s {
		if i > 0 {
			out += "\n  "
		}
		out += l
	}
	return out
}
