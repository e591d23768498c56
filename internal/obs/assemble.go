package obs

// AssembleJob builds the end-to-end trace the /trace/{jobid} endpoint
// serves: service spans (job → http / queue → attempt) reconstructed
// from the vaxd journal, with the bundle's deterministic run trace
// re-rooted under the attempt that produced it. The journal carries
// every life of a requeued job, so a kill-and-restart job assembles
// into one connected tree: the first attempt ends evicted, the second
// begins with a resume span, and both hang off the same job span.
//
// Wall placement comes from the journal's slog timestamps (parsed,
// never read from a clock here — obs stays under the determinism
// analyzer), normalized so the earliest span starts at zero.

import (
	"encoding/json"
	"fmt"
	"io"

	"time"
	"vax780/internal/runlog"
)

// journalEv is the union of journal attributes assembly needs.
type journalEv struct {
	Time     string `json:"time"`
	Msg      string `json:"msg"`
	ID       string `json:"id"`
	Key      string `json:"key"`
	Tenant   string `json:"tenant"`
	State    string `json:"state"`
	Cause    string `json:"cause"`
	Route    string `json:"route"`
	Status   int    `json:"status"`
	Cached   bool   `json:"cached"`
	Requeues int    `json:"requeues"`
	Host     struct {
		DurNs float64 `json:"dur_ns"`
	} `json:"host"`
}

// AssembleJob assembles one job's causal trace from the journal
// stream and, when the job committed a bundle, its trace.jsonl bytes
// (pass nil when absent). The returned trace ID is "job-" + jobID.
func AssembleJob(journal io.Reader, jobID string, bundleTrace []byte) (string, *Span, error) {
	data, err := io.ReadAll(journal)
	if err != nil {
		return "", nil, fmt.Errorf("obs: reading journal: %w", err)
	}
	var evs []journalEv
	var times []time.Time
	records, _ := runlog.Records(data)
	for _, line := range records {
		rec, ok := parseJournalEv(line)
		if !ok || rec.ID != jobID {
			continue
		}
		t, err := time.Parse(time.RFC3339Nano, rec.Time)
		if err != nil {
			return "", nil, fmt.Errorf("obs: journal timestamp %q: %w", rec.Time, err)
		}
		evs = append(evs, rec)
		times = append(times, t)
	}
	if len(evs) == 0 {
		return "", nil, fmt.Errorf("obs: no journal events for job %q", jobID)
	}

	trace := "job-" + jobID
	base := times[0]
	ns := func(i int) float64 { return float64(times[i].Sub(base).Nanoseconds()) }

	job := (&Span{Kind: "job", Name: jobID}).Attr("id", jobID).Attr("state", "queued")
	var cur *Span   // open attempt span
	var final *Span // attempt that reached a terminal state
	var curStart, boundary float64
	life := 0
	for i, ev := range evs {
		switch ev.Msg {
		case runlog.EvJobQueued:
			job.Attr("key", ev.Key).Attr("tenant", ev.Tenant)
			boundary = ns(i)
		case runlog.EvJobHTTP:
			h := job.Child("http", ev.Route).
				Attr("route", ev.Route).Attr("status", ev.Status)
			if ev.Tenant != "" {
				h.Attr("tenant", ev.Tenant)
			}
			// The record is written when the request settles; the span
			// starts one measured duration earlier.
			h.SetWall(ns(i)-ev.Host.DurNs, ev.Host.DurNs)
		case runlog.EvJobStart:
			q := job.Child("queue", fmt.Sprintf("queued (life %d)", life)).
				Attr("life", life)
			q.SetWall(boundary, ns(i)-boundary)
			cur = job.Child("attempt", fmt.Sprintf("attempt %d", life)).
				Attr("life", life)
			curStart = ns(i)
			job.Attr("state", "running").Attr("requeues", ev.Requeues)
			life++
		case runlog.EvJobDone:
			job.Attr("state", ev.State)
			if ev.Cause != "" {
				job.Attr("cause", ev.Cause)
			}
			if ev.Cached {
				job.Attr("cached", true)
			}
			if cur != nil {
				cur.Attr("state", ev.State)
				if ev.Cause != "" {
					cur.Attr("cause", ev.Cause)
				}
				cur.SetWall(curStart, ns(i)-curStart)
				if ev.State != "evicted" {
					final = cur
				}
				cur = nil
			}
			boundary = ns(i)
		}
	}
	if cur != nil {
		// Job still running: close the attempt at the last known event.
		cur.Attr("state", "running")
		cur.SetWall(curStart, ns(len(evs)-1)-curStart)
	}

	if len(bundleTrace) > 0 && final != nil {
		_, runRoot, err := ParseRows(bundleTrace)
		if err != nil {
			return "", nil, fmt.Errorf("obs: bundle trace for job %q: %w", jobID, err)
		}
		// Flatten recomputes every path and ID from the new shape, so
		// the grafted rows stay schema-valid under the service trace's
		// ID scheme.
		final.Adopt(runRoot)
	}

	normalizeWall(job)
	return trace, job, nil
}

// parseJournalEv decodes one line, tolerating non-job records.
func parseJournalEv(line []byte) (journalEv, bool) {
	var ev journalEv
	if err := json.Unmarshal(line, &ev); err != nil || ev.Msg == "" {
		return journalEv{}, false
	}
	return ev, true
}

// normalizeWall shifts all wall-placed spans so the earliest starts at
// zero, and gives the root the enclosing window. Run spans (no wall
// data) are untouched.
func normalizeWall(root *Span) {
	minStart := 0.0
	maxEnd := 0.0
	first := true
	var scan func(s *Span)
	scan = func(s *Span) {
		if s.DurNs > 0 {
			if first || s.StartNs < minStart {
				minStart = s.StartNs
			}
			if end := s.StartNs + s.DurNs; first || end > maxEnd {
				maxEnd = end
			}
			first = false
		}
		for _, c := range s.children {
			scan(c)
		}
	}
	scan(root)
	if first {
		return // nothing wall-placed
	}
	var shift func(s *Span)
	shift = func(s *Span) {
		if s.DurNs > 0 {
			s.StartNs -= minStart
		}
		for _, c := range s.children {
			shift(c)
		}
	}
	shift(root)
	root.SetWall(0, maxEnd-minStart)
}
