package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"testing"

	"vax780"
	"vax780/internal/castore"
	"vax780/internal/obs"
	"vax780/internal/runlog"
)

// fuzzJournal builds a journal from a fuzz plan. Each plan byte writes
// one record: its low two bits pick job-queued, job-start, job-done or
// the next line of junk; the next two bits pick one of four jobs; the
// high bits pick the tenant or the terminal state. Any plan order is
// allowed, so records come duplicated and out of lifecycle order.
// Junk lines the plan does not consume end the journal as written,
// without a final newline — a torn tail when they are not blank.
func fuzzJournal(plan, junk []byte) []byte {
	const maxPlan = 64
	if len(plan) > maxPlan {
		plan = plan[:maxPlan]
	}
	states := []string{"done", "failed", "evicted", "timed-out"}
	lines := bytes.Split(junk, []byte("\n"))
	var buf bytes.Buffer
	led := runlog.New(&buf)
	for _, b := range plan {
		n := int(b>>2&3) + 1
		id := fmt.Sprintf("j-%06d", n)
		spec := tinySpec(1000 + n)
		key, _ := spec.Key()
		switch b & 3 {
		case 0:
			tenant := []string{"", "alice"}[b>>4&1]
			led.Emit(runlog.JobQueuedEvent(id, key, tenant, 0, spec))
		case 1:
			led.Emit(runlog.JobStartEvent(id, key, int(b>>4)))
		case 2:
			led.Emit(runlog.JobDoneEvent(id, key, states[b>>4&3], "", b&0x40 != 0, 0, 0, 0))
		case 3:
			if len(lines) > 0 {
				buf.Write(lines[0])
				buf.WriteByte('\n')
				lines = lines[1:]
			}
		}
	}
	buf.Write(bytes.Join(lines, []byte("\n")))
	return buf.Bytes()
}

// queuedIDs is the recovery oracle: the sorted, distinct IDs of the
// journal's complete job-queued records whose spec decodes. A record
// whose spec does not decode is skipped, never fatal.
func queuedIDs(journal []byte) []string {
	seen := map[string]bool{}
	records, _ := runlog.Records(journal)
	for _, line := range records {
		var rec journalRec
		if json.Unmarshal(line, &rec) != nil || rec.Msg != runlog.EvJobQueued {
			continue
		}
		var spec Spec
		if json.Unmarshal(rec.Spec, &spec) != nil {
			continue
		}
		seen[rec.ID] = true
	}
	ids := make([]string, 0, len(seen))
	for id := range seen {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

var errStubRun = errors.New("stub runner")

// FuzzRecover: a manager opened on whatever job records a journal
// holds — duplicated, reordered, foreign or torn — must not panic,
// must list exactly the jobs that have a decodable job-queued record,
// each once, and its counters must recompose from the journal
// (obs.Validate) once the requeued jobs have run through a stub runner.
func FuzzRecover(f *testing.F) {
	f.Add([]byte{}, []byte{})
	// A clean lifecycle, then a job that crashed mid-run.
	f.Add([]byte{0x00, 0x01, 0x02, 0x04, 0x05}, []byte{})
	// Duplicated queued and start records; done before queued; a start
	// for a job never queued.
	f.Add([]byte{0x00, 0x00, 0x01, 0x01, 0x06, 0x04, 0x09, 0x12, 0x10}, []byte{})
	// Foreign lines, blank lines and a torn tail around real records.
	f.Add([]byte{0x03, 0x00, 0x03, 0x01, 0x03, 0x22},
		[]byte("not json\n\n{\"msg\":\"drain\",\"reason\":\"x\",\"requeued\":1}\n{\"msg\":\"job-qu"))
	// A foreign-written sweep job, requeued through the stub sweeper.
	f.Add([]byte{0x03, 0x00},
		[]byte(`{"msg":"job-queued","id":"j-000042","key":"k","spec":{"points":[{"label":"a"}]}}`))
	// A job-queued record without a spec: recovery skips it and keeps
	// the other jobs.
	f.Add([]byte{0x00, 0x03}, []byte(`{"msg":"job-queued","id":"j-000043"}`+"\n"))

	f.Fuzz(func(t *testing.T, plan, junk []byte) {
		journal := fuzzJournal(plan, junk)
		root := filepath.Join(t.TempDir(), "store")
		if err := os.MkdirAll(root, 0o755); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(root, "journal.jsonl")
		if err := os.WriteFile(path, journal, 0o644); err != nil {
			t.Fatal(err)
		}
		store, err := castore.Open(root)
		if err != nil {
			t.Fatal(err)
		}
		defer store.Close()

		want := queuedIDs(journal)
		met := obs.NewMetrics()
		m, err := New(Config{
			Store:   store,
			Metrics: met,
			Runner: func(context.Context, vax780.RunConfig) (*vax780.Results, error) {
				return nil, errStubRun
			},
			Sweeper: func(context.Context, []vax780.SweepPoint, vax780.SweepOptions) []vax780.SweepResult {
				return []vax780.SweepResult{{Label: "stub", Err: errStubRun}}
			},
		})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		m.Close()

		var got []string
		for _, j := range m.List() {
			got = append(got, j.ID)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("recovered jobs %q, want %q", got, want)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := obs.Validate(met.Counters(), bytes.NewReader(data)); err != nil {
			t.Fatal(err)
		}
	})
}
