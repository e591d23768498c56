package castore

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"vax780/internal/runlog"
)

func openStore(t *testing.T) *Store {
	t.Helper()
	s, err := Open(filepath.Join(t.TempDir(), "store"))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestStageCommitRoundTrip(t *testing.T) {
	s := openStore(t)
	st, err := s.Stage("j-000001")
	if err != nil {
		t.Fatalf("Stage: %v", err)
	}
	if err := st.WriteFile("report.txt", []byte("CPI 10.6\n")); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	if err := st.WriteFile("meta.json", []byte("{}\n")); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	if s.Has("deadbeef") {
		t.Fatal("Has before commit")
	}
	if err := st.Commit("deadbeef"); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	if !s.Has("deadbeef") {
		t.Fatal("Has after commit = false")
	}
	names, err := s.Bundle("deadbeef")
	if err != nil {
		t.Fatalf("Bundle: %v", err)
	}
	if want := []string{"meta.json", "report.txt"}; fmt.Sprint(names) != fmt.Sprint(want) {
		t.Fatalf("Bundle = %v, want %v", names, want)
	}
	data, err := s.ReadFile("deadbeef", "report.txt")
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if !bytes.Equal(data, []byte("CPI 10.6\n")) {
		t.Fatalf("ReadFile = %q", data)
	}
	// Staging directory is gone after commit.
	if _, err := os.Stat(st.Dir()); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("staging dir survives commit: %v", err)
	}
}

func TestCommitFirstWriterWins(t *testing.T) {
	s := openStore(t)
	a, _ := s.Stage("j-000001")
	b, _ := s.Stage("j-000002")
	if err := a.WriteFile("report.txt", []byte("first\n")); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteFile("report.txt", []byte("second\n")); err != nil {
		t.Fatal(err)
	}
	if err := a.Commit("cafef00d"); err != nil {
		t.Fatalf("first Commit: %v", err)
	}
	if err := b.Commit("cafef00d"); err != nil {
		t.Fatalf("second Commit: %v", err)
	}
	data, err := s.ReadFile("cafef00d", "report.txt")
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "first\n" {
		t.Fatalf("bundle content = %q, want the first writer's", data)
	}
	if _, err := os.Stat(b.Dir()); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("loser's staging dir not discarded")
	}
	races := s.TakeCommitRaces()
	if len(races) != 1 || races[0] != "cafef00d" {
		t.Fatalf("TakeCommitRaces = %v, want [cafef00d]", races)
	}
	if again := s.TakeCommitRaces(); len(again) != 0 {
		t.Fatalf("TakeCommitRaces did not drain: %v", again)
	}
}

func TestCommitRace(t *testing.T) {
	s := openStore(t)
	const n = 8
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		st, err := s.Stage(fmt.Sprintf("j-%06d", i+1))
		if err != nil {
			t.Fatal(err)
		}
		if err := st.WriteFile("x", []byte(fmt.Sprintf("writer %d\n", i))); err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := st.Commit("abcd1234"); err != nil {
				t.Errorf("Commit: %v", err)
			}
		}()
	}
	wg.Wait()
	if !s.Has("abcd1234") {
		t.Fatal("no bundle after racing commits")
	}
	ents, _ := os.ReadDir(filepath.Join(s.Root(), "staging"))
	if len(ents) != 0 {
		t.Fatalf("%d staging dirs survive the race", len(ents))
	}
	if races := s.TakeCommitRaces(); len(races) != n-1 {
		t.Fatalf("recorded %d commit races, want %d", len(races), n-1)
	}
}

func TestRepairJournalTornTail(t *testing.T) {
	root := filepath.Join(t.TempDir(), "store")
	s, err := Open(root)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AppendJournal([]byte(`{"msg":"a"}`)); err != nil {
		t.Fatal(err)
	}
	s.Close()
	// Simulate a crash mid-append: a partial record with no newline.
	path := filepath.Join(root, "journal.jsonl")
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"msg":"to`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2, err := Open(root)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	n, err := s2.RepairJournal()
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("RepairJournal dropped %d records, want 1", n)
	}
	// The next append must start a fresh record, not concatenate onto
	// the torn one — the corruption repair exists to prevent.
	if err := s2.AppendJournal([]byte(`{"msg":"b"}`)); err != nil {
		t.Fatal(err)
	}
	var got []string
	if err := s2.ReplayJournal(func(line []byte) error {
		got = append(got, string(line))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	want := []string{`{"msg":"a"}`, `{"msg":"b"}`}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("journal after repair+append = %q, want %q", got, want)
	}
	// A clean journal repairs to a no-op.
	if n, err := s2.RepairJournal(); err != nil || n != 0 {
		t.Fatalf("RepairJournal on clean journal = %d, %v", n, err)
	}
}

func TestStageSurvivesReopen(t *testing.T) {
	root := filepath.Join(t.TempDir(), "store")
	s, err := Open(root)
	if err != nil {
		t.Fatal(err)
	}
	st, _ := s.Stage("j-000001")
	if err := st.WriteFile("run.ckpt", []byte("checkpoint bytes")); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2, err := Open(root)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	st2, err := s2.Stage("j-000001")
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(st2.Path("run.ckpt"))
	if err != nil {
		t.Fatalf("checkpoint lost across reopen: %v", err)
	}
	if string(data) != "checkpoint bytes" {
		t.Fatalf("checkpoint = %q", data)
	}
}

func TestInvalidNamesRejected(t *testing.T) {
	s := openStore(t)
	for _, bad := range []string{"", ".", "..", "a/b", `a\b`} {
		if _, err := s.Stage(bad); err == nil {
			t.Errorf("Stage(%q) accepted", bad)
		}
		if _, err := s.Open(bad, "x"); err == nil {
			t.Errorf("Open(%q) accepted", bad)
		}
		if _, err := s.Open("good", bad); err == nil {
			t.Errorf("Open(key, %q) accepted", bad)
		}
		if s.Has(bad) {
			t.Errorf("Has(%q) = true", bad)
		}
	}
}

func TestNoBundleSentinel(t *testing.T) {
	s := openStore(t)
	if _, err := s.Bundle("0123456789abcdef"); !errors.Is(err, ErrNoBundle) {
		t.Fatalf("Bundle err = %v, want ErrNoBundle", err)
	}
	if _, err := s.Open("0123456789abcdef", "report.txt"); !errors.Is(err, ErrNoBundle) {
		t.Fatalf("Open err = %v, want ErrNoBundle", err)
	}
}

func TestJournalAppendReplay(t *testing.T) {
	s := openStore(t)
	for i := 0; i < 3; i++ {
		if err := s.AppendJournal([]byte(fmt.Sprintf(`{"n":%d}`, i))); err != nil {
			t.Fatal(err)
		}
	}
	var got []string
	err := s.ReplayJournal(func(line []byte) error {
		got = append(got, string(line))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{`{"n":0}`, `{"n":1}`, `{"n":2}`}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("replay = %v, want %v", got, want)
	}
}

func TestJournalWriterStripsNewline(t *testing.T) {
	s := openStore(t)
	w := s.JournalWriter()
	if _, err := w.Write([]byte("{\"a\":1}\n")); err != nil {
		t.Fatal(err)
	}
	var got []string
	s.ReplayJournal(func(line []byte) error { got = append(got, string(line)); return nil })
	if len(got) != 1 || got[0] != `{"a":1}` {
		t.Fatalf("replay = %q", got)
	}
}

func TestJournalTornFinalLineIgnored(t *testing.T) {
	root := filepath.Join(t.TempDir(), "store")
	s, err := Open(root)
	if err != nil {
		t.Fatal(err)
	}
	s.AppendJournal([]byte(`{"complete":true}`))
	s.Close()
	// Simulate a torn write: append half a record with no newline.
	f, err := os.OpenFile(filepath.Join(root, "journal.jsonl"), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"torn":`)
	f.Close()

	s2, err := Open(root)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	var got []string
	if err := s2.ReplayJournal(func(line []byte) error {
		got = append(got, string(line))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != `{"complete":true}` {
		t.Fatalf("replay = %q, want only the complete record", got)
	}
	// And the journal still appends after the torn tail.
	if err := s2.AppendJournal([]byte(`{"next":1}`)); err != nil {
		t.Fatal(err)
	}
}

// TestReplayJournalRecords pins the records ReplayJournal delivers:
// every newline-terminated line with content, byte for byte (a CRLF
// record keeps its CR, indentation is kept), with empty lines skipped
// and an unterminated tail ignored.
func TestReplayJournalRecords(t *testing.T) {
	cases := []struct {
		name, journal string
		want          []string
	}{
		{"empty", "", nil},
		{"only torn", `{"msg":"a"`, nil},
		{"two records", "{\"msg\":\"a\"}\n{\"msg\":\"b\"}\n", []string{`{"msg":"a"}`, `{"msg":"b"}`}},
		{"torn tail", "{\"msg\":\"a\"}\n{\"msg\":\"b", []string{`{"msg":"a"}`}},
		{"complete tail unterminated", "{\"msg\":\"a\"}\n{\"msg\":\"b\"}", []string{`{"msg":"a"}`}},
		{"empty lines", "\n\n{\"msg\":\"a\"}\n\n{\"msg\":\"b\"}\n\n", []string{`{"msg":"a"}`, `{"msg":"b"}`}},
		{"crlf", "{\"msg\":\"a\"}\r\n{\"msg\":\"b\"}\r\n", []string{"{\"msg\":\"a\"}\r", "{\"msg\":\"b\"}\r"}},
		{"indented", "  {\"msg\":\"a\"}\n\t{\"msg\":\"b\"} \n", []string{`  {"msg":"a"}`, "\t{\"msg\":\"b\"} "}},
		{"not json", "nope\n{\"msg\":\"a\"}\n", []string{"nope", `{"msg":"a"}`}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := openStore(t)
			if err := os.WriteFile(filepath.Join(s.root, "journal.jsonl"), []byte(tc.journal), 0o644); err != nil {
				t.Fatal(err)
			}
			var got []string
			if err := s.ReplayJournal(func(line []byte) error {
				got = append(got, string(line))
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if fmt.Sprintf("%q", got) != fmt.Sprintf("%q", tc.want) {
				t.Fatalf("replayed %q, want %q", got, tc.want)
			}
		})
	}
}

// FuzzJournal: whatever bytes a crash leaves in journal.jsonl, replay
// delivers exactly runlog.Records' complete records, repair leaves the
// file empty or newline-terminated (and a second repair finds nothing),
// and a record appended after repair replays on its own.
func FuzzJournal(f *testing.F) {
	for _, seed := range []string{
		"",
		`{"msg":"a"`,
		"{\"msg\":\"a\"}\n{\"msg\":\"b",
		"{\"msg\":\"a\"}\n\n\n{\"msg\":\"b\"}\n",
		"{\"msg\":\"a\"}\n \t\n   \n{\"msg\":\"b\"}\n  ",
		"{\"msg\":\"a\"}\r\n{\"msg\":\"b\"}\r\n{\"msg\"",
		"\n",
		"\r\n\r",
	} {
		f.Add([]byte(seed))
	}
	const appended = `{"msg":"appended"}`
	f.Fuzz(func(t *testing.T, journal []byte) {
		s := openStore(t)
		path := filepath.Join(s.root, "journal.jsonl")
		if err := os.WriteFile(path, journal, 0o644); err != nil {
			t.Fatal(err)
		}
		replay := func() []string {
			var got []string
			if err := s.ReplayJournal(func(line []byte) error {
				got = append(got, string(line))
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			return got
		}
		records, tail := runlog.Records(journal)
		want := make([]string, len(records))
		for i, r := range records {
			want[i] = string(r)
		}
		if got := replay(); !slices.Equal(got, want) {
			t.Fatalf("replay %q, want %q", got, want)
		}

		dropped, err := s.RepairJournal()
		if err != nil {
			t.Fatal(err)
		}
		if wantDrop := min(len(tail), 1); dropped != wantDrop {
			t.Fatalf("repair dropped %d records, want %d", dropped, wantDrop)
		}
		repaired, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(repaired) > 0 && repaired[len(repaired)-1] != '\n' {
			t.Fatalf("repaired journal ends in %q", repaired[len(repaired)-1])
		}
		if n, err := s.RepairJournal(); err != nil || n != 0 {
			t.Fatalf("second repair = %d, %v; want 0, nil", n, err)
		}

		if err := s.AppendJournal([]byte(appended)); err != nil {
			t.Fatal(err)
		}
		if got := replay(); !slices.Equal(got, append(want, appended)) {
			t.Fatalf("after append, replay %q, want %q", got, append(want, appended))
		}
	})
}
