// Package castore is the content-addressed result store of the vaxd
// service: one immutable bundle directory per measurement identity,
// plus the append-only journal crash recovery replays.
//
// The design borrows nanoBench's record-per-measurement discipline
// (PAPERS.md): the served artifact is one addressable, machine-readable
// bundle — ledger, histogram, report, profile spans — keyed by the hash
// of everything that determines its bytes. Because the simulator is a
// pure function of seed and configuration (bit-exact across -j, proven
// by the determinism suite), two submissions with equal keys would
// produce identical bundles; serving the stored one is not an
// approximation, it is the answer.
//
// Layout under the root:
//
//	objects/<key>/...   committed bundles, immutable once present
//	staging/<id>/...    per-job scratch: bundle assembly + checkpoints
//	journal.jsonl       append-only job journal (the owner defines the
//	                    record schema; vaxd writes runlog job events)
//
// Commit is crash-safe: a bundle is assembled in staging and renamed
// into objects/ in one step, so a reader never observes a partial
// bundle. When two jobs race to commit one key, the first writer wins
// and the loser's staging is discarded — determinism makes the two
// bundles interchangeable. The package itself never reads the wall
// clock; any timestamps in bundle metadata are the caller's.
package castore

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"vax780/internal/runlog"
)

// ErrNoBundle reports a key with no committed bundle.
var ErrNoBundle = errors.New("castore: no bundle under key")

// Store is one on-disk content-addressed store. Safe for concurrent
// use; journal appends are serialized.
type Store struct {
	root string

	mu      sync.Mutex
	journal *os.File
	races   []string // keys whose commits lost the first-writer race
}

// Open creates (or reopens) the store rooted at root.
func Open(root string) (*Store, error) {
	for _, dir := range []string{root, filepath.Join(root, "objects"), filepath.Join(root, "staging")} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("castore: %w", err)
		}
	}
	j, err := os.OpenFile(filepath.Join(root, "journal.jsonl"),
		os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("castore: opening journal: %w", err)
	}
	return &Store{root: root, journal: j}, nil
}

// Close releases the journal handle. The store directory remains valid
// for a later Open (that is the crash-recovery path).
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.journal == nil {
		return nil
	}
	err := s.journal.Close()
	s.journal = nil
	return err
}

// Root returns the store's root directory.
func (s *Store) Root() string { return s.root }

// validName rejects path elements that could escape the store.
func validName(name string) error {
	if name == "" || name == "." || name == ".." ||
		strings.ContainsAny(name, "/\\") {
		return fmt.Errorf("castore: invalid name %q", name)
	}
	return nil
}

func (s *Store) objectDir(key string) string {
	return filepath.Join(s.root, "objects", key)
}

// Has reports whether a committed bundle exists under key.
func (s *Store) Has(key string) bool {
	if validName(key) != nil {
		return false
	}
	st, err := os.Stat(s.objectDir(key))
	return err == nil && st.IsDir()
}

// Bundle lists a committed bundle's file names, sorted.
func (s *Store) Bundle(key string) ([]string, error) {
	if err := validName(key); err != nil {
		return nil, err
	}
	ents, err := os.ReadDir(s.objectDir(key))
	if errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("%w: %s", ErrNoBundle, key)
	}
	if err != nil {
		return nil, fmt.Errorf("castore: %w", err)
	}
	var names []string
	for _, e := range ents {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

// Open returns a reader on one file of a committed bundle.
func (s *Store) Open(key, name string) (io.ReadCloser, error) {
	if err := validName(key); err != nil {
		return nil, err
	}
	if err := validName(name); err != nil {
		return nil, err
	}
	f, err := os.Open(filepath.Join(s.objectDir(key), name))
	if errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("%w: %s/%s", ErrNoBundle, key, name)
	}
	if err != nil {
		return nil, fmt.Errorf("castore: %w", err)
	}
	return f, nil
}

// ReadFile reads one file of a committed bundle whole.
func (s *Store) ReadFile(key, name string) ([]byte, error) {
	f, err := s.Open(key, name)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return io.ReadAll(f)
}

// Keys lists every committed bundle key, sorted.
func (s *Store) Keys() ([]string, error) {
	ents, err := os.ReadDir(filepath.Join(s.root, "objects"))
	if err != nil {
		return nil, fmt.Errorf("castore: %w", err)
	}
	var keys []string
	for _, e := range ents {
		if e.IsDir() {
			keys = append(keys, e.Name())
		}
	}
	sort.Strings(keys)
	return keys, nil
}

// Staging is one job's scratch directory: checkpoint files while the
// job runs, then the assembled bundle. It survives a crash (recovery
// re-stages the same id and the run resumes from the checkpoint found
// there) and disappears on Commit or Abandon.
type Staging struct {
	store *Store
	id    string
	dir   string
}

// Stage creates (or re-opens, after a crash) the staging directory for
// the given job id.
func (s *Store) Stage(id string) (*Staging, error) {
	if err := validName(id); err != nil {
		return nil, err
	}
	dir := filepath.Join(s.root, "staging", id)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("castore: %w", err)
	}
	return &Staging{store: s, id: id, dir: dir}, nil
}

// Dir returns the staging directory path.
func (st *Staging) Dir() string { return st.dir }

// Path returns the path of one file inside the staging directory.
func (st *Staging) Path(name string) string { return filepath.Join(st.dir, name) }

// WriteFile writes one staged file and syncs it: a staged file's bytes
// must be on disk before Commit's rename can publish them, or a crash
// between the two could publish a bundle with torn members.
func (st *Staging) WriteFile(name string, data []byte) error {
	if err := validName(name); err != nil {
		return err
	}
	f, err := os.OpenFile(st.Path(name), os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("castore: staging %s: %w", name, err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("castore: staging %s: %w", name, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("castore: syncing staged %s: %w", name, err)
	}
	return f.Close()
}

// Remove deletes one staged file if present (e.g. the run checkpoint,
// which is job scratch and must not enter the bundle).
func (st *Staging) Remove(name string) error {
	if err := validName(name); err != nil {
		return err
	}
	err := os.Remove(st.Path(name))
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	return err
}

// Commit publishes the staged files as the bundle under key, in one
// rename. Every staged file is synced first — writers that stream into
// the staging directory through their own handles (the job manager's
// ledger and histogram writers) get their durability here, so the
// published bundle can never contain a member the disk had not yet
// accepted. If a bundle already exists under key the staged copy is
// discarded — first writer wins; determinism makes the copies
// interchangeable. Either way the staging directory is gone afterwards.
func (st *Staging) Commit(key string) error {
	if err := validName(key); err != nil {
		return err
	}
	if err := st.syncAll(); err != nil {
		return err
	}
	st.store.mu.Lock()
	defer st.store.mu.Unlock()
	dst := st.store.objectDir(key)
	if _, err := os.Stat(dst); err == nil {
		// First writer won. The discarded bundle was identical by
		// determinism, so nothing is lost — but the race itself was
		// invisible until now; record it so the job manager can journal
		// and count it (an unexpected race rate means duplicate work
		// admission should have deduplicated).
		st.store.races = append(st.store.races, key)
		return os.RemoveAll(st.dir)
	}
	if err := os.Rename(st.dir, dst); err != nil {
		return fmt.Errorf("castore: committing %s: %w", key, err)
	}
	// Best-effort durability of the rename itself.
	if d, err := os.Open(filepath.Dir(dst)); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}

// syncAll fsyncs every regular file in the staging directory and then
// the directory itself, making the staged tree durable before the
// commit rename points the store at it.
func (st *Staging) syncAll() error {
	entries, err := os.ReadDir(st.dir)
	if err != nil {
		return fmt.Errorf("castore: syncing staging %s: %w", st.id, err)
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		f, err := os.Open(filepath.Join(st.dir, e.Name()))
		if err != nil {
			return fmt.Errorf("castore: syncing staged %s: %w", e.Name(), err)
		}
		syncErr := f.Sync()
		closeErr := f.Close()
		if syncErr != nil {
			return fmt.Errorf("castore: syncing staged %s: %w", e.Name(), syncErr)
		}
		if closeErr != nil {
			return fmt.Errorf("castore: syncing staged %s: %w", e.Name(), closeErr)
		}
	}
	d, err := os.Open(st.dir)
	if err != nil {
		return fmt.Errorf("castore: syncing staging %s: %w", st.id, err)
	}
	syncErr := d.Sync()
	closeErr := d.Close()
	if syncErr != nil {
		return fmt.Errorf("castore: syncing staging %s: %w", st.id, syncErr)
	}
	return closeErr
}

// Abandon discards the staging directory and everything in it.
func (st *Staging) Abandon() error {
	return os.RemoveAll(st.dir)
}

// AppendJournal appends one line-terminated record to the journal and
// syncs it. line must be a single JSONL record without the newline.
func (s *Store) AppendJournal(line []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.journal == nil {
		return errors.New("castore: journal closed")
	}
	buf := make([]byte, 0, len(line)+1)
	buf = append(buf, line...)
	buf = append(buf, '\n')
	if _, err := s.journal.Write(buf); err != nil {
		return fmt.Errorf("castore: journal append: %w", err)
	}
	return s.journal.Sync()
}

// journalWriter adapts AppendJournal to io.Writer for the runlog
// ledger, which emits exactly one line per Write call.
type journalWriter struct{ s *Store }

func (w journalWriter) Write(p []byte) (int, error) {
	line := p
	for len(line) > 0 && line[len(line)-1] == '\n' {
		line = line[:len(line)-1]
	}
	if err := w.s.AppendJournal(line); err != nil {
		return 0, err
	}
	return len(p), nil
}

// JournalWriter returns an io.Writer appending one journal record per
// Write call (the runlog JSON handler's contract).
func (s *Store) JournalWriter() io.Writer { return journalWriter{s} }

// TakeCommitRaces drains the keys whose commits lost a first-writer-
// wins race since the last call.
func (s *Store) TakeCommitRaces() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.races
	s.races = nil
	return out
}

// RepairJournal truncates a torn final record — the partial line a
// crash mid-append leaves behind. Replay already ignores the torn
// tail, but without repair the next O_APPEND write would concatenate
// onto the partial line, silently corrupting two records; with it the
// journal is clean before the ledger reopens for append. Returns the
// number of records dropped (0 or 1). Callers run it after replay and
// before appending anything new.
func (s *Store) RepairJournal() (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	path := filepath.Join(s.root, "journal.jsonl")
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, fmt.Errorf("castore: reading journal: %w", err)
	}
	_, tail := runlog.Records(data)
	if len(tail) == 0 {
		return 0, nil
	}
	f, err := os.OpenFile(path, os.O_WRONLY, 0o644)
	if err != nil {
		return 0, fmt.Errorf("castore: repairing journal: %w", err)
	}
	if err := f.Truncate(int64(len(data) - len(tail))); err != nil {
		f.Close()
		return 0, fmt.Errorf("castore: repairing journal: %w", err)
	}
	syncErr := f.Sync()
	closeErr := f.Close()
	if syncErr != nil {
		return 0, fmt.Errorf("castore: repairing journal: %w", syncErr)
	}
	if closeErr != nil {
		return 0, fmt.Errorf("castore: repairing journal: %w", closeErr)
	}
	return 1, nil
}

// ReplayJournal calls fn for every complete record in the journal
// (runlog.Records: newline-terminated, non-blank), in append order. A
// truncated final line (torn write at crash) is silently dropped: the
// journal is recovery input, and a record that never fully landed
// describes an action that may not have happened.
func (s *Store) ReplayJournal(fn func(line []byte) error) error {
	data, err := os.ReadFile(filepath.Join(s.root, "journal.jsonl"))
	if err != nil {
		return fmt.Errorf("castore: reading journal: %w", err)
	}
	records, _ := runlog.Records(data)
	for _, line := range records {
		if err := fn(line); err != nil {
			return err
		}
	}
	return nil
}
