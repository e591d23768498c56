package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestPrintLedgerSkipsBlankLines: the pretty-printer reads the records
// validation read, so blank and whitespace-only lines inside a ledger
// and an unterminated final record print instead of failing.
func TestPrintLedgerSkipsBlankLines(t *testing.T) {
	const rec = `{"time":"t","level":"INFO","msg":"sweep-start","seq":0,"points":3}`
	ledger := rec + "\n\n" + rec + "\r\n \t\n" + rec
	path := filepath.Join(t.TempDir(), "ledger.jsonl")
	if err := os.WriteFile(path, []byte(ledger), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := printLedger(path, ""); err != nil {
		t.Fatalf("printLedger: %v", err)
	}
	if err := os.WriteFile(path, []byte(strings.Repeat("\n", 3)), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := printLedger(path, ""); err == nil {
		t.Fatal("printLedger accepted a blank-only ledger")
	}
}
