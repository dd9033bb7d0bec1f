package main

import (
	"os"
	"path/filepath"
	"testing"
)

// TestWriteCSVReportsWriteError: /dev/full accepts the open and fails every
// write, so the error surfaces only when the buffered writer flushes.
func TestWriteCSVReportsWriteError(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this system")
	}
	if err := writeCSV("/dev/full", []string{"a", "b"}, [][]string{{"1", "2"}}); err == nil {
		t.Fatal("writing to /dev/full returned no error")
	}
}

func TestWriteCSVWritesRows(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.csv")
	if err := writeCSV(path, []string{"a", "b"}, [][]string{{"1", "2"}, {"3", ""}}); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := "a,b\n1,2\n3,\n"; string(got) != want {
		t.Fatalf("file = %q, want %q", got, want)
	}
}
