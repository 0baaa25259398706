package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"broadway/internal/diskstore"
)

func TestRunVerifiesAndCountsRecords(t *testing.T) {
	dir := t.TempDir()
	st, err := diskstore.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	st.Put(diskstore.Record{Key: "/a", ValidatedAt: time.Unix(1_700_000_000, 0)}, []byte("body a"))
	st.Put(diskstore.Record{Key: "/b", ValidatedAt: time.Unix(1_700_000_000, 0)}, []byte("body b"))
	st.Close()

	if err := run([]string{dir}, os.Stdout); err != nil {
		t.Fatalf("run on a consistent store: %v", err)
	}

	// Corrupt one body's bytes in place: the digest check must trip.
	packs, err := filepath.Glob(filepath.Join(dir, "blobs-*.pack"))
	if err != nil || len(packs) != 1 {
		t.Fatalf("pack files = %v, %v; want one", packs, err)
	}
	f, err := os.OpenFile(packs[0], os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("X"), 0); err != nil {
		t.Fatal(err)
	}
	f.Close()
	err = run([]string{dir}, os.Stdout)
	if err == nil || !strings.Contains(err.Error(), "digest mismatch") {
		t.Errorf("run on corrupt pack bytes = %v, want a digest mismatch", err)
	}

	// Cut the pack short: the record whose body ran past the new end
	// must be named.
	if err := os.Truncate(packs[0], 1); err != nil {
		t.Fatal(err)
	}
	err = run([]string{dir}, os.Stdout)
	if err == nil || !strings.Contains(err.Error(), "runs past the end") {
		t.Errorf("run on a truncated pack = %v, want a body past the end", err)
	}
}

func TestRunUsageErrors(t *testing.T) {
	if err := run(nil, os.Stdout); err == nil {
		t.Error("run with no args must fail")
	}
	if err := run([]string{"/does/not/exist"}, os.Stdout); err == nil {
		t.Error("run on a missing directory must fail")
	}
}
