package main

import (
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestCrawlAndArtifacts(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "ds.jsonl")
	harDir := filepath.Join(dir, "hars")
	if err := run([]string{"-scale", "900", "-seed", "4", "-out", out, "-hardir", harDir}); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(out)
	if err != nil || fi.Size() == 0 {
		t.Fatalf("dataset missing or empty: %v", err)
	}
	hars, err := filepath.Glob(filepath.Join(harDir, "*.har"))
	if err != nil || len(hars) != 9 {
		t.Fatalf("HAR archives = %d (%v), want 9", len(hars), err)
	}
}

// TestBadOutputPath: an unwritable -out fails before the crawl starts,
// so even a paper-scale invocation returns at once.
func TestBadOutputPath(t *testing.T) {
	start := time.Now()
	if err := run([]string{"-scale", "1", "-out", "/nonexistent-dir/x/ds.jsonl"}); err == nil {
		t.Fatal("unwritable output accepted")
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("unwritable output reported after %v, want it before the crawl", d)
	}
}

func TestMain(m *testing.M) {
	null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err == nil {
		os.Stderr = null
	}
	os.Exit(m.Run())
}
