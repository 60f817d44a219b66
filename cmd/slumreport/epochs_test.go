package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRunEpochsDeltaMatchesFull locks the CLI-level incremental-re-crawl
// contract: a multi-epoch study run with -delta-dir prints bytes
// identical to the same study re-crawling everything, and the output
// carries the per-epoch headers plus the longitudinal sections.
func TestRunEpochsDeltaMatchesFull(t *testing.T) {
	args := []string{"-scale", "1500", "-seed", "3", "-epochs", "2", "-churn", "0.4", "-blacklist-lag", "1"}
	var full bytes.Buffer
	if err := run(args, &full); err != nil {
		t.Fatal(err)
	}
	var delta bytes.Buffer
	if err := run(append(args, "-delta-dir", t.TempDir()), &delta); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(full.Bytes(), delta.Bytes()) {
		t.Error("-delta-dir output differs from the full re-crawl")
	}
	for _, want := range []string{"=== EPOCH 0 ===", "=== EPOCH 1 ===",
		"LONGITUDINAL: MALICE RATE OVER EPOCHS",
		"LONGITUDINAL: BLACKLIST LAG DISTRIBUTION",
		"LONGITUDINAL: CROSS-EPOCH CAMPAIGN BURSTS"} {
		if !strings.Contains(full.String(), want) {
			t.Errorf("multi-epoch output missing %q", want)
		}
	}
}

// TestRunEpochsOneMatchesClassic: "-epochs 1" must be the classic
// single-epoch report, byte for byte — no headers, no longitudinal
// sections, same goldens.
func TestRunEpochsOneMatchesClassic(t *testing.T) {
	var classic, one bytes.Buffer
	if err := run([]string{"-scale", "1500", "-seed", "3"}, &classic); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-scale", "1500", "-seed", "3", "-epochs", "1"}, &one); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(classic.Bytes(), one.Bytes()) {
		t.Error("-epochs 1 output differs from the flagless run")
	}
	if strings.Contains(one.String(), "=== EPOCH") {
		t.Error("single-epoch output carries epoch headers")
	}
}

// TestRunEpochsFlagValidation covers the longitudinal flag surface.
func TestRunEpochsFlagValidation(t *testing.T) {
	cases := [][]string{
		{"-scale", "1500", "-delta-dir", "/tmp/nope"},                   // requires -epochs > 1
		{"-scale", "1500", "-epochs", "0"},                              // out of range
		{"-scale", "1500", "-epochs", "-3"},                             // out of range
		{"-scale", "1500", "-epochs", "2", "-json"},                     // unsupported combo
		{"-scale", "1500", "-epochs", "2", "-fleet", "2"},               // unsupported combo
		{"-scale", "1500", "-epochs", "2", "-churn", "1.5"},             // out of range
		{"-scale", "1500", "-epochs", "2", "-blacklist-lag", "-1"},      // out of range
		{"-scale", "1500", "-epochs", "2", "-blacklist-decay", "-0.25"}, // out of range
	}
	for _, args := range cases {
		if err := run(args, &bytes.Buffer{}); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}
