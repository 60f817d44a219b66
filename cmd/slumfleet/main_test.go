package main

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// fleetArgs pins the CLI tests to a fixed seed and a fast scale.
var fleetArgs = []string{"-seed", "1", "-scale", "900"}

func capture(t *testing.T, extra ...string) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := run(append(append([]string{}, fleetArgs...), extra...), &buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestParseShards tables the -shards grammar.
func TestParseShards(t *testing.T) {
	cases := []struct {
		in   string
		want []int
		ok   bool
	}{
		{"", nil, true},
		{"0", []int{0}, true},
		{"0,2,5", []int{0, 2, 5}, true},
		{"5-8", []int{5, 6, 7, 8}, true},
		{"0,2-4, 7", []int{0, 2, 3, 4, 7}, true},
		{"3-3", []int{3}, true},
		{"4-2", nil, false},
		{"a", nil, false},
		{"1,,2", nil, false},
		{"1-x", nil, false},
	}
	for _, tc := range cases {
		got, err := parseShards(tc.in)
		if tc.ok != (err == nil) {
			t.Errorf("parseShards(%q): err=%v, want ok=%v", tc.in, err, tc.ok)
			continue
		}
		if tc.ok && !reflect.DeepEqual(got, tc.want) {
			t.Errorf("parseShards(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

// TestFlagValidation covers the unusable flag combinations.
func TestFlagValidation(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-merge"}, &buf); err == nil {
		t.Error("-merge without -shard-dir accepted")
	}
	if err := run([]string{"-shards", "0-2"}, &buf); err == nil {
		t.Error("-shards without -shard-dir accepted")
	}
	if err := run([]string{"-scale", "0"}, &buf); err == nil {
		t.Error("-scale 0 accepted")
	}
	for _, n := range []string{"0", "-1"} {
		if err := run([]string{"-scale", "1500", "-epochs", n}, &buf); err == nil {
			t.Errorf("-epochs %s accepted", n)
		}
	}
	if err := run([]string{"-shards", "9-1", "-shard-dir", t.TempDir()}, &buf); err == nil {
		t.Error("backwards -shards range accepted")
	}
}

// TestFleetSizeInvariance is the CLI face of the determinism contract:
// every fleet size emits byte-identical reports.
func TestFleetSizeInvariance(t *testing.T) {
	base := capture(t, "-fleet", "1")
	for _, fleet := range []string{"2", "4", "8"} {
		if got := capture(t, "-fleet", fleet); !bytes.Equal(got, base) {
			t.Errorf("-fleet %s output differs from -fleet 1", fleet)
		}
	}
}

// TestKillResumeByteIdentical kills a checkpointed fleet with
// -abort-after, resumes under a different fleet size, and requires the
// exact bytes of an uninterrupted run — with the shard directory cleaned
// up afterwards.
func TestKillResumeByteIdentical(t *testing.T) {
	want := capture(t, "-fleet", "4", "-faults", "flaky")
	dir := t.TempDir()
	args := []string{"-faults", "flaky", "-shard-dir", dir, "-checkpoint-every", "37"}
	var buf bytes.Buffer
	err := run(append(append(append([]string{}, fleetArgs...), args...), "-fleet", "2", "-abort-after", "200"), &buf)
	if err == nil {
		t.Fatal("aborted fleet returned nil error")
	}
	got := capture(t, append(args, "-fleet", "8", "-resume")...)
	if !bytes.Equal(got, want) {
		t.Error("kill + resume output differs from uninterrupted run")
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "shard-*.ckpt")); len(left) != 0 {
		t.Errorf("shard checkpoints left behind: %v", left)
	}
}

// TestDistributedShardsMerge runs two disjoint -shards subsets into a
// shared directory and merges: the -merge report must byte-match a plain
// single-invocation run, and subset runs themselves print no report.
func TestDistributedShardsMerge(t *testing.T) {
	want := capture(t, "-fleet", "4")
	dir := t.TempDir()
	if out := capture(t, "-shard-dir", dir, "-shards", "0-3", "-fleet", "2"); len(out) != 0 {
		t.Errorf("subset run printed %d bytes of report, want none", len(out))
	}
	if out := capture(t, "-shard-dir", dir, "-shards", "4-8", "-fleet", "3"); len(out) != 0 {
		t.Errorf("subset run printed %d bytes of report, want none", len(out))
	}
	got := capture(t, "-shard-dir", dir, "-merge")
	if !bytes.Equal(got, want) {
		t.Error("-merge output differs from a single-invocation run")
	}
	// Merge-only mode never consumes the shard files; reruns must work.
	if again := capture(t, "-shard-dir", dir, "-merge"); !bytes.Equal(again, want) {
		t.Error("second -merge pass differs — merge consumed or mutated shard state")
	}
	// A merge under the wrong seed must refuse.
	var buf bytes.Buffer
	if err := run([]string{"-seed", "2", "-scale", "900", "-shard-dir", dir, "-merge"}, &buf); err == nil {
		t.Error("-merge under a different seed accepted")
	}
	_ = os.RemoveAll(dir)
}
