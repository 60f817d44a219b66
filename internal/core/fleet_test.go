package core

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/simrand"
	"repro/internal/testutil"
)

// fleetSizes is the acceptance partition-worker matrix.
var fleetSizes = []int{1, 2, 4, 8}

// checkFleetMatchesRef asserts the fleet-mode contract against the
// crawl + Analyze reference: Analysis deeply equal minus the per-record
// verdict log (Analyze-only) and, when stripCache is set, minus cache traffic (a
// resumed fleet never re-scans restored records). Table IV statistics
// must match exactly in every mode — visit replay is part of the
// contract, not an approximation.
func checkFleetMatchesRef(t *testing.T, label string, ref *crawledStudy, got *Study, stripCache bool) {
	t.Helper()
	if len(got.Analysis.Verdicts) != 0 {
		t.Errorf("%s: fleet run retained %d verdict slices, want none", label, len(got.Analysis.Verdicts))
	}
	a, b := stripVerdicts(ref.Analysis), got.Analysis
	if stripCache {
		a, b = stripCacheStats(a), stripCacheStats(b)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("%s: fleet Analysis differs from reference", label)
	}
	refStats := ref.Analysis.ShortURLStats(ref.Universe.Shorteners)
	gotStats := got.Analysis.ShortURLStats(got.Universe.Shorteners)
	if !reflect.DeepEqual(refStats, gotStats) {
		t.Errorf("%s: fleet Table IV statistics differ from reference", label)
	}
}

// TestFleetMatchesBatch locks in the headline guarantee: a full in-process
// fleet run produces the crawl + Analyze reference's exact Analysis —
// cache totals included — and exact Table IV statistics, for clean and
// faulty crawls.
func TestFleetMatchesBatch(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	for _, profile := range []string{"", "flaky"} {
		cfg := streamConfig(3, 0, profile)
		batch, err := crawlAndAnalyze(cfg)
		if err != nil {
			t.Fatalf("crawl + Analyze (profile=%q): %v", profile, err)
		}
		for _, fleet := range []int{1, 4} {
			got, err := RunStudyFleet(cfg, FleetOptions{Fleet: fleet})
			if err != nil {
				t.Fatalf("fleet=%d profile=%q: %v", fleet, profile, err)
			}
			checkFleetMatchesRef(t, fmt.Sprintf("fleet=%d profile=%q", fleet, profile), batch, got, false)
		}
	}
}

// TestFleetInvarianceMatrix is the acceptance matrix: for seeds 1..5 and
// fault profiles {off, flaky}, every fleet size in {1, 2, 4, 8} must
// reproduce the crawl + Analyze reference exactly, and killing the fleet at a
// seed-randomized record count then resuming under a different (also
// randomized) fleet size must still converge to the same report.
func TestFleetInvarianceMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet matrix is long; skipped in -short")
	}
	for seed := uint64(1); seed <= 5; seed++ {
		for _, profile := range []string{"", "flaky"} {
			seed, profile := seed, profile
			t.Run(fmt.Sprintf("seed=%d/profile=%s", seed, orName(profile)), func(t *testing.T) {
				t.Parallel()
				testutil.VerifyNoLeaks(t)
				cfg := streamConfig(seed, 0, profile)
				ref, err := crawlAndAnalyze(cfg)
				if err != nil {
					t.Fatal(err)
				}
				for _, fleet := range fleetSizes {
					got, err := RunStudyFleet(cfg, FleetOptions{Fleet: fleet})
					if err != nil {
						t.Fatalf("fleet=%d: %v", fleet, err)
					}
					checkFleetMatchesRef(t, fmt.Sprintf("fleet=%d", fleet), ref, got, false)
				}

				// Kill/resume leg: randomized cut point and randomized —
				// usually different — fleet sizes on each side of the kill.
				rng := simrand.New(seed*1117 + 7).Sub("fleet-cut:" + profile)
				total := ref.Analysis.TotalCrawled
				cut := 1 + rng.Intn(total-1)
				killFleet := fleetSizes[rng.Intn(len(fleetSizes))]
				resumeFleet := fleetSizes[rng.Intn(len(fleetSizes))]
				dir := t.TempDir()
				_, err = RunStudyFleet(cfg, FleetOptions{
					Fleet: killFleet, ShardDir: dir, CheckpointEvery: 13, AbortAfter: cut,
				})
				if !errors.Is(err, ErrAborted) {
					t.Fatalf("aborted fleet: got %v, want ErrAborted", err)
				}
				got, err := RunStudyFleet(cfg, FleetOptions{
					Fleet: resumeFleet, ShardDir: dir, CheckpointEvery: 13, Resume: true,
				})
				if err != nil {
					t.Fatalf("resume (kill fleet=%d at %d/%d, resume fleet=%d): %v",
						killFleet, cut, total, resumeFleet, err)
				}
				checkFleetMatchesRef(t,
					fmt.Sprintf("kill fleet=%d at %d/%d, resume fleet=%d", killFleet, cut, total, resumeFleet),
					ref, got, true)
				if left, _ := filepath.Glob(filepath.Join(dir, "shard-*.ckpt")); len(left) != 0 {
					t.Errorf("shard checkpoints left behind after a complete merged run: %v", left)
				}
			})
		}
	}
}

// TestFleetDoubleKill kills the fleet twice — different fleet sizes each
// time, the second kill landing inside the resumed run — before letting a
// third invocation finish. Per-shard checkpoint state must compose.
func TestFleetDoubleKill(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	cfg := streamConfig(4, 0, "flaky")
	ref, err := crawlAndAnalyze(cfg)
	if err != nil {
		t.Fatal(err)
	}
	total := ref.Analysis.TotalCrawled
	dir := t.TempDir()
	const every = 11

	_, err = RunStudyFleet(cfg, FleetOptions{Fleet: 4, ShardDir: dir, CheckpointEvery: every, AbortAfter: total / 3})
	if !errors.Is(err, ErrAborted) {
		t.Fatalf("first kill: got %v, want ErrAborted", err)
	}
	_, err = RunStudyFleet(cfg, FleetOptions{Fleet: 2, ShardDir: dir, CheckpointEvery: every, Resume: true, AbortAfter: total / 4})
	if !errors.Is(err, ErrAborted) {
		t.Fatalf("second kill: got %v, want ErrAborted", err)
	}
	got, err := RunStudyFleet(cfg, FleetOptions{Fleet: 8, ShardDir: dir, CheckpointEvery: every, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	checkFleetMatchesRef(t, "double kill", ref, got, true)
}

// TestFleetDistributedSubsets covers the multi-invocation workflow: two
// separate fleet processes cover disjoint shard subsets into a shared
// directory, and a merge-only pass — no crawling — reconstructs the reference
// report, Table IV included.
func TestFleetDistributedSubsets(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	cfg := streamConfig(2, 0, "flaky")
	ref, err := crawlAndAnalyze(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := len(ref.Exchanges)
	dir := t.TempDir()
	var first, second []int
	for i := 0; i < n; i++ {
		if i < n/2 {
			first = append(first, i)
		} else {
			second = append(second, i)
		}
	}
	if _, err := RunStudyFleet(cfg, FleetOptions{Fleet: 2, ShardDir: dir, Only: first}); err != nil {
		t.Fatalf("first subset: %v", err)
	}
	if _, err := RunStudyFleet(cfg, FleetOptions{Fleet: 3, ShardDir: dir, Only: second}); err != nil {
		t.Fatalf("second subset: %v", err)
	}
	got, err := MergeShardStudy(cfg, dir)
	if err != nil {
		t.Fatalf("merge: %v", err)
	}
	checkFleetMatchesRef(t, "distributed subsets", ref, got, true)
}

// TestShardMergeOrderInvariance merges the same complete shard set in
// several randomized orders; every permutation must produce a deeply
// equal Analysis (the byte-level form of this property is FuzzShardMerge).
func TestShardMergeOrderInvariance(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	cfg := streamConfig(5, 0, "flaky")
	dir := t.TempDir()
	st, err := RunStudyFleet(cfg, FleetOptions{Fleet: 4, ShardDir: dir, KeepShards: true})
	if err != nil {
		t.Fatal(err)
	}
	paths, err := filepath.Glob(filepath.Join(dir, "shard-*.ckpt"))
	if err != nil || len(paths) != len(st.Exchanges) {
		t.Fatalf("want %d kept shard files, got %d (err %v)", len(st.Exchanges), len(paths), err)
	}
	cks := make([]*Checkpoint, len(paths))
	for i, p := range paths {
		if cks[i], err = LoadCheckpoint(p); err != nil {
			t.Fatalf("load %s: %v", p, err)
		}
	}
	rng := simrand.New(99).Sub("merge-order")
	var want *Analysis
	for trial := 0; trial < 5; trial++ {
		order := rng.Perm(len(cks))
		m := NewShardMerger()
		for _, i := range order {
			if err := m.Add(cks[i]); err != nil {
				t.Fatalf("trial %d: add shard %d: %v", trial, i, err)
			}
		}
		if !m.Complete() {
			t.Fatalf("trial %d: merger incomplete after adding every shard", trial)
		}
		a, err := m.Analysis()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if want == nil {
			want = a
			continue
		}
		if !reflect.DeepEqual(want, a) {
			t.Errorf("trial %d: merge order %v produced a different Analysis", trial, order)
		}
	}
	if !reflect.DeepEqual(stripCacheStats(stripVerdicts(st.Analysis)), stripCacheStats(want)) {
		t.Error("re-merged Analysis differs from the fleet run's own merge")
	}
}

// TestFleetRejectsMismatches locks the refusal paths: shard checkpoints
// must never resume or merge under a different seed, scale, or study
// shape, and the option plumbing must reject unusable combinations.
func TestFleetRejectsMismatches(t *testing.T) {
	cfg := streamConfig(1, 0, "")
	dir := t.TempDir()
	_, err := RunStudyFleet(cfg, FleetOptions{Fleet: 4, ShardDir: dir, CheckpointEvery: 5, AbortAfter: 40})
	if !errors.Is(err, ErrAborted) {
		t.Fatalf("aborted fleet: got %v, want ErrAborted", err)
	}
	if files, _ := filepath.Glob(filepath.Join(dir, "shard-*.ckpt")); len(files) == 0 {
		t.Fatal("no shard checkpoints on disk after the kill")
	}

	wrongSeed := cfg
	wrongSeed.Seed = 2
	if _, err := RunStudyFleet(wrongSeed, FleetOptions{Fleet: 2, ShardDir: dir, Resume: true}); err == nil {
		t.Error("resume under a different seed succeeded, want error")
	}
	wrongScale := cfg
	wrongScale.Scale = 500
	if _, err := RunStudyFleet(wrongScale, FleetOptions{Fleet: 2, ShardDir: dir, Resume: true}); err == nil {
		t.Error("resume under a different scale succeeded, want error")
	}
	if _, err := MergeShardStudy(wrongSeed, dir); err == nil {
		t.Error("merge under a different seed succeeded, want error")
	}
	if _, err := MergeShardStudy(cfg, dir); err == nil {
		t.Error("merge of partial (killed mid-run) shards succeeded, want error")
	}
	if _, err := MergeShardStudy(cfg, t.TempDir()); err == nil {
		t.Error("merge of an empty directory succeeded, want error")
	}

	// Option plumbing.
	if _, err := RunStudyFleet(cfg, FleetOptions{Fleet: 2, Resume: true}); err == nil {
		t.Error("resume without a shard dir succeeded, want error")
	}
	if _, err := RunStudyFleet(cfg, FleetOptions{Fleet: 2, Only: []int{0}}); err == nil {
		t.Error("subset run without a shard dir succeeded, want error")
	}
	if _, err := RunStudyFleet(cfg, FleetOptions{Fleet: 2, ShardDir: t.TempDir(), Only: []int{0, 0}}); err == nil {
		t.Error("duplicate shard index accepted, want error")
	}
	if _, err := RunStudyFleet(cfg, FleetOptions{Fleet: 2, ShardDir: t.TempDir(), Only: []int{99}}); err == nil {
		t.Error("out-of-range shard index accepted, want error")
	}
}

// TestFleetResumeFreshWhenNoCheckpoints mirrors the streaming
// convention: -resume with nothing on disk is a fresh start, so the flag
// is safe to pass unconditionally.
func TestFleetResumeFreshWhenNoCheckpoints(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	cfg := streamConfig(3, 0, "")
	ref, err := crawlAndAnalyze(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunStudyFleet(cfg, FleetOptions{Fleet: 2, ShardDir: t.TempDir(), Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	checkFleetMatchesRef(t, "resume with empty dir", ref, got, false)
}

// TestFleetShardFilesSurviveKeep checks KeepShards leaves one valid,
// complete shard checkpoint per exchange.
func TestFleetShardFilesSurviveKeep(t *testing.T) {
	cfg := streamConfig(1, 0, "")
	dir := t.TempDir()
	st, err := RunStudyFleet(cfg, FleetOptions{Fleet: 4, ShardDir: dir, KeepShards: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := range st.Exchanges {
		ck, err := LoadCheckpoint(ShardPath(dir, i))
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		if ck.KindName() != "shard" {
			t.Errorf("shard %d: kind %s, want shard", i, ck.KindName())
		}
		if got, want := ck.Records(), st.Steps[i]; got != want {
			t.Errorf("shard %d: %d records, want %d", i, got, want)
		}
		if err := st.validateShardCheckpoint(ck, i, len(st.Exchanges)); err != nil {
			t.Errorf("shard %d: %v", i, err)
		}
	}
	if _, err := os.Stat(ShardPath(dir, 0)); err != nil {
		t.Fatal(err)
	}
}
