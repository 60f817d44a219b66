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

// streamConfig is the compact study shared by the streaming tests: small
// enough to run the full resume matrix, large enough that every exchange
// folds hundreds of records through multiple checkpoint intervals.
func streamConfig(seed uint64, workers int, profile string) StudyConfig {
	cfg := DefaultStudyConfig()
	cfg.Seed = seed
	cfg.Scale = 600
	cfg.MinMalPerPool = 12
	cfg.MinBenignPerPool = 18
	cfg.Workers = workers
	cfg.FaultProfile = profile
	return cfg
}

// stripBatchOnly clears the fields the streaming contract excludes: the
// per-record verdict log (batch-only by design).
func stripBatchOnly(a *Analysis) *Analysis {
	b := *a
	b.Verdicts = map[string][]Verdict{}
	return &b
}

// stripCacheStats clears cache traffic, which a resumed run legitimately
// under-reports (it never scans the pre-checkpoint records).
func stripCacheStats(a *Analysis) *Analysis {
	b := *a
	b.CacheStats = CacheStats{}
	return &b
}

// TestStreamMatchesBatch locks in the core streaming guarantee: an
// uninterrupted RunStream produces an Analysis deeply equal to the batch
// Run's for every worker count and fault profile (minus the per-record
// verdict log, which streaming intentionally drops).
func TestStreamMatchesBatch(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	for _, profile := range []string{"", "flaky"} {
		for _, workers := range []int{1, 8} {
			cfg := streamConfig(3, workers, profile)
			batch, err := RunStudy(cfg)
			if err != nil {
				t.Fatalf("batch run (workers=%d profile=%q): %v", workers, profile, err)
			}
			stream, err := RunStudyStream(cfg, StreamOptions{})
			if err != nil {
				t.Fatalf("stream run (workers=%d profile=%q): %v", workers, profile, err)
			}
			if len(stream.Analysis.Verdicts) != 0 {
				t.Errorf("streaming run retained %d verdict slices, want none", len(stream.Analysis.Verdicts))
			}
			if !reflect.DeepEqual(stripBatchOnly(batch.Analysis), stream.Analysis) {
				t.Errorf("workers=%d profile=%q: streaming Analysis differs from batch", workers, profile)
			}
		}
	}
}

// TestStreamSchedulingInvariance pins the engine's scheduling freedom
// with a checkpoint written after every folded record: exchanges run one
// at a time (Workers 1), two pipelines contending for the fold lock (2)
// and more workers than exchanges (16) must all produce the same
// Analysis. At each worker count a kill landing in the middle of a fold
// batch — later records of the batch scanned but never folded — must
// resume to that same Analysis.
func TestStreamSchedulingInvariance(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	var ref *Analysis
	for _, workers := range []int{1, 2, 16} {
		cfg := streamConfig(2, workers, "flaky")
		ckpt := filepath.Join(t.TempDir(), "study.ckpt")
		st, err := RunStudyStream(cfg, StreamOptions{CheckpointPath: ckpt, CheckpointEvery: 1})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if ref == nil {
			ref = st.Analysis
		} else if !reflect.DeepEqual(ref, st.Analysis) {
			t.Errorf("workers=%d: Analysis differs from workers=1", workers)
		}

		cut := 2*foldBatch + foldBatch/2
		_, err = RunStudyStream(cfg, StreamOptions{CheckpointPath: ckpt, CheckpointEvery: 1, AbortAfter: cut})
		if !errors.Is(err, ErrAborted) {
			t.Fatalf("workers=%d: aborted run: got %v, want ErrAborted", workers, err)
		}
		ck, err := LoadCheckpoint(ckpt)
		if err != nil {
			t.Fatal(err)
		}
		if workers == 1 {
			// One pipeline at a time: the whole cut lands on the longest
			// exchange, half way through its third batch.
			ex := ck.fold.exchanges[longestPlan(st.Steps)]
			if ex.folded != cut || st.Steps[longestPlan(st.Steps)] < cut+foldBatch {
				t.Fatalf("kill did not land mid-batch: %s folded %d of %d, cut %d",
					ex.name, ex.folded, st.Steps[longestPlan(st.Steps)], cut)
			}
		}
		got, err := RunStudyStream(cfg, StreamOptions{CheckpointPath: ckpt, CheckpointEvery: 1, Resume: ck})
		if err != nil {
			t.Fatalf("workers=%d: resumed run: %v", workers, err)
		}
		if !reflect.DeepEqual(stripCacheStats(ref), stripCacheStats(got.Analysis)) {
			t.Errorf("workers=%d: mid-batch kill at record %d + resume: Analysis differs", workers, cut)
		}
	}
}

// longestPlan returns the index of the exchange with the most planned
// records (the first on ties), which the scheduler starts first.
func longestPlan(steps []int) int {
	best := 0
	for i, n := range steps {
		if n > steps[best] {
			best = i
		}
	}
	return best
}

// resumeAfterKill aborts a checkpointed streaming run after cut folded
// records (the deterministic SIGKILL stand-in — no checkpoint is written
// at the abort point), then resumes from whatever periodic checkpoint
// survived on disk and returns the finished study. When the kill landed
// before the first checkpoint interval, resume is a fresh start — exactly
// what an operator rerunning the command would get.
func resumeAfterKill(t *testing.T, cfg StudyConfig, ckpt string, every, cut int) *Study {
	t.Helper()
	_, err := RunStudyStream(cfg, StreamOptions{
		CheckpointPath: ckpt, CheckpointEvery: every, AbortAfter: cut,
	})
	if !errors.Is(err, ErrAborted) {
		t.Fatalf("aborted run: got error %v, want ErrAborted", err)
	}
	opts := StreamOptions{CheckpointPath: ckpt, CheckpointEvery: every}
	if _, statErr := os.Stat(ckpt); statErr == nil {
		ck, err := LoadCheckpoint(ckpt)
		if err != nil {
			t.Fatalf("load checkpoint: %v", err)
		}
		opts.Resume = ck
	} else if cut >= every {
		t.Fatalf("no checkpoint on disk after folding %d records with interval %d", cut, every)
	}
	st, err := RunStudyStream(cfg, opts)
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if _, statErr := os.Stat(ckpt); !os.IsNotExist(statErr) {
		t.Errorf("checkpoint %s not removed after successful completion", ckpt)
	}
	return st
}

// TestStreamResumeDeterminism is the acceptance matrix: for seeds 1..5,
// workers {1, 8} and fault profiles {off, flaky}, killing the streaming
// run at a randomized record index and resuming from the checkpoint
// yields an Analysis identical to the uninterrupted run's.
func TestStreamResumeDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("resume matrix is long; skipped in -short")
	}
	for seed := uint64(1); seed <= 5; seed++ {
		for _, workers := range []int{1, 8} {
			for _, profile := range []string{"", "flaky"} {
				seed, workers, profile := seed, workers, profile
				name := fmt.Sprintf("seed=%d/workers=%d/profile=%s", seed, workers, orName(profile))
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					testutil.VerifyNoLeaks(t)
					cfg := streamConfig(seed, workers, profile)
					ref, err := RunStudyStream(cfg, StreamOptions{})
					if err != nil {
						t.Fatal(err)
					}
					total := ref.Analysis.TotalCrawled
					rng := simrand.New(cfg.Seed*977 + uint64(workers)).Sub("cut:" + profile)
					cut := 1 + rng.Intn(total-1)
					ckpt := filepath.Join(t.TempDir(), "study.ckpt")
					got := resumeAfterKill(t, cfg, ckpt, 13, cut)
					if !reflect.DeepEqual(stripCacheStats(ref.Analysis), stripCacheStats(got.Analysis)) {
						t.Errorf("kill at record %d/%d + resume: Analysis differs from uninterrupted run", cut, total)
					}
				})
			}
		}
	}
}

// TestStreamDoubleKill kills the run twice — the second kill landing mid
// way through the resumed run — before letting the third attempt finish.
// Checkpoint state must compose: the final report still matches the
// uninterrupted run.
func TestStreamDoubleKill(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	cfg := streamConfig(4, 8, "flaky")
	ref, err := RunStudyStream(cfg, StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	total := ref.Analysis.TotalCrawled
	ckpt := filepath.Join(t.TempDir(), "study.ckpt")
	const every = 11

	_, err = RunStudyStream(cfg, StreamOptions{CheckpointPath: ckpt, CheckpointEvery: every, AbortAfter: total / 3})
	if !errors.Is(err, ErrAborted) {
		t.Fatalf("first kill: got %v, want ErrAborted", err)
	}
	ck, err := LoadCheckpoint(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	_, err = RunStudyStream(cfg, StreamOptions{CheckpointPath: ckpt, CheckpointEvery: every, Resume: ck, AbortAfter: total / 4})
	if !errors.Is(err, ErrAborted) {
		t.Fatalf("second kill: got %v, want ErrAborted", err)
	}
	ck, err = LoadCheckpoint(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunStudyStream(cfg, StreamOptions{CheckpointPath: ckpt, CheckpointEvery: every, Resume: ck})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stripCacheStats(ref.Analysis), stripCacheStats(got.Analysis)) {
		t.Error("double-kill + resume: Analysis differs from uninterrupted run")
	}
}

// TestStreamResumeRejectsMismatchedConfig ensures a checkpoint can never
// silently resume under a different seed or study shape.
func TestStreamResumeRejectsMismatchedConfig(t *testing.T) {
	cfg := streamConfig(1, 4, "")
	ckpt := filepath.Join(t.TempDir(), "study.ckpt")
	_, err := RunStudyStream(cfg, StreamOptions{CheckpointPath: ckpt, CheckpointEvery: 5, AbortAfter: 40})
	if !errors.Is(err, ErrAborted) {
		t.Fatalf("aborted run: got %v, want ErrAborted", err)
	}
	ck, err := LoadCheckpoint(ckpt)
	if err != nil {
		t.Fatal(err)
	}

	wrongSeed := cfg
	wrongSeed.Seed = 2
	if _, err := RunStudyStream(wrongSeed, StreamOptions{Resume: ck}); err == nil {
		t.Error("resume under a different seed succeeded, want error")
	}
	wrongScale := cfg
	wrongScale.Scale = 500
	if _, err := RunStudyStream(wrongScale, StreamOptions{Resume: ck}); err == nil {
		t.Error("resume under a different scale succeeded, want error")
	}
	// Worker count is deliberately NOT part of the config hash: the PR 1
	// determinism contract makes output worker-count-invariant, so an
	// operator may resume on different hardware.
	moreWorkers := cfg
	moreWorkers.Workers = 8
	if _, err := RunStudyStream(moreWorkers, StreamOptions{Resume: ck}); err != nil {
		t.Errorf("resume under a different worker count failed: %v", err)
	}
}

func orName(profile string) string {
	if profile == "" {
		return "off"
	}
	return profile
}
