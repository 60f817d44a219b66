package core

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/testutil"
)

// TestStreamDatasetMatchesBatch locks in the spill-and-concatenate
// contract: the streamed dataset file is byte-identical to WriteDataset
// over the same crawl held in memory, and no spill parts survive
// completion.
func TestStreamDatasetMatchesBatch(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	cfg := streamConfig(2, 0, "flaky")
	batch, err := crawlAndAnalyze(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := WriteDataset(&want, batch.Crawls); err != nil {
		t.Fatal(err)
	}

	st, err := NewStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(t.TempDir(), "dataset.jsonl")
	res, err := st.StreamDataset(out, DatasetStreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.Bytes(), got) {
		t.Errorf("streamed dataset differs from in-memory WriteDataset (want %d bytes, got %d)", want.Len(), len(got))
	}
	if res.Records != batch.Analysis.TotalCrawled {
		t.Errorf("res.Records = %d, want %d", res.Records, batch.Analysis.TotalCrawled)
	}
	if res.Failed != batch.Analysis.TotalFailed() {
		t.Errorf("res.Failed = %d, want %d", res.Failed, batch.Analysis.TotalFailed())
	}
	for i := range st.Exchanges {
		if _, err := os.Stat(partPath(out, i)); !os.IsNotExist(err) {
			t.Errorf("spill part %d not removed after completion", i)
		}
	}
}

// TestStreamDatasetKillResume kills a checkpointed dataset crawl mid-run
// and resumes: the final file must be byte-identical to an uninterrupted
// streamed crawl, with checkpoint and spill parts cleaned up.
func TestStreamDatasetKillResume(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	cfg := streamConfig(3, 0, "flaky")
	ref, err := NewStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	refPath := filepath.Join(dir, "ref.jsonl")
	refRes, err := ref.StreamDataset(refPath, DatasetStreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(refPath)
	if err != nil {
		t.Fatal(err)
	}

	out := filepath.Join(dir, "dataset.jsonl")
	ckpt := filepath.Join(dir, "crawl.ckpt")
	const every = 17
	for _, cut := range []int{3, refRes.Records / 3, refRes.Records * 2 / 3} {
		st1, err := NewStudy(cfg)
		if err != nil {
			t.Fatal(err)
		}
		_, err = st1.StreamDataset(out, DatasetStreamOptions{CheckpointPath: ckpt, CheckpointEvery: every, AbortAfter: cut})
		if !errors.Is(err, ErrAborted) {
			t.Fatalf("cut=%d: got error %v, want ErrAborted", cut, err)
		}
		opts := DatasetStreamOptions{CheckpointPath: ckpt, CheckpointEvery: every}
		if _, statErr := os.Stat(ckpt); statErr == nil {
			ck, err := LoadCheckpoint(ckpt)
			if err != nil {
				t.Fatalf("cut=%d: load checkpoint: %v", cut, err)
			}
			if ck.Records() >= refRes.Records {
				t.Fatalf("cut=%d: checkpoint claims %d records, full crawl has %d", cut, ck.Records(), refRes.Records)
			}
			opts.Resume = ck
		} else if cut >= every {
			t.Fatalf("cut=%d: no checkpoint on disk with interval %d", cut, every)
		} else {
			// Fresh start: the killed run's parts are stale leftovers.
			for i := range st1.Exchanges {
				os.Remove(partPath(out, i))
			}
		}
		st2, err := NewStudy(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := st2.StreamDataset(out, opts)
		if err != nil {
			t.Fatalf("cut=%d: resumed crawl: %v", cut, err)
		}
		got, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want, got) {
			t.Errorf("cut=%d: resumed dataset differs from uninterrupted run (want %d bytes, got %d)", cut, len(want), len(got))
		}
		if res != refRes {
			t.Errorf("cut=%d: result %+v, want %+v", cut, res, refRes)
		}
		if _, err := os.Stat(ckpt); !os.IsNotExist(err) {
			t.Errorf("cut=%d: checkpoint not removed after completion", cut)
		}
	}
}

// TestStreamDatasetRejectsAnalysisCheckpoint ensures the two checkpoint
// kinds cannot be crossed: an analysis checkpoint must not resume a
// dataset crawl, and vice versa.
func TestStreamDatasetRejectsAnalysisCheckpoint(t *testing.T) {
	cfg := streamConfig(1, 4, "")
	dir := t.TempDir()
	anCkpt := filepath.Join(dir, "analysis.ckpt")
	_, err := RunStudy(cfg, StreamOptions{CheckpointPath: anCkpt, CheckpointEvery: 5, AbortAfter: 40})
	if !errors.Is(err, ErrAborted) {
		t.Fatal(err)
	}
	ck, err := LoadCheckpoint(anCkpt)
	if err != nil {
		t.Fatal(err)
	}
	st, err := NewStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.StreamDataset(filepath.Join(dir, "d.jsonl"), DatasetStreamOptions{Resume: ck}); err == nil {
		t.Error("dataset crawl resumed from an analysis checkpoint, want error")
	}

	crCkpt := filepath.Join(dir, "crawl.ckpt")
	st2, err := NewStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, err = st2.StreamDataset(filepath.Join(dir, "d2.jsonl"),
		DatasetStreamOptions{CheckpointPath: crCkpt, CheckpointEvery: 5, AbortAfter: 40})
	if !errors.Is(err, ErrAborted) {
		t.Fatal(err)
	}
	ck2, err := LoadCheckpoint(crCkpt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunStudy(cfg, StreamOptions{Resume: ck2}); err == nil {
		t.Error("analysis resumed from a crawl checkpoint, want error")
	}
}
