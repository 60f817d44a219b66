package core

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/crawler"
	"repro/internal/obs"
)

// ErrAborted reports that a streaming run was stopped by StreamOptions.
// AbortAfter — the deterministic stand-in for a kill signal used by the
// kill/resume tests and the CI smoke job. The state on disk is whatever
// periodic checkpoint was last atomically written, exactly as after a
// real SIGKILL.
var ErrAborted = errors.New("core: streaming run aborted")

// errStreamStopped unwinds a crawl once its run has decided to stop; it
// never escapes RunStream or RunFleet.
var errStreamStopped = errors.New("core: stream stopped")

// foldBatch is how many scanned records a stream worker buffers per
// exchange before taking the fold lock. Folding record by record convoys
// every worker on that lock; 64 amortizes it while keeping in-flight
// memory at O(workers × foldBatch) records.
const foldBatch = 64

// scanned is one record waiting in a worker's fold batch, with its verdict.
type scanned struct {
	rec crawler.Record
	o   recOutcome
}

// StreamOptions tunes a bounded-memory streaming run (Study.RunStream).
type StreamOptions struct {
	// CheckpointPath, when non-empty, enables periodic checkpointing:
	// every CheckpointEvery folded records the full accumulator state is
	// written atomically to this path. The file is removed when the run
	// completes, so a checkpoint exists exactly while a run is resumable.
	CheckpointPath string
	// CheckpointEvery is the fold-count interval between checkpoint
	// writes; <= 0 means 5000.
	CheckpointEvery int
	// Resume, when set, restores the accumulator from a loaded checkpoint
	// and fast-forwards the crawl past the records it already covers. The
	// checkpoint must validate against the study's seed and config.
	Resume *Checkpoint
	// AbortAfter, when > 0, simulates a kill: the run stops with
	// ErrAborted after folding that many records in this process, without
	// writing a final checkpoint. Testing hook; 0 disables.
	AbortAfter int
	// Preload, when set, seeds the verdict cache from a prior epoch's
	// delta (see ValidateDelta for the provenance checks the caller must
	// run first). The intel gate is enforced HERE: entries are seeded only
	// when the delta's IntelHash matches this study universe's
	// IntelFingerprint — a shifted feed rebuilds every engine's signature
	// subset, so on mismatch the run silently falls back to scanning
	// everything, which is slower but always byte-identical. Ignored when
	// the cache is disabled.
	Preload *EpochDelta
	// WriteDeltaPath, when non-empty, writes a kind-4 epoch delta for this
	// study's epoch after a successful (non-aborted) run, ready for the
	// next epoch's Preload. Requires the verdict cache.
	WriteDeltaPath string
}

// RunStream executes the crawl and the analysis as one bounded-memory
// pipeline. Up to Workers goroutines claim whole exchanges off a
// longest-plan-first queue; each runs its exchange's crawl → scan inline
// and folds the outcomes, in crawl order, into one shared accumulator in
// batches of foldBatch under a single lock. Nothing accumulates per
// record — no record slices, no HAR, no verdict log — so peak memory is
// O(workers × foldBatch + aggregate state), not O(URLs). The resulting
// st.Analysis is element-identical to the batch path's (Study.Run) except
// that Verdicts is left empty; every report rendered from it is
// byte-identical.
//
// With a checkpoint path configured, kill-at-any-point + resume yields
// the same final Analysis as an uninterrupted run: the resumed process
// replays the deterministic crawl, skips the records the checkpoint
// already covers (their fetches still run, keeping the virtual clock and
// shortener hit counters exact), and folds only the remainder. Records
// scanned but still in a batch when the run stops were never folded, so
// a resume crawls them again like any other unfolded record.
func (st *Study) RunStream(opts StreamOptions) error {
	an := st.Analyzer
	names, kinds := st.exchangeNamesKinds()
	fs := newFoldState(an, names, kinds, false)
	startAt := make([]int, len(names))
	resumedTotal := 0
	if opts.Resume != nil {
		if opts.Resume.kind != ckptAnalysis {
			return fmt.Errorf("core: checkpoint is a %s checkpoint, not an analysis one", opts.Resume.KindName())
		}
		if err := opts.Resume.Validate(st.Config); err != nil {
			return err
		}
		if err := fs.restore(opts.Resume.fold); err != nil {
			return err
		}
		for i, es := range opts.Resume.fold.exchanges {
			if es.folded > st.Steps[i] {
				return fmt.Errorf("core: checkpoint progress %d on %q exceeds the study's %d steps",
					es.folded, es.name, st.Steps[i])
			}
			startAt[i] = es.folded
			resumedTotal += es.folded
		}
		an.Metrics.Counter("stream.checkpoint.resumed_records").Add(int64(resumedTotal))
	}

	if st.Config.DriveShortenerTraffic {
		st.driveShortenerTraffic()
	}
	transport := st.transport()

	workers := an.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	every := opts.CheckpointEvery
	if every <= 0 {
		every = 5000
	}

	var cache *VerdictCache
	if !an.DisableCache {
		cache = NewVerdictCache()
	}
	if opts.WriteDeltaPath != "" && cache == nil {
		return fmt.Errorf("core: epoch delta output requires the verdict cache")
	}
	if opts.Preload != nil && cache != nil {
		if opts.Preload.IntelHash == st.Universe.IntelFingerprint() {
			n := cache.Preload(opts.Preload.Verdicts)
			an.Metrics.Counter("stream.delta.preloaded").Add(int64(n))
		} else {
			an.Metrics.Counter("stream.delta.skipped_intel_shift").Inc()
		}
	}
	an.Metrics.Gauge("pipeline.workers.configured").Set(int64(workers))

	// mu guards fs and the run's fold bookkeeping. halted is only set
	// under mu but is read lock-free, so crawls unwind without queueing
	// for the lock.
	var (
		mu            sync.Mutex
		foldedThisRun int
		aborted       bool
		ckptErr       error
		halted        atomic.Bool
	)
	// fold folds one exchange's batch in crawl order. Checkpoints and the
	// abort budget are checked after every record, so both land on exact
	// record counts even in the middle of a batch.
	fold := func(ei int, batch []scanned) error {
		mu.Lock()
		defer mu.Unlock()
		if halted.Load() {
			return errStreamStopped
		}
		span := an.Tracer.Start(names[ei], obs.StageAggregate)
		defer span.End()
		for k := range batch {
			fs.fold(ei, &batch[k].rec, batch[k].o)
			foldedThisRun++
			an.Metrics.Counter("stream.records").Inc()
			if opts.CheckpointPath != "" && (resumedTotal+foldedThisRun)%every == 0 {
				if err := writeCheckpointFile(opts.CheckpointPath, ckptAnalysis,
					st.Config.Seed, st.Config.checkpointHash(), encodeFoldPayload(fs.snapshot())); err != nil {
					ckptErr = err
					halted.Store(true)
					return errStreamStopped
				}
				an.Metrics.Counter("stream.checkpoint.writes").Inc()
			}
			if opts.AbortAfter > 0 && foldedThisRun >= opts.AbortAfter {
				aborted = true
				halted.Store(true)
				return errStreamStopped
			}
		}
		return nil
	}

	start := time.Now()
	crawlErrs := make([]error, len(names))
	base := st.crawlOptions()
	runLongestFirst(workers, st.Steps, func(ei int) {
		if halted.Load() {
			return
		}
		batch := make([]scanned, 0, foldBatch)
		// Records the resume checkpoint already covers are fetched (the
		// virtual clock and the shortener hit counters must advance exactly
		// as in the original run) but never scanned or folded.
		sink := func(rec *crawler.Record) error {
			if halted.Load() {
				return errStreamStopped
			}
			if rec.Seq < startAt[ei] {
				an.Metrics.Counter("stream.skipped").Inc()
				return nil
			}
			batch = append(batch, scanned{rec: *rec})
			s := &batch[len(batch)-1]
			s.o = an.scanOne(cache, names[ei], &s.rec)
			if len(batch) < foldBatch {
				return nil
			}
			err := fold(ei, batch)
			batch = batch[:0]
			return err
		}
		_, _, err := crawler.CrawlExchangeStream(st.Exchanges[ei], transport,
			crawler.ExchangeOptions(base, ei, st.Steps[ei]), sink)
		if err == nil && len(batch) > 0 {
			err = fold(ei, batch)
		}
		if err != nil && !errors.Is(err, errStreamStopped) {
			crawlErrs[ei] = err
			halted.Store(true)
		}
	})

	if ckptErr != nil {
		return ckptErr
	}
	if aborted {
		return fmt.Errorf("%w after %d records (checkpoint: %s)", ErrAborted, foldedThisRun, opts.CheckpointPath)
	}
	if err := errors.Join(crawlErrs...); err != nil {
		return fmt.Errorf("core: streaming crawl: %w", err)
	}

	cstats := CacheStats{}
	if cache != nil {
		cstats = cache.Stats()
	}
	an.Metrics.Counter("pipeline.cache.hits").Add(int64(cstats.Hits))
	an.Metrics.Counter("pipeline.cache.misses").Add(int64(cstats.Misses))
	st.Config.Metrics.Histogram("study.stream_seconds").Observe(time.Since(start).Seconds())

	st.Analysis = fs.finish(cstats)
	st.publishRenderMetrics()
	if opts.WriteDeltaPath != "" {
		delta := &EpochDelta{
			Epoch:     st.Config.Epoch,
			IntelHash: st.Universe.IntelFingerprint(),
			Verdicts:  cache.Export(),
		}
		for _, s := range st.Universe.ChangedSites {
			delta.ChangedHosts = append(delta.ChangedHosts, s.Host)
		}
		if err := WriteEpochDelta(opts.WriteDeltaPath, st.Config, delta); err != nil {
			return err
		}
		st.WrittenDelta = delta
	}
	if opts.CheckpointPath != "" {
		// The run is complete: a checkpoint now would only invite a
		// pointless resume, so the invariant is "a checkpoint file exists
		// exactly while a run is interrupted and resumable".
		os.Remove(opts.CheckpointPath)
	}
	return nil
}

// RunStudyStream is the streaming analog of RunStudy: build the study,
// then execute crawl + analysis as one bounded-memory pipeline.
func RunStudyStream(cfg StudyConfig, opts StreamOptions) (*Study, error) {
	st, err := NewStudy(cfg)
	if err != nil {
		return nil, err
	}
	if err := st.RunStream(opts); err != nil {
		return nil, err
	}
	return st, nil
}
