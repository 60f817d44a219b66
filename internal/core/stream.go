package core

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"time"

	"repro/internal/crawler"
	"repro/internal/httpsim"
)

// ErrAborted reports that a streaming run was stopped by StreamOptions.
// AbortAfter — the deterministic stand-in for a kill signal used by the
// kill/resume tests and the CI smoke job. The state on disk is whatever
// periodic checkpoint was last atomically written, exactly as after a
// real SIGKILL.
var ErrAborted = errors.New("core: streaming run aborted")

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
// pipeline — the study engine over live crawls. Up to Workers goroutines
// claim whole exchanges off a longest-plan-first queue; each runs its
// exchange's crawl → scan inline and folds the outcomes, in crawl order,
// into one shared accumulator in batches of foldBatch under a single
// lock. Nothing accumulates per record — no record slices, no HAR, no
// verdict log — so peak memory is O(workers × foldBatch + aggregate
// state), not O(URLs). The resulting st.Analysis is element-identical to
// Analyze's over the same crawls held in memory (Study.Crawl) except that
// Verdicts is left empty; every report rendered from it is byte-identical.
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

	workers := an.workerCount()
	every := opts.CheckpointEvery
	if every <= 0 {
		every = 5000
	}

	var mu sync.Mutex
	e := newEngine(an, &mu)
	if opts.WriteDeltaPath != "" && e.cache == nil {
		return fmt.Errorf("core: epoch delta output requires the verdict cache")
	}
	if opts.Preload != nil && e.cache != nil {
		if opts.Preload.IntelHash == st.Universe.IntelFingerprint() {
			n := e.cache.Preload(opts.Preload.Verdicts)
			an.Metrics.Counter("stream.delta.preloaded").Add(int64(n))
		} else {
			an.Metrics.Counter("stream.delta.skipped_intel_shift").Inc()
		}
	}

	// foldedThisRun is guarded by mu, under which the engine runs every
	// fold. Checkpoints and the abort budget are checked after every
	// record, so both land on exact record counts even mid-batch.
	foldedThisRun := 0
	start := time.Now()
	errs := make([]error, len(names))
	runLongestFirst(workers, st.Steps, func(ei int) {
		errs[ei] = e.run(names[ei], startAt[ei], st.crawlFeed(ei, transport), func(batch []scanned) error {
			for k := range batch {
				fs.fold(ei, &batch[k].rec, batch[k].o)
				foldedThisRun++
				if opts.CheckpointPath != "" && (resumedTotal+foldedThisRun)%every == 0 {
					if err := writeCheckpointFile(opts.CheckpointPath, ckptAnalysis,
						st.Config.Seed, st.Config.checkpointHash(), encodeFoldPayload(fs.snapshot())); err != nil {
						return err
					}
					an.Metrics.Counter("stream.checkpoint.writes").Inc()
				}
				if opts.AbortAfter > 0 && foldedThisRun >= opts.AbortAfter {
					e.halt.Store(true)
					return errStreamStopped
				}
			}
			return nil
		})
	})

	if err := firstRealError(errs...); err != nil {
		return err
	}
	if e.halt.Load() {
		return fmt.Errorf("%w after %d records (checkpoint: %s)", ErrAborted, foldedThisRun, opts.CheckpointPath)
	}

	cstats := e.cacheStats()
	st.Config.Metrics.Histogram("study.stream_seconds").Observe(time.Since(start).Seconds())

	st.Analysis = fs.finish(cstats)
	st.publishRenderMetrics()
	if opts.WriteDeltaPath != "" {
		delta := &EpochDelta{
			Epoch:     st.Config.Epoch,
			IntelHash: st.Universe.IntelFingerprint(),
			Verdicts:  e.cache.Export(),
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

// crawlFeed is the engine feed for exchange ei: its crawl session,
// streamed through transport.
func (st *Study) crawlFeed(ei int, transport httpsim.RoundTripper) func(func(*crawler.Record) error) error {
	opts := crawler.ExchangeOptions(st.crawlOptions(), ei, st.Steps[ei])
	return func(sink func(*crawler.Record) error) error {
		_, _, err := crawler.CrawlExchangeStream(st.Exchanges[ei], transport, opts, sink)
		return err
	}
}
