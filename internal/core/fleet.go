package core

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/web"
)

// Fleet mode partitions the study by exchange: shard i is exchange i's
// complete streaming pipeline (crawl → scan → fold), run by one of N
// virtual workers pulling shards off a shared queue. The queue is ordered
// longest-plan-first, so a straggler shard starts as early as possible
// and a worker that finishes a short shard immediately steals the next
// one — work-stealing with the queue as the shared pool. Each shard
// periodically checkpoints its own SLUMCKPT shard file, so any subset of
// workers can be killed mid-shard and a later invocation (with any fleet
// size) resumes every shard from its last durable prefix; the merged
// report is byte-identical either way. See shard.go for the merge
// algebra and DESIGN.md for the full fleet & shard-merge contract.

// FleetOptions tunes a sharded fleet run (Study.RunFleet).
type FleetOptions struct {
	// Fleet is the number of virtual workers pulling shards off the
	// queue; <= 0 means 1. The report is byte-identical for every fleet
	// size.
	Fleet int
	// ShardDir, when non-empty, enables per-shard checkpointing: every
	// CheckpointEvery folded records a shard rewrites its own checkpoint
	// file under this directory, and a completed shard always persists
	// its final (fully folded) state before the fleet merges. Shard files
	// are removed after a successful full-fleet merge unless KeepShards
	// is set.
	ShardDir string
	// CheckpointEvery is the per-shard fold-count interval between
	// checkpoint writes; <= 0 means 5000.
	CheckpointEvery int
	// Resume restores per-shard progress from existing shard checkpoints
	// under ShardDir (missing files start fresh). Restored shards
	// fast-forward their crawl past covered records — fetches still run,
	// keeping the virtual clock and the shortener hit counters exact —
	// and fold only the remainder.
	Resume bool
	// AbortAfter, when > 0, simulates a kill: the whole fleet stops with
	// ErrAborted after folding that many records across all shards in
	// this process, leaving whatever periodic shard checkpoints were last
	// written. Testing hook; 0 disables.
	AbortAfter int
	// Only restricts the run to these shard indices — distributed mode,
	// where separate invocations cover disjoint subsets and a merge-only
	// pass (MergeShardStudy) folds the shard files into the report.
	// Requires ShardDir; no Analysis is produced and shard files are
	// always kept.
	Only []int
	// KeepShards leaves completed shard checkpoints on disk after a
	// successful full-fleet merge (normally they are cleaned up, mirroring
	// the streaming pipeline's "checkpoint exists exactly while a run is
	// resumable" invariant).
	KeepShards bool
}

// ShardPath returns shard index i's checkpoint filename under dir.
func ShardPath(dir string, i int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%03d.ckpt", i))
}

// shardRun is one shard's in-flight state. Ownership passes from the
// coordinator to exactly one worker goroutine via the queue channel, so
// no field needs locking.
type shardRun struct {
	idx     int // exchange / shard index
	fold    *foldState
	visits  map[string]*shardVisit
	startAt int // records [0, startAt) are restored, fetch-replayed, not folded
	folded  int // records folded by this process
}

// RunFleet executes the study as a sharded fleet (see the package-level
// comment above). On success with a full scope, st.Analysis holds the
// merged result — element-identical to RunStream's, except that
// CacheStats covers only this process's scans.
func (st *Study) RunFleet(opts FleetOptions) error {
	an := st.Analyzer
	names, kinds := st.exchangeNamesKinds()
	nShards := len(names)

	scope, err := fleetScope(opts.Only, nShards)
	if err != nil {
		return err
	}
	partial := len(scope) != nShards
	if partial && opts.ShardDir == "" {
		return fmt.Errorf("core: fleet: a shard-subset run needs a shard dir — its shard files are the output")
	}
	if opts.Resume && opts.ShardDir == "" {
		return fmt.Errorf("core: fleet: resume needs a shard dir")
	}
	if opts.ShardDir != "" {
		if err := os.MkdirAll(opts.ShardDir, 0o755); err != nil {
			return fmt.Errorf("core: fleet: %w", err)
		}
	}
	every := opts.CheckpointEvery
	if every <= 0 {
		every = 5000
	}
	fleet := opts.Fleet
	if fleet <= 0 {
		fleet = 1
	}

	runs := make([]*shardRun, len(scope))
	plan := make([]int, len(scope))
	resumedTotal := 0
	for pos, i := range scope {
		plan[pos] = st.Steps[i]
		sr := &shardRun{idx: i, visits: map[string]*shardVisit{}}
		sr.fold = newFoldState(an, names[i:i+1], kinds[i:i+1], false)
		if opts.Resume {
			ck, lerr := LoadCheckpoint(ShardPath(opts.ShardDir, i))
			switch {
			case lerr == nil:
				if err := st.validateShardCheckpoint(ck, i, nShards); err != nil {
					return err
				}
				if err := sr.fold.restore(ck.shard.fold); err != nil {
					return err
				}
				sr.startAt = ck.shard.folded()
				resumedTotal += sr.startAt
				// Visits deliberately start empty: the restored fold
				// already reflects the covered records, but their
				// shortener traffic is regenerated exactly by the
				// deterministic fetch replay — restoring the recorded
				// deltas too would double-count every hit.
			case errors.Is(lerr, os.ErrNotExist):
				// No checkpoint for this shard: start it fresh.
			default:
				return lerr
			}
		}
		runs[pos] = sr
	}
	an.Metrics.Counter("fleet.resumed_records").Add(int64(resumedTotal))

	if st.Config.DriveShortenerTraffic {
		st.driveShortenerTraffic()
	}

	// One engine, and so one verdict cache, shared across every shard
	// worker: total hit/miss counts stay deterministic (misses == distinct
	// keys) and fleet-size invariant. Each shard folds into its own state,
	// so the engine takes no fold lock.
	e := newEngine(an, nil)

	an.Metrics.Gauge("fleet.size").Set(int64(fleet))
	an.Metrics.Gauge("fleet.shards").Set(int64(len(scope)))

	var fleetFolded atomic.Int64
	start := time.Now()
	errs := make([]error, len(scope))
	runLongestFirst(fleet, plan, func(pos int) {
		errs[pos] = st.runShard(e, runs[pos], opts, nShards, every, &fleetFolded)
	})

	if err := firstRealError(errs...); err != nil {
		return err
	}
	if e.halt.Load() {
		return fmt.Errorf("%w after %d records (shards: %s)", ErrAborted, fleetFolded.Load(), opts.ShardDir)
	}

	if partial {
		// Distributed mode: the shard files are the product. A merge-only
		// pass (MergeShardStudy) folds them once every subset has run.
		st.publishRenderMetrics()
		return nil
	}

	merger := NewShardMerger()
	for _, sr := range runs {
		if err := merger.add(st.Config.Seed, st.Config.checkpointHash(), st.shardSnapshot(sr, nShards)); err != nil {
			return err
		}
	}
	a, err := merger.Analysis()
	if err != nil {
		return err
	}
	a.CacheStats = e.cacheStats()
	st.Config.Metrics.Histogram("study.fleet_seconds").Observe(time.Since(start).Seconds())
	st.Analysis = a
	st.publishRenderMetrics()

	if opts.ShardDir != "" && !opts.KeepShards {
		// The run is complete and merged: shard files exist exactly while
		// a fleet is interrupted and resumable, like stream checkpoints.
		for _, sr := range runs {
			os.Remove(ShardPath(opts.ShardDir, sr.idx))
		}
	}
	return nil
}

// runShard executes one shard's full pipeline on the calling worker
// goroutine: the engine crawls the exchange's session, scans each record
// through the shared cache and folds each batch into the shard's
// single-exchange accumulator, which checkpoints periodically. Returns
// errStreamStopped when the fleet halted (abort or a sibling's failure).
func (st *Study) runShard(e *engine, sr *shardRun, opts FleetOptions, nShards, every int, fleetFolded *atomic.Int64) error {
	// Recorder inside, fault injector outside: synthesized faults never
	// reach the services, so they must not be recorded as visits either.
	recorder := &shardVisitRecorder{inner: st.Universe.Internet, reg: st.Universe.Shorteners, visits: sr.visits}
	name := st.Exchanges[sr.idx].Config().Name
	err := e.run(name, sr.startAt, st.crawlFeed(sr.idx, st.transportOver(recorder)), func(batch []scanned) error {
		for k := range batch {
			sr.fold.fold(0, &batch[k].rec, batch[k].o)
			sr.folded++
			total := fleetFolded.Add(1)
			if opts.ShardDir != "" && (sr.startAt+sr.folded)%every == 0 {
				if err := st.writeShard(sr, nShards, opts.ShardDir); err != nil {
					return err
				}
				e.an.Metrics.Counter("fleet.checkpoint.writes").Inc()
			}
			if opts.AbortAfter > 0 && total >= int64(opts.AbortAfter) {
				e.halt.Store(true)
				return errStreamStopped
			}
		}
		return nil
	})
	if err != nil || opts.ShardDir == "" {
		return err
	}
	// Shard complete (folded == planned): persist the final state so a
	// merge-only pass — possibly in another process — can consume it.
	return st.writeShard(sr, nShards, opts.ShardDir)
}

// shardSnapshot captures a shard's current state.
func (st *Study) shardSnapshot(sr *shardRun, nShards int) *shardSnapshot {
	return &shardSnapshot{index: sr.idx, shards: nShards, planned: st.Steps[sr.idx], fold: sr.fold.snapshot(), visits: sr.visits}
}

// writeShard atomically persists a shard's current state.
func (st *Study) writeShard(sr *shardRun, nShards int, dir string) error {
	return writeCheckpointFile(ShardPath(dir, sr.idx), ckptShard,
		st.Config.Seed, st.Config.checkpointHash(), encodeShardPayload(st.shardSnapshot(sr, nShards)))
}

// validateShardCheckpoint checks a loaded checkpoint against the study
// and the shard slot it is about to resume.
func (st *Study) validateShardCheckpoint(ck *Checkpoint, i, nShards int) error {
	if ck.kind != ckptShard {
		return fmt.Errorf("core: fleet: %s is a %s checkpoint, not a shard one", ShardPath("", i), ck.KindName())
	}
	if err := ck.Validate(st.Config); err != nil {
		return err
	}
	s := ck.shard
	if s.index != i {
		return fmt.Errorf("core: fleet: shard file for index %d claims index %d", i, s.index)
	}
	if s.shards != nShards {
		return fmt.Errorf("core: fleet: shard %d belongs to a %d-shard partition, study has %d", i, s.shards, nShards)
	}
	if want := st.Exchanges[i].Config().Name; s.name() != want {
		return fmt.Errorf("core: fleet: shard %d is exchange %q, study has %q", i, s.name(), want)
	}
	if s.planned != st.Steps[i] {
		return fmt.Errorf("core: fleet: shard %d plans %d records, study plans %d", i, s.planned, st.Steps[i])
	}
	return nil
}

// fleetScope validates and normalizes an Only selection: indices must be
// in range and distinct; empty means every shard. Returned ascending.
func fleetScope(only []int, n int) ([]int, error) {
	if len(only) == 0 {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out, nil
	}
	seen := make(map[int]bool, len(only))
	out := make([]int, 0, len(only))
	for _, i := range only {
		if i < 0 || i >= n {
			return nil, fmt.Errorf("core: fleet: shard index %d out of range (study has %d shards)", i, n)
		}
		if seen[i] {
			return nil, fmt.Errorf("core: fleet: duplicate shard index %d", i)
		}
		seen[i] = true
		out = append(out, i)
	}
	sort.Ints(out)
	return out, nil
}

// RunStudyFleet is the fleet analog of RunStudy: build the
// study, then execute it as a sharded fleet.
func RunStudyFleet(cfg StudyConfig, opts FleetOptions) (*Study, error) {
	return RunStudyFleetFrom(cfg, nil, opts)
}

// RunStudyFleetFrom is RunStudyFleet with an optional previous epoch's
// universe to advance incrementally (see NewStudyFrom). The longitudinal
// fleet path threads each epoch's universe into the next so the whole
// fleet shares ONE universe per epoch instead of regenerating it.
func RunStudyFleetFrom(cfg StudyConfig, prev *web.Universe, opts FleetOptions) (*Study, error) {
	st, err := NewStudyFrom(cfg, prev)
	if err != nil {
		return nil, err
	}
	if err := st.RunFleet(opts); err != nil {
		return nil, err
	}
	return st, nil
}

// MergeShardStudy builds the study universe for cfg without crawling,
// loads every shard checkpoint under dir, merges them into one Analysis,
// and replays the shards' recorded shortener traffic so Table IV is
// exact. The resulting report is byte-identical to a single-process run
// of the same configuration — this is the merge-only pass distributed
// fleets finish with.
func MergeShardStudy(cfg StudyConfig, dir string) (*Study, error) {
	return MergeShardStudyFrom(cfg, nil, dir)
}

// MergeShardStudyFrom is MergeShardStudy with an optional previous
// epoch's universe to advance incrementally (see NewStudyFrom).
func MergeShardStudyFrom(cfg StudyConfig, prev *web.Universe, dir string) (*Study, error) {
	st, err := NewStudyFrom(cfg, prev)
	if err != nil {
		return nil, err
	}
	matches, err := filepath.Glob(filepath.Join(dir, "shard-*.ckpt"))
	if err != nil {
		return nil, fmt.Errorf("core: merge: %w", err)
	}
	if len(matches) == 0 {
		return nil, fmt.Errorf("core: merge: no shard checkpoints under %s", dir)
	}
	sort.Strings(matches)
	merger := NewShardMerger()
	for _, path := range matches {
		ck, err := LoadCheckpoint(path)
		if err != nil {
			return nil, err
		}
		if err := merger.Add(ck); err != nil {
			return nil, fmt.Errorf("%s: %w", filepath.Base(path), err)
		}
	}
	if err := merger.ValidateStudy(st); err != nil {
		return nil, err
	}
	a, err := merger.Analysis()
	if err != nil {
		return nil, err
	}
	// Rebuild the background member traffic the original run drove, then
	// replay the crawl-time visit deltas on top — together they are the
	// full Table IV accounting.
	if cfg.DriveShortenerTraffic {
		st.driveShortenerTraffic()
	}
	if err := merger.ApplyVisits(st.Universe.Shorteners); err != nil {
		return nil, err
	}
	st.Analysis = a
	return st, nil
}
