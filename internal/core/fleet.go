package core

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/crawler"
	"repro/internal/obs"
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
// merged result — element-identical to Study.Run's except that Verdicts
// is empty and CacheStats covers only this process's scans.
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
	resumedTotal := 0
	for pos, i := range scope {
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

	// One verdict cache shared across every shard worker: total hit/miss
	// counts stay deterministic (misses == distinct keys) and fleet-size
	// invariant, exactly like the worker pool's shared cache.
	var cache *VerdictCache
	if !an.DisableCache {
		cache = NewVerdictCache()
	}

	an.Metrics.Gauge("fleet.size").Set(int64(fleet))
	an.Metrics.Gauge("fleet.shards").Set(int64(len(scope)))

	var fleetFolded atomic.Int64
	var abortedFlag atomic.Bool
	stopC := make(chan struct{})
	var stopOnce sync.Once
	stop := func() { stopOnce.Do(func() { close(stopC) }) }

	start := time.Now()
	errs := make([]error, len(scope))
	plan := make([]int, len(scope))
	for pos, i := range scope {
		plan[pos] = st.Steps[i]
	}
	runLongestFirst(fleet, plan, func(pos int) {
		select {
		case <-stopC:
			// The fleet is stopping: skip the shards not yet started (their
			// checkpoints, if any, are untouched and resume cleanly).
			return
		default:
		}
		errs[pos] = st.runShard(runs[pos], cache, opts, nShards, every, &fleetFolded, stopC, stop, &abortedFlag)
	})
	stop()

	for _, e := range errs {
		if e != nil && !errors.Is(e, errStreamStopped) {
			return e
		}
	}
	if abortedFlag.Load() {
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
		snap := &shardSnapshot{
			index:   sr.idx,
			shards:  nShards,
			planned: st.Steps[sr.idx],
			fold:    sr.fold.snapshot(),
			visits:  sr.visits,
		}
		if err := merger.add(st.Config.Seed, st.Config.checkpointHash(), snap); err != nil {
			return err
		}
	}
	a, err := merger.Analysis()
	if err != nil {
		return err
	}
	cstats := CacheStats{}
	if cache != nil {
		cstats = cache.Stats()
	}
	a.CacheStats = cstats
	an.Metrics.Counter("pipeline.cache.hits").Add(int64(cstats.Hits))
	an.Metrics.Counter("pipeline.cache.misses").Add(int64(cstats.Misses))
	// One aggregate-stage span per exchange, mirroring the batch path's
	// span counts.
	for _, name := range names {
		an.Tracer.Start(name, obs.StageAggregate).End()
	}
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

// runLongestFirst calls job(p) for every p in [0, len(plan)) on up to
// workers goroutines sharing one queue ordered longest plan first (plan[p]
// records, ties in index order): the biggest job is claimed first, so the
// wall clock approaches max(longest plan, total/workers) instead of
// whatever an arbitrary order leaves for last, and a worker that finishes
// a short job immediately steals the next one. It returns once every job
// has returned. Both RunFleet (one shard per job) and RunStream (one
// exchange pipeline per job) schedule through it.
func runLongestFirst(workers int, plan []int, job func(p int)) {
	order := make([]int, len(plan))
	for p := range order {
		order[p] = p
	}
	sort.SliceStable(order, func(a, b int) bool { return plan[order[a]] > plan[order[b]] })
	queue := make(chan int, len(order))
	for _, p := range order {
		queue <- p
	}
	close(queue)
	if workers > len(order) {
		workers = len(order)
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for p := range queue {
				job(p)
			}
		}()
	}
	wg.Wait()
}

// runShard executes one shard's full pipeline on the calling worker
// goroutine: crawl the exchange's session, scan each record through the
// shared cache, fold into the shard's single-exchange accumulator, and
// checkpoint periodically. Returns errStreamStopped when the fleet-wide
// stop fired (abort or a sibling's failure) — never a shard-local error
// disguised as one.
func (st *Study) runShard(sr *shardRun, cache *VerdictCache, opts FleetOptions, nShards, every int,
	fleetFolded *atomic.Int64, stopC chan struct{}, stop func(), abortedFlag *atomic.Bool) error {
	an := st.Analyzer
	i := sr.idx
	name := st.Exchanges[i].Config().Name

	// Recorder inside, fault injector outside: synthesized faults never
	// reach the services, so they must not be recorded as visits either.
	recorder := &shardVisitRecorder{inner: st.Universe.Internet, reg: st.Universe.Shorteners, visits: sr.visits}
	transport := st.transportOver(recorder)
	exOpts := crawler.ExchangeOptions(st.crawlOptions(), i, st.Steps[i])

	var ckptErr error
	sink := func(rec *crawler.Record) error {
		select {
		case <-stopC:
			return errStreamStopped
		default:
		}
		if rec.Seq < sr.startAt {
			// Covered by the restored checkpoint: fetch-replayed for the
			// virtual clock and the shortener counters, never re-folded.
			an.Metrics.Counter("fleet.skipped").Inc()
			return nil
		}
		o := an.scanOne(cache, name, rec)
		sr.fold.fold(0, rec, o)
		sr.folded++
		an.Metrics.Counter("fleet.records").Inc()
		total := fleetFolded.Add(1)
		if opts.ShardDir != "" && (sr.startAt+sr.folded)%every == 0 {
			if err := st.writeShard(sr, nShards, opts.ShardDir); err != nil {
				ckptErr = err
				stop()
				return errStreamStopped
			}
			an.Metrics.Counter("fleet.checkpoint.writes").Inc()
		}
		if opts.AbortAfter > 0 && total >= int64(opts.AbortAfter) {
			abortedFlag.Store(true)
			stop()
			return errStreamStopped
		}
		return nil
	}

	_, _, err := crawler.CrawlExchangeStream(st.Exchanges[i], transport, exOpts, sink)
	if ckptErr != nil {
		return ckptErr
	}
	if err != nil {
		if errors.Is(err, errStreamStopped) {
			return errStreamStopped
		}
		return fmt.Errorf("core: fleet crawl %s: %w", name, err)
	}
	// Shard complete (folded == planned): persist the final state so a
	// merge-only pass — possibly in another process — can consume it.
	if opts.ShardDir != "" {
		if err := st.writeShard(sr, nShards, opts.ShardDir); err != nil {
			return err
		}
	}
	return nil
}

// writeShard atomically persists a shard's current state.
func (st *Study) writeShard(sr *shardRun, nShards int, dir string) error {
	snap := &shardSnapshot{
		index:   sr.idx,
		shards:  nShards,
		planned: st.Steps[sr.idx],
		fold:    sr.fold.snapshot(),
		visits:  sr.visits,
	}
	return writeCheckpointFile(ShardPath(dir, sr.idx), ckptShard,
		st.Config.Seed, st.Config.checkpointHash(), encodeShardPayload(snap))
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

// RunStudyFleet is the fleet analog of RunStudy/RunStudyStream: build the
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
