package core

import (
	"encoding/binary"
	"errors"
	"hash/fnv"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/crawler"
	"repro/internal/obs"
	"repro/internal/urlutil"
)

// CacheStats summarizes verdict-cache effectiveness for one Analyze call.
// With the single-flight cache, Misses equals the number of distinct cache
// keys and Hits the number of records that reused an existing verdict, so
// both are deterministic regardless of worker count or scheduling.
type CacheStats struct {
	Hits   int
	Misses int
}

// HitRate is Hits / (Hits + Misses), or 0 on an empty cache.
func (s CacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// VerdictCache is a single-flight per-URL verdict memo: the first record
// carrying a given (entry URL, content digest) pair runs the full detector
// stack; every later record with the same key — the common case under
// exchange rotation, which re-surfs the same entry URLs hundreds of times
// per crawl — reuses the verdict without re-downloading, re-sandboxing or
// re-scanning anything. Safe for concurrent use.
type VerdictCache struct {
	mu      sync.Mutex
	entries map[string]*cacheEntry
	hits    atomic.Int64
	misses  atomic.Int64
	// keys memoizes verdictKey by record identity; see entryFor.
	keysMu sync.RWMutex
	keys   map[recordIdentity]string
}

// recordIdentity names a record by the exact inputs verdictKey consumes,
// with the body taken by pointer+length instead of content. Served pages
// share one rendered byte array across every fetch (the web package's
// render cache), so equal identity implies equal bytes and therefore an
// equal key. Memo keys pin their body arrays, so a recycled allocation
// can never alias a stale identity.
type recordIdentity struct {
	entry, final, ctype string
	redirects           int
	body                *byte
	n                   int
}

type cacheEntry struct {
	once sync.Once
	v    Verdict
	// seeded marks an entry preloaded from a prior epoch's delta that has
	// not been looked up yet this run. The first lookup flips it and counts
	// as a MISS: that is what a full re-crawl would have recorded for the
	// key, so CacheStats — which feed the report — stay byte-identical
	// between delta mode and a full run.
	seeded atomic.Bool
}

// NewVerdictCache returns an empty cache.
func NewVerdictCache() *VerdictCache {
	return &VerdictCache{
		entries: make(map[string]*cacheEntry),
		keys:    make(map[recordIdentity]string),
	}
}

// entryFor is entry() addressed by record instead of by precomputed key:
// the key derivation — URL normalization plus an fnv pass over the whole
// body — is memoized by recordIdentity, so rotation's re-crawls of the
// same entry URL against the same shared body bytes hash the body once
// instead of once per record. Records whose bodies bypass the render
// cache get fresh arrays each serve, miss the memo and pay the full
// derivation — slower, never wrong. Callers must ensure len(rec.Body)>0
// (cacheable does).
func (c *VerdictCache) entryFor(rec *crawler.Record) (*cacheEntry, bool) {
	id := recordIdentity{rec.EntryURL, rec.FinalURL, rec.ContentType, rec.Redirects, &rec.Body[0], len(rec.Body)}
	c.keysMu.RLock()
	key, ok := c.keys[id]
	c.keysMu.RUnlock()
	if !ok {
		key = verdictKey(rec)
		c.keysMu.Lock()
		// Capped like foldState.contentCats: past the limit the key is
		// recomputed per record rather than letting the memo pin one body
		// array per record when bodies bypass the render cache.
		if len(c.keys) < identityMemoLimit {
			c.keys[id] = key
		}
		c.keysMu.Unlock()
	}
	return c.entry(key)
}

// entry returns the cache slot for key, creating it if absent. The second
// return reports whether the slot already existed (a hit).
func (c *VerdictCache) entry(key string) (*cacheEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[key]; ok {
		return e, true
	}
	e := &cacheEntry{}
	c.entries[key] = e
	return e, false
}

// Stats returns the hit/miss counts observed so far.
func (c *VerdictCache) Stats() CacheStats {
	return CacheStats{Hits: int(c.hits.Load()), Misses: int(c.misses.Load())}
}

// Preload seeds the cache with verdicts carried over from a prior epoch's
// delta. Seeded entries are complete (their once is spent), so a lookup
// reuses the verdict without running the detector; the seeded flag makes
// the stats mirror a full run's. Keys already present are left untouched.
// Returns the number of entries seeded. The CALLER owns the soundness
// gate: preload only when the intel fingerprint is unchanged.
func (c *VerdictCache) Preload(vs []DeltaVerdict) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, dv := range vs {
		if _, ok := c.entries[dv.Key]; ok {
			continue
		}
		e := &cacheEntry{v: Verdict{Malicious: dv.Malicious, Category: Category(dv.Category)}}
		e.once.Do(func() {})
		e.seeded.Store(true)
		c.entries[dv.Key] = e
		n++
	}
	return n
}

// Export snapshots every verdict the run actually used — freshly scanned
// entries plus seeded entries that were looked up at least once — as a
// key-sorted delta slice. Seeded entries never touched this run are
// dropped: a full re-crawl would not have produced them, and dropping
// them keeps delta files byte-identical between delta-mode and
// full-re-crawl producers. Call only after the run has completed (every
// touched entry's once has run).
func (c *VerdictCache) Export() []DeltaVerdict {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]DeltaVerdict, 0, len(c.entries))
	for k, e := range c.entries {
		if e.seeded.Load() {
			continue
		}
		out = append(out, DeltaVerdict{Key: k, Malicious: e.v.Malicious, Category: string(e.v.Category)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// verdictKey derives the cache key for a record: the normalized entry URL
// plus a digest of every other record field Inspect consumes (final URL,
// content type, redirect count, body). Two records agreeing on the key are
// indistinguishable to the detector, so sharing the verdict cannot change
// any output relative to inspecting both.
//
// The entry URL is keyed on its urlutil.Normalize form: the detector only
// ever consumes the URL through urlutil.Parse (host extraction, domain
// lookup, shortener match), under which two spellings that normalize
// identically — case-folded host, explicit default port — are the same
// URL. Keying on the raw string made such pairs miss the cache and
// double-counted cache.misses. URLs Normalize rejects fall back to the
// raw spelling: an unparseable URL is at worst uncached, never wrong.
func verdictKey(rec *crawler.Record) string {
	entry := rec.EntryURL
	if norm, err := urlutil.Normalize(entry); err == nil {
		entry = norm
	}
	h := fnv.New64a()
	h.Write([]byte(rec.FinalURL))
	h.Write([]byte{0})
	h.Write([]byte(rec.ContentType))
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:], uint64(rec.Redirects))
	h.Write(n[:])
	h.Write(rec.Body)
	return entry + "\x00" + strconv.FormatUint(h.Sum64(), 16)
}

// cacheable reports whether a record's inspection may be memoized. Only
// the local-file scan path is: URL-only scans (empty body, or FileScan
// disabled) consult the live network with scanner user agents, where
// cloaking and per-request server state make repeat submissions
// observable, so they always run.
func (an *Analyzer) cacheable(rec *crawler.Record) bool {
	return an.Detector.FileScan && len(rec.Body) > 0
}

// inspect runs the detector over one regular record, through the cache
// when one is active and the record is eligible. pipeline.inspections
// counts actual detector-stack executions (not cache reuses): under the
// single-flight cache that is once per distinct key, so the counter stays
// deterministic across worker counts.
func (an *Analyzer) inspect(cache *VerdictCache, rec *crawler.Record) Verdict {
	if cache == nil || !an.cacheable(rec) {
		an.Metrics.Counter("pipeline.inspections").Inc()
		return an.Detector.Inspect(*rec)
	}
	e, hit := cache.entryFor(rec)
	if hit {
		// A preloaded entry's first lookup is charged as the miss the full
		// run would have recorded; the CAS elects exactly one charger under
		// concurrency, matching the single-flight's one-miss-per-key.
		if e.seeded.CompareAndSwap(true, false) {
			cache.misses.Add(1)
		} else {
			cache.hits.Add(1)
		}
	} else {
		cache.misses.Add(1)
	}
	// Single flight: concurrent requesters of the same key block here
	// until the first finishes, then share its verdict.
	e.once.Do(func() {
		an.Metrics.Counter("pipeline.inspections").Inc()
		e.v = an.Detector.Inspect(*rec)
	})
	return e.v
}

// recOutcome is the per-record result of the scan stage.
type recOutcome struct {
	class ReferralClass
	v     Verdict
}

// scanOne classifies one record and, for regular referrals, runs the
// detector stack. exchangeName scopes the stage-tracer spans.
func (an *Analyzer) scanOne(cache *VerdictCache, exchangeName string, rec *crawler.Record) recOutcome {
	span := an.Tracer.Start(exchangeName, obs.StageClassify)
	o := recOutcome{class: an.Classifier.Classify(*rec)}
	span.End()
	an.Metrics.Counter("pipeline.classified." + o.class.String()).Inc()
	if o.class == Regular {
		scan := an.Tracer.Start(exchangeName, obs.StageScan)
		o.v = an.inspect(cache, rec)
		scan.End()
	}
	return o
}

// foldBatch is how many scanned records the engine buffers per exchange
// before folding them. Folding record by record convoys every exchange
// on a shared fold lock; 64 amortizes it while keeping in-flight memory
// at O(workers × foldBatch) records.
const foldBatch = 64

// scanned is one record waiting in a fold batch, with its verdict.
type scanned struct {
	rec crawler.Record
	o   recOutcome
}

// errStreamStopped unwinds an exchange once its run has halted; it never
// escapes the engine's callers or StreamDataset.
var errStreamStopped = errors.New("core: stream stopped")

// engine is the one study engine. Analyze, RunStream and RunFleet drive
// every exchange through engine.run and differ only in where the records
// come from (an in-memory crawl or a live one) and where the batches
// fold (one shared state or one state per shard).
type engine struct {
	an    *Analyzer
	cache *VerdictCache
	// foldMu serializes the folds when every exchange folds into one
	// shared state (Analyze, RunStream); nil when each exchange owns its
	// fold state (RunFleet's shards).
	foldMu *sync.Mutex
	// halt stops the whole run: set on an abort, a failed checkpoint
	// write or the first crawl error, and read lock-free so crawls unwind
	// without queueing for the fold lock.
	halt atomic.Bool
}

// newEngine returns an engine with a fresh verdict cache, unless the
// analyzer disables it.
func newEngine(an *Analyzer, foldMu *sync.Mutex) *engine {
	e := &engine{an: an, foldMu: foldMu}
	if !an.DisableCache {
		e.cache = NewVerdictCache()
	}
	return e
}

// run drives one exchange through scan → batch → fold. feed produces the
// exchange's records in crawl order and hands each to the sink it is
// given. Records below startAt are covered by a resume checkpoint: they
// are still fed, so the crawl replays them exactly, but never scanned or
// folded. Every other record is counted in pipeline.records, scanned and
// buffered; each full batch of foldBatch records, and the remainder once
// feed returns, goes to fold in crawl order, under one aggregate span and
// under foldMu when set. fold halts the run by setting e.halt and
// returning errStreamStopped, or fails it by returning any other error.
// run returns nil when the exchange completed, errStreamStopped when the
// run halted, and otherwise the error — which halts every other exchange.
func (e *engine) run(name string, startAt int, feed func(sink func(*crawler.Record) error) error,
	fold func(batch []scanned) error) error {
	if e.halt.Load() {
		return errStreamStopped
	}
	an := e.an
	batch := make([]scanned, 0, foldBatch)
	flush := func() error {
		if e.foldMu != nil {
			e.foldMu.Lock()
			defer e.foldMu.Unlock()
		}
		if e.halt.Load() {
			return errStreamStopped
		}
		span := an.Tracer.Start(name, obs.StageAggregate)
		defer span.End()
		err := fold(batch)
		batch = batch[:0]
		return err
	}
	err := feed(func(rec *crawler.Record) error {
		if e.halt.Load() {
			return errStreamStopped
		}
		// startAt is 0 without a resume, and then nothing is skipped, not
		// even an offline dataset's records with a negative Seq.
		if startAt > 0 && rec.Seq < startAt {
			an.Metrics.Counter("pipeline.skipped").Inc()
			return nil
		}
		an.Metrics.Counter("pipeline.records").Inc()
		batch = append(batch, scanned{rec: *rec})
		s := &batch[len(batch)-1]
		s.o = an.scanOne(e.cache, name, &s.rec)
		if len(batch) < foldBatch {
			return nil
		}
		return flush()
	})
	if err == nil && len(batch) > 0 {
		err = flush()
	}
	if err != nil && !errors.Is(err, errStreamStopped) {
		e.halt.Store(true)
	}
	return err
}

// cacheStats returns the run's verdict-cache traffic (zero when the
// cache is disabled) and books it in the pipeline.cache counters.
func (e *engine) cacheStats() CacheStats {
	var s CacheStats
	if e.cache != nil {
		s = e.cache.Stats()
	}
	e.an.Metrics.Counter("pipeline.cache.hits").Add(int64(s.Hits))
	e.an.Metrics.Counter("pipeline.cache.misses").Add(int64(s.Misses))
	return s
}

// firstRealError returns the first error in errs, looking inside
// errors.Join trees, that is not an errStreamStopped echo: the error that
// stopped a run rather than the exchanges it unwound. Nil if none is.
func firstRealError(errs ...error) error {
	for _, err := range errs {
		if m, ok := err.(interface{ Unwrap() []error }); ok {
			if real := firstRealError(m.Unwrap()...); real != nil {
				return real
			}
		} else if err != nil && !errors.Is(err, errStreamStopped) {
			return err
		}
	}
	return nil
}

// workerCount resolves Workers (<= 0 means runtime.GOMAXPROCS(0)) and
// books the result in the pipeline.workers.configured gauge.
func (an *Analyzer) workerCount() int {
	workers := an.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	an.Metrics.Gauge("pipeline.workers.configured").Set(int64(workers))
	return workers
}

// runLongestFirst calls job(p) for every p in [0, len(plan)) on up to
// workers goroutines sharing one queue ordered longest plan first (plan[p]
// records, ties in index order): the biggest job is claimed first, so the
// wall clock approaches max(longest plan, total/workers) instead of
// whatever an arbitrary order leaves for last, and a worker that finishes
// a short job immediately steals the next one. It returns once every job
// has returned. Analyze, RunStream and RunFleet all schedule their
// exchanges through it.
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
