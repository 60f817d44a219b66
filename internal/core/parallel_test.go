package core

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/crawler"
	"repro/internal/testutil"
)

// referenceAnalysis runs the strictly sequential, cache-free configuration
// — the pre-pipeline behaviour every parallel variant must reproduce
// byte-for-byte.
func referenceAnalysis(st *crawledStudy) *Analysis {
	ref := &Analyzer{
		Classifier:   st.Analyzer.Classifier,
		Detector:     st.Detector,
		Workers:      1,
		DisableCache: true,
	}
	return ref.Analyze(st.Crawls)
}

// TestAnalyzeParallelDeterminism locks in the pipeline's core guarantee:
// for any worker count and either cache setting, Analyze produces a
// deeply-equal Analysis — verdict slices in record order, identical
// series, counters and aggregates — across multiple seeds.
func TestAnalyzeParallelDeterminism(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	seeds := []uint64{3, 11, 29}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		cfg := DefaultStudyConfig()
		cfg.Seed = seed
		cfg.Scale = 900
		cfg.DriveShortenerTraffic = false
		st, err := crawlAndAnalyze(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := referenceAnalysis(st)

		for _, workers := range []int{1, 2, 8} {
			for _, disableCache := range []bool{true, false} {
				an := &Analyzer{
					Classifier:   st.Analyzer.Classifier,
					Detector:     st.Detector,
					Workers:      workers,
					DisableCache: disableCache,
				}
				got := an.Analyze(st.Crawls)
				// CacheStats legitimately differs between cache settings;
				// everything else must match the sequential reference.
				gotStats := got.CacheStats
				got.CacheStats = want.CacheStats
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed=%d workers=%d cache=%v: analysis diverged from sequential reference",
						seed, workers, !disableCache)
				}
				if !disableCache && gotStats.Hits+gotStats.Misses == 0 && st.Analysis.TotalRegular > 0 {
					t.Fatalf("seed=%d workers=%d: cache enabled but saw no traffic", seed, workers)
				}
			}
		}
	}
}

// TestCacheStatsDeterministic asserts the single-flight accounting is
// schedule-independent: misses equal the number of distinct cache keys, so
// repeated parallel runs must report identical hit/miss splits.
func TestCacheStatsDeterministic(t *testing.T) {
	st := sharedStudy(t)
	an := &Analyzer{Classifier: st.Analyzer.Classifier, Detector: st.Detector, Workers: 8}
	first := an.Analyze(st.Crawls).CacheStats
	if first.Hits == 0 {
		t.Fatalf("rotation-heavy crawl produced no cache hits: %+v", first)
	}
	for i := 0; i < 3; i++ {
		if got := an.Analyze(st.Crawls).CacheStats; got != first {
			t.Fatalf("run %d cache stats %+v != first run %+v", i, got, first)
		}
	}
}

// TestConcurrentInspectStress hammers the full detector stack from many
// goroutines over the same records and checks every verdict against a
// sequentially computed baseline. Run under -race this is the pipeline's
// data-race canary for scanner/blacklist/shortener/httpsim state.
func TestConcurrentInspectStress(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	st := sharedStudy(t)
	var recs []crawler.Record
	cls := st.Analyzer.Classifier
	for _, c := range st.Crawls {
		for _, rec := range c.Records {
			if cls.Classify(rec) == Regular {
				recs = append(recs, rec)
			}
			if len(recs) >= 300 {
				break
			}
		}
	}
	if len(recs) == 0 {
		t.Fatal("no regular records to stress")
	}
	baseline := make([]Verdict, len(recs))
	for i, rec := range recs {
		baseline[i] = st.Detector.Inspect(rec)
	}

	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Stagger start offsets so goroutines collide on different
			// records at different times.
			for i := range recs {
				idx := (i + g*len(recs)/goroutines) % len(recs)
				v := st.Detector.Inspect(recs[idx])
				if !reflect.DeepEqual(v, baseline[idx]) {
					select {
					case errs <- recs[idx].EntryURL:
					default:
					}
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	if url, bad := <-errs; bad {
		t.Fatalf("concurrent Inspect diverged from sequential baseline on %s", url)
	}
}

// TestVerdictCacheSingleFlight checks that concurrent requests for the
// same key compute the verdict exactly once and that hit/miss accounting
// matches the single-flight contract.
func TestVerdictCacheSingleFlight(t *testing.T) {
	st := sharedStudy(t)
	var rec *crawler.Record
	for _, c := range st.Crawls {
		for i := range c.Records {
			if len(c.Records[i].Body) > 0 && st.Analyzer.Classifier.Classify(c.Records[i]) == Regular {
				rec = &c.Records[i]
				break
			}
		}
		if rec != nil {
			break
		}
	}
	if rec == nil {
		t.Fatal("no regular record with a body")
	}

	cache := NewVerdictCache()
	const callers = 16
	var wg sync.WaitGroup
	verdicts := make([]Verdict, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			verdicts[i] = st.Analyzer.inspect(cache, rec)
		}(i)
	}
	wg.Wait()

	stats := cache.Stats()
	if stats.Misses != 1 || stats.Hits != callers-1 {
		t.Fatalf("single-flight stats = %+v, want 1 miss / %d hits", stats, callers-1)
	}
	for i := 1; i < callers; i++ {
		if !reflect.DeepEqual(verdicts[i], verdicts[0]) {
			t.Fatalf("caller %d saw a different verdict", i)
		}
	}
}

// TestWorkersThreadedFromConfig checks the StudyConfig plumbing.
func TestWorkersThreadedFromConfig(t *testing.T) {
	cfg := DefaultStudyConfig()
	cfg.Workers = 3
	cfg.DisableVerdictCache = true
	st, err := NewStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st.Analyzer.Workers != 3 || !st.Analyzer.DisableCache {
		t.Fatalf("analyzer config = workers %d, disableCache %v",
			st.Analyzer.Workers, st.Analyzer.DisableCache)
	}
}
