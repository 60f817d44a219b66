package core

import (
	"fmt"

	"repro/internal/crawler"
	"repro/internal/exchange"
	"repro/internal/httpsim"
	"repro/internal/jsengine"
	"repro/internal/obs"
	"repro/internal/simrand"
	"repro/internal/web"
)

// StudyConfig configures a full end-to-end reproduction run.
type StudyConfig struct {
	// Seed drives universe generation, exchange rotation and engine
	// construction.
	Seed uint64
	// Scale divides the paper's Table I/II volumes: scale 1 replays the
	// full 1,003,087-URL crawl; scale 20 (the default) keeps identical
	// percentages at 1/20 the volume.
	Scale int
	// MinMalPerPool and MinBenignPerPool floor the per-exchange pool
	// sizes so heavy scaling cannot empty a pool.
	MinMalPerPool    int
	MinBenignPerPool int
	// DriveShortenerTraffic populates Table IV hit counters with
	// background member traffic before the crawl.
	DriveShortenerTraffic bool
	// Workers bounds how many exchange pipelines run at once; <= 0 uses
	// runtime.GOMAXPROCS(0). Output is identical for every worker count.
	Workers int
	// DisableVerdictCache turns off the single-flight per-URL verdict
	// cache (every record then runs the full detector stack).
	DisableVerdictCache bool
	// FaultProfile names the httpsim fault profile the crawl transport
	// runs through ("" or "off" = healthy universe). Faults apply only to
	// the crawler's fetch path; the detector's scan-time network stays
	// clean, so verdicts on successfully-fetched URLs are identical to a
	// fault-free run.
	FaultProfile string
	// Retries bounds the crawler's per-URL re-fetch attempts after
	// retryable failures.
	Retries int
	// JSFuel and JSHeapBytes bound each heuristic-scanner sandbox
	// execution (fuel units and interned heap bytes). Zero or negative
	// values fall back to jsengine.DefaultBudget.
	JSFuel      int64
	JSHeapBytes int64
	// Metrics and Tracer, when set, receive the observability stream from
	// every layer of the run (crawler, pipeline, scanner, fault injector,
	// study-level run timings). Nil (the default) disables all
	// instrumentation; study output is byte-identical either way.
	Metrics *obs.Registry
	Tracer  *obs.Tracer
	// Epochs is the number of simulated epochs a longitudinal study spans;
	// <= 1 (the default) is the classic single-epoch reproduction. The
	// longitudinal runner builds one study per epoch from the same seed.
	Epochs int
	// Epoch is the simulated-time index THIS study instance is built at
	// (0-based). Epoch 0 with any knob settings is bit-identical to the
	// pre-longitudinal universe, which keeps the seed-1 goldens stable.
	Epoch int
	// ChurnFrac is the per-epoch probability that a malicious site
	// re-registers under a fresh domain and family token.
	ChurnFrac float64
	// BlacklistLag is how many epochs behind ground truth the blacklist
	// databases and threat feed run.
	BlacklistLag int
	// BlacklistDecay erodes stale blacklist entries per epoch of staleness
	// (see blacklist.BuildConfig.DecayPerEpoch).
	BlacklistDecay float64
}

// epochParams maps the config's longitudinal knobs onto the universe
// generator's epoch clock.
func (cfg StudyConfig) epochParams() web.EpochParams {
	return web.EpochParams{
		Epoch:         cfg.Epoch,
		ChurnFrac:     cfg.ChurnFrac,
		BlacklistLag:  cfg.BlacklistLag,
		DecayPerEpoch: cfg.BlacklistDecay,
	}
}

// DefaultStudyConfig returns the standard calibration.
func DefaultStudyConfig() StudyConfig {
	// MinMalPerPool is 12 (= 2x the number of malware kinds) so every
	// exchange pool holds at least one site of every kind AND several
	// sites of the observation-heavy kinds; below that, Table III and
	// the Figure 6/7 mixes degrade on the exchanges whose Table II rows
	// scale down to a handful of malware domains (see pools.go).
	return StudyConfig{
		Seed:                  1,
		Scale:                 20,
		MinMalPerPool:         12,
		MinBenignPerPool:      12,
		DriveShortenerTraffic: true,
		Retries:               2,
	}
}

// Study is an assembled (and optionally executed) reproduction.
type Study struct {
	Config    StudyConfig
	Universe  *web.Universe
	Specs     []exchange.PaperSpec
	Exchanges []*exchange.Exchange
	Steps     []int
	Detector  *Detector
	Analyzer  *Analyzer
	Analysis  *Analysis
	// WrittenDelta holds the epoch delta RunStream wrote to
	// StreamOptions.WriteDeltaPath, if any. The longitudinal runner
	// preloads the next epoch from it directly, skipping the disk
	// round-trip (the file stays authoritative for kill-resume).
	WrittenDelta *EpochDelta
}

// NewStudy builds the universe, exchanges and detector without crawling.
func NewStudy(cfg StudyConfig) (*Study, error) { return NewStudyFrom(cfg, nil) }

// NewStudyFrom is NewStudy with an optional previous epoch's universe.
// When prev can advance to this config's epoch (same generation knobs,
// epoch clock exactly one ahead), the universe is derived incrementally
// via web.AdvanceEpoch — O(changed sites) instead of a full regeneration,
// and render caches carry over — with output guaranteed identical to the
// from-scratch build. Anything else falls back to GenerateEpoch. The
// longitudinal runner and the fleet path thread prev through; single
// studies pass nil and are unaffected.
func NewStudyFrom(cfg StudyConfig, prev *web.Universe) (*Study, error) {
	if cfg.Scale <= 0 {
		return nil, fmt.Errorf("core: scale must be positive, got %d", cfg.Scale)
	}
	if _, ok := httpsim.ProfileByName(cfg.FaultProfile); !ok {
		return nil, fmt.Errorf("core: unknown fault profile %q (have %v)",
			cfg.FaultProfile, httpsim.ProfileNames())
	}
	if cfg.Retries < 0 {
		return nil, fmt.Errorf("core: retries must be >= 0, got %d", cfg.Retries)
	}
	if cfg.Epoch < 0 {
		return nil, fmt.Errorf("core: epoch must be >= 0, got %d", cfg.Epoch)
	}
	if cfg.Epochs > 0 && cfg.Epoch >= cfg.Epochs {
		return nil, fmt.Errorf("core: epoch %d out of range for a %d-epoch study", cfg.Epoch, cfg.Epochs)
	}
	if cfg.ChurnFrac < 0 || cfg.ChurnFrac > 1 {
		return nil, fmt.Errorf("core: churn fraction must be in [0,1], got %g", cfg.ChurnFrac)
	}
	if cfg.BlacklistLag < 0 {
		return nil, fmt.Errorf("core: blacklist lag must be >= 0, got %d", cfg.BlacklistLag)
	}
	if cfg.BlacklistDecay < 0 || cfg.BlacklistDecay > 1 {
		return nil, fmt.Errorf("core: blacklist decay must be in [0,1], got %g", cfg.BlacklistDecay)
	}
	if cfg.MinMalPerPool <= 0 {
		cfg.MinMalPerPool = 6
	}
	if cfg.MinBenignPerPool <= 0 {
		cfg.MinBenignPerPool = 12
	}
	specs := exchange.PaperSpecs()

	// Pool sizing from Table II at the requested scale.
	poolSpecs := make([]web.PoolSpec, len(specs))
	totalBenign, totalMal := 0, 0
	for i, s := range specs {
		mal := maxInt(s.MalwareDomains/cfg.Scale, cfg.MinMalPerPool)
		benign := maxInt((s.Domains-s.MalwareDomains)/cfg.Scale, cfg.MinBenignPerPool)
		poolSpecs[i] = web.PoolSpec{Benign: benign, Malicious: mal}
		totalBenign += benign
		totalMal += mal
	}

	// Universe sized with slack above the pool demand.
	ucfg := web.DefaultConfig()
	ucfg.Seed = cfg.Seed
	ucfg.BenignSites = totalBenign + totalBenign/10 + 20
	ucfg.MaliciousSites = totalMal + totalMal/10 + 12
	var universe *web.Universe
	if prev != nil && prev.CanAdvance(ucfg, cfg.epochParams()) {
		universe = prev.AdvanceEpoch()
		cfg.Metrics.Counter("study.universe.advanced").Inc()
	} else {
		universe = web.GenerateEpoch(ucfg, cfg.epochParams())
		if prev != nil {
			cfg.Metrics.Counter("study.universe.advance_fallback").Inc()
		}
	}

	rng := simrand.New(cfg.Seed).Sub("study")
	// Epoch 0 keeps the original pool substream (goldens); later epochs
	// re-deal the pools from their own substream — member sites join and
	// leave exchanges between epochs, as the paper's fieldwork observed.
	poolsRng := rng.Sub("pools")
	if cfg.Epoch > 0 {
		poolsRng = rng.Sub(fmt.Sprintf("pools:epoch%d", cfg.Epoch))
	}
	pools, err := universe.SplitPools(poolsRng, poolSpecs)
	if err != nil {
		return nil, fmt.Errorf("core: split pools: %w", err)
	}

	st := &Study{Config: cfg, Universe: universe, Specs: specs}
	for i, spec := range specs {
		excfg := spec.Config()
		// Advance paid campaigns through their lifecycle phases; epoch 0
		// is the identity transform.
		excfg.Campaigns = exchange.EpochCampaigns(excfg.Campaigns, cfg.Epoch)
		ex := exchange.New(excfg, pools[i], universe.PopularURLs, rng.Sub("exchange:"+spec.Name))
		ex.RegisterHomepage(universe.Internet)
		st.Exchanges = append(st.Exchanges, ex)
		st.Steps = append(st.Steps, maxInt(spec.URLsCrawled/cfg.Scale, 50))
	}

	st.Detector = NewDetector(universe.Feed, universe.Blacklists, universe.Shorteners,
		universe.Internet, DetectorConfig{
			Seed:     cfg.Seed + 1,
			JSBudget: jsengine.Budget{Fuel: cfg.JSFuel, HeapBytes: cfg.JSHeapBytes},
		})
	st.Analyzer = &Analyzer{
		Classifier:   st.BuildClassifier(),
		Detector:     st.Detector,
		Workers:      cfg.Workers,
		DisableCache: cfg.DisableVerdictCache,
		Metrics:      cfg.Metrics,
		Tracer:       cfg.Tracer,
	}
	st.Detector.Multi.Metrics = cfg.Metrics
	st.Detector.Heur.Metrics = cfg.Metrics
	return st, nil
}

// BuildClassifier derives the referral classifier from the study's
// exchanges and popular hosts.
func (st *Study) BuildClassifier() *Classifier {
	hosts := make(map[string]string, len(st.Exchanges))
	for _, ex := range st.Exchanges {
		hosts[ex.Config().Name] = ex.Config().Host
	}
	return &Classifier{ExchangeHosts: hosts, PopularHosts: st.Universe.PopularHosts}
}

// Crawl drives the background shortener traffic and crawls every
// exchange into memory, HAR archives included: the collection half of
// the study on its own, for slumcrawl's dataset and HAR output and for
// offline analysis with Analyzer.Analyze. The crawl goes through the same
// transport stack as RunStream, so the records are the ones a live run
// scans.
func (st *Study) Crawl() ([]*crawler.Crawl, error) {
	if st.Config.DriveShortenerTraffic {
		st.driveShortenerTraffic()
	}
	crawls, err := crawler.CrawlAll(st.Exchanges, st.transport(), st.Steps, st.crawlOptions())
	if err != nil {
		return nil, fmt.Errorf("core: crawl: %w", err)
	}
	return crawls, nil
}

// publishRenderMetrics drains the universe's render-cache counters into
// the obs registry. Only called at deterministic completion points (end
// of a stream run, end of a fleet merge) — never on abort paths, where
// the number of pages served so far is schedule-dependent. While no page cache hits capacity (uncached == 0)
// the hit/miss split is exact and worker-count-invariant, so the metrics
// invariance tests may compare these counters byte-for-byte.
func (st *Study) publishRenderMetrics() {
	if st.Config.Metrics == nil {
		return
	}
	hits, misses, uncached, retired := st.Universe.DrainRenderCounters()
	st.Config.Metrics.Counter("web.render.hits").Add(hits)
	st.Config.Metrics.Counter("web.render.misses").Add(misses)
	st.Config.Metrics.Counter("web.render.uncached").Add(uncached)
	st.Config.Metrics.Counter("web.render.retired").Add(retired)
}

// transport assembles the crawl-path transport: the virtual internet,
// wrapped in the configured fault injector when a profile is set. Both
// Crawl and RunStream crawl through exactly this stack, which is what
// makes their fetch streams — and therefore their reports —
// interchangeable. Only the crawl is degraded: the detector's scan-time
// fetches run against the clean universe, which keeps verdicts on
// successfully fetched URLs identical to a fault-free run.
func (st *Study) transport() httpsim.RoundTripper {
	return st.transportOver(st.Universe.Internet)
}

// transportOver assembles the crawl-path stack over an inner transport —
// normally the virtual internet; in fleet mode each shard's visit
// recorder wrapping it. The fault injector always goes OUTSIDE the inner
// transport: every injection decision is a pure function of (seed, URL,
// attempt), so per-shard injector instances reproduce the shared
// instance's fault stream exactly, and synthesized faults (which never
// reach the inner transport) stay invisible to whatever wraps it.
func (st *Study) transportOver(inner httpsim.RoundTripper) httpsim.RoundTripper {
	transport := inner
	if prof, ok := httpsim.ProfileByName(st.Config.FaultProfile); ok && !prof.Zero() {
		// Seed offset keeps the fault stream independent of the universe
		// and detector streams derived from the same study seed.
		fi := httpsim.NewFaultInjector(transport, prof, st.Config.Seed+0x5eed)
		fi.Metrics = st.Config.Metrics
		transport = fi
	}
	return transport
}

// crawlOptions derives the shared per-crawl base options from the config.
func (st *Study) crawlOptions() crawler.Options {
	opts := crawler.DefaultOptions(0)
	opts.Retries = st.Config.Retries
	opts.Metrics = st.Config.Metrics
	opts.Tracer = st.Config.Tracer
	return opts
}

// exchangeNamesKinds lists the study's exchanges in crawl order.
func (st *Study) exchangeNamesKinds() ([]string, []exchange.Kind) {
	names := make([]string, len(st.Exchanges))
	kinds := make([]exchange.Kind, len(st.Exchanges))
	for i, ex := range st.Exchanges {
		names[i] = ex.Config().Name
		kinds[i] = ex.Config().Kind
	}
	return names, kinds
}

// driveShortenerTraffic simulates the background member traffic that
// gives Table IV its hit counts: every shortened-malicious entry receives
// visits from one or two exchanges, with heavy-tailed volumes (the paper
// saw links ranging from ~1.7k to ~4.5M hits; we stay proportional).
func (st *Study) driveShortenerTraffic() {
	rng := simrand.New(st.Config.Seed).Sub("short-traffic")
	shortSites := st.Universe.SitesOfKind(web.ShortenedMalicious)
	for i, s := range shortSites {
		primary := st.Exchanges[i%len(st.Exchanges)]
		// Heavy-tailed volume: a few links are hammered.
		visits := 20 + rng.Geometric(0.02)
		if rng.Bool(0.2) {
			visits *= 10
		}
		primary.DriveTraffic(st.Universe.Internet, s.EntryURL, visits)
		if rng.Bool(0.4) {
			secondary := st.Exchanges[(i+3)%len(st.Exchanges)]
			secondary.DriveTraffic(st.Universe.Internet, s.EntryURL, visits/3+1)
		}
	}
}

// RunStudy is the one-call entry point used by commands and benchmarks:
// build the study, then run it (Study.RunStream).
func RunStudy(cfg StudyConfig, opts StreamOptions) (*Study, error) {
	st, err := NewStudy(cfg)
	if err != nil {
		return nil, err
	}
	if err := st.RunStream(opts); err != nil {
		return nil, err
	}
	return st, nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
