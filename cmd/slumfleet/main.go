// Command slumfleet runs the reproduction as a sharded fleet: the study's
// exchanges are partitioned into shards, N virtual workers crawl and
// analyze them concurrently (work-stealing the stragglers), and the
// per-shard results merge into the same report slumreport prints —
// byte-identical for every fleet size and merge order.
//
// Usage:
//
//	slumfleet [-seed N] [-scale N] [-fleet N] [-faults PROFILE] [-retries N]
//	          [-shard-dir DIR] [-checkpoint-every N] [-resume] [-keep-shards]
//	          [-shards LIST] [-merge] [-json] [-metrics]
//	          [-epochs N] [-churn F] [-blacklist-lag N] [-blacklist-decay F]
//
// With -shard-dir DIR each shard periodically persists its own SLUMCKPT
// shard checkpoint under DIR; kill the fleet (any subset of workers, any
// point mid-shard) and rerun with -resume to pick every shard up from its
// last durable prefix — the final report is still byte-identical. The
// -abort-after testing hook stands in for the kill.
//
// Distributed studies split the work across invocations: each runs
// -shards with a disjoint subset (e.g. "0-4" on one machine, "5-8" on
// another) writing into a shared -shard-dir, then a final -merge pass
// loads the shard files — no crawling — and prints the merged report.
// Merging validates provenance: shards from a different seed,
// configuration or partitioning are refused, as is the same shard twice.
//
// -epochs N (> 1; below 1 is an error) runs the fleet longitudinally:
// every epoch of the churning universe (see slumreport -epochs) is itself
// a sharded fleet run, with per-epoch shard subdirectories epoch000,
// epoch001, ... under -shard-dir. -resume, -shards subsets and -merge all operate per
// epoch inside those subdirectories, and the multi-epoch report is
// byte-identical to slumreport -epochs for every fleet size. -json does
// not combine with -epochs > 1.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/httpsim"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/web"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "slumfleet:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("slumfleet", flag.ContinueOnError)
	seed := fs.Uint64("seed", 1, "experiment seed")
	scale := fs.Int("scale", 20, "divide paper crawl volumes by this factor")
	fleet := fs.Int("fleet", 4, "number of virtual workers pulling shards")
	faults := fs.String("faults", "", "crawl fault profile: "+strings.Join(httpsim.ProfileNames(), ", "))
	retries := fs.Int("retries", 2, "crawl retries per URL after the first attempt")
	jsFuel := fs.Int64("js-fuel", 0, "JS sandbox fuel budget per script (0 = default)")
	jsHeap := fs.Int64("js-heap", 0, "JS sandbox heap budget in bytes per script (0 = default)")
	shardDir := fs.String("shard-dir", "", "directory for per-shard checkpoints (enables kill/resume)")
	ckptEvery := fs.Int("checkpoint-every", 5000, "per-shard records between checkpoint writes")
	resume := fs.Bool("resume", false, "resume shards from their checkpoints under -shard-dir")
	abortAfter := fs.Int("abort-after", 0, "testing: kill the fleet after N folded records across all shards")
	shards := fs.String("shards", "", "run only these shard indices (e.g. \"0,2,5-8\"); requires -shard-dir")
	keepShards := fs.Bool("keep-shards", false, "keep shard checkpoints after a successful merged run")
	merge := fs.Bool("merge", false, "merge-only: load shard checkpoints under -shard-dir, skip crawling")
	asJSON := fs.Bool("json", false, "emit every table and figure as JSON")
	withMetrics := fs.Bool("metrics", false, "instrument the run and append a METRICS section")
	epochs := fs.Int("epochs", 1, "number of simulated epochs (a longitudinal fleet study when > 1)")
	churn := fs.Float64("churn", 0, "per-epoch probability a malicious site re-registers under a fresh domain")
	blLag := fs.Int("blacklist-lag", 0, "epochs the blacklist databases and threat feed lag behind ground truth")
	blDecay := fs.Float64("blacklist-decay", 0, "per-epoch-of-staleness erosion rate of lagged blacklist entries")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *scale <= 0 {
		return fmt.Errorf("scale must be positive, got %d", *scale)
	}
	if *epochs < 1 {
		return fmt.Errorf("-epochs must be >= 1, got %d", *epochs)
	}
	if *merge && *shardDir == "" {
		return fmt.Errorf("-merge requires -shard-dir DIR")
	}
	if *shards != "" && *shardDir == "" {
		return fmt.Errorf("-shards requires -shard-dir DIR (the shard files are the output)")
	}
	only, err := parseShards(*shards)
	if err != nil {
		return err
	}

	cfg := core.DefaultStudyConfig()
	cfg.Seed = *seed
	cfg.Scale = *scale
	cfg.FaultProfile = *faults
	cfg.Retries = *retries
	cfg.JSFuel = *jsFuel
	cfg.JSHeapBytes = *jsHeap
	cfg.Epochs = *epochs
	cfg.ChurnFrac = *churn
	cfg.BlacklistLag = *blLag
	cfg.BlacklistDecay = *blDecay
	if *withMetrics {
		cfg.Metrics = obs.NewRegistry()
		cfg.Tracer = obs.NewTracer()
	}
	if *epochs > 1 {
		return runLongitudinalFleet(cfg, out, fleetFlags{
			fleet: *fleet, shardDir: *shardDir, ckptEvery: *ckptEvery,
			resume: *resume, abortAfter: *abortAfter, only: only,
			onlySpec: *shards, keepShards: *keepShards, merge: *merge,
			asJSON: *asJSON, withMetrics: *withMetrics,
		})
	}

	var st *core.Study
	if *merge {
		fmt.Fprintf(os.Stderr, "merging shards: seed=%d scale=%d dir=%s\n", cfg.Seed, cfg.Scale, *shardDir)
		st, err = core.MergeShardStudy(cfg, *shardDir)
		if err != nil {
			return err
		}
	} else {
		fmt.Fprintf(os.Stderr, "running fleet: seed=%d scale=%d fleet=%d (~%d URLs)...\n",
			cfg.Seed, cfg.Scale, *fleet, 1003087/cfg.Scale)
		st, err = core.RunStudyFleet(cfg, core.FleetOptions{
			Fleet:           *fleet,
			ShardDir:        *shardDir,
			CheckpointEvery: *ckptEvery,
			Resume:          *resume,
			AbortAfter:      *abortAfter,
			Only:            only,
			KeepShards:      *keepShards,
		})
		if err != nil {
			return err
		}
		if len(only) > 0 {
			// Subset runs produce shard files, not a report: the merge-only
			// pass renders once every subset has landed.
			fmt.Fprintf(os.Stderr, "shards %s written under %s; run -merge once all shards are present\n",
				*shards, *shardDir)
			return nil
		}
	}
	a := st.Analysis

	if *asJSON {
		rep := report.BuildJSON(a, a.ShortURLStats(st.Universe.Shorteners))
		if *withMetrics {
			rep.Metrics = obs.NewExport(cfg.Metrics, cfg.Tracer)
		}
		return report.EncodeJSON(out, rep)
	}

	sections := []func() string{
		func() string { return report.Headline(a) },
		func() string { return report.Table1(a) },
		func() string { return report.Table2(a) },
		func() string { return report.Table3(a) },
		func() string { return report.Table4(a.ShortURLStats(st.Universe.Shorteners)) },
		func() string { return report.Figure2(a) },
		func() string { return report.Figure3(a) },
		func() string { return report.Figure5(a) },
		func() string { return report.Figure6(a) },
		func() string { return report.Figure7(a) },
		func() string { return report.CrawlHealthReport(a) },
	}
	for _, render := range sections {
		fmt.Fprintln(out, render())
	}
	if *withMetrics {
		fmt.Fprintln(out, report.MetricsReport(obs.NewExport(cfg.Metrics, cfg.Tracer)))
	}
	return nil
}

// fleetFlags carries the CLI selections into the multi-epoch fleet path.
type fleetFlags struct {
	fleet       int
	shardDir    string
	ckptEvery   int
	resume      bool
	abortAfter  int
	only        []int
	onlySpec    string
	keepShards  bool
	merge       bool
	asJSON      bool
	withMetrics bool
}

// runLongitudinalFleet runs one fleet study per epoch (shard files land
// under per-epoch subdirectories of -shard-dir, so kill/resume and
// distributed -shards/-merge work per epoch exactly as they do for a
// single-epoch fleet) and prints one report block per epoch followed by
// the longitudinal time-series sections.
func runLongitudinalFleet(cfg core.StudyConfig, out io.Writer, ff fleetFlags) error {
	if ff.asJSON {
		return fmt.Errorf("-json does not support -epochs > 1 yet")
	}
	if (ff.merge || len(ff.only) > 0) && ff.shardDir == "" {
		return fmt.Errorf("-merge/-shards require -shard-dir DIR")
	}
	res := &core.LongitudinalResult{Config: cfg}
	// Each epoch's universe advances incrementally from the previous
	// epoch's (one universe per epoch shared by the whole fleet), exactly
	// like the slumreport streaming path — byte-identical output either way.
	var prevU *web.Universe
	for e := 0; e < cfg.Epochs; e++ {
		ecfg := cfg
		ecfg.Epoch = e
		dir := ff.shardDir
		if dir != "" {
			dir = filepath.Join(dir, fmt.Sprintf("epoch%03d", e))
			if err := os.MkdirAll(dir, 0o755); err != nil {
				return err
			}
		}
		var st *core.Study
		var err error
		if ff.merge {
			fmt.Fprintf(os.Stderr, "merging shards: seed=%d scale=%d epoch=%d dir=%s\n", ecfg.Seed, ecfg.Scale, e, dir)
			st, err = core.MergeShardStudyFrom(ecfg, prevU, dir)
		} else {
			fmt.Fprintf(os.Stderr, "running fleet: seed=%d scale=%d fleet=%d epoch=%d/%d (~%d URLs/epoch)...\n",
				ecfg.Seed, ecfg.Scale, ff.fleet, e, cfg.Epochs, 1003087/ecfg.Scale)
			st, err = core.RunStudyFleetFrom(ecfg, prevU, core.FleetOptions{
				Fleet:           ff.fleet,
				ShardDir:        dir,
				CheckpointEvery: ff.ckptEvery,
				Resume:          ff.resume,
				AbortAfter:      ff.abortAfter,
				Only:            ff.only,
				KeepShards:      ff.keepShards,
			})
		}
		if err != nil {
			return fmt.Errorf("epoch %d: %w", e, err)
		}
		prevU = st.Universe
		if !ff.merge && len(ff.only) > 0 {
			continue
		}
		res.Epochs = append(res.Epochs, core.OutcomeOf(st))
	}
	if len(ff.only) > 0 && !ff.merge {
		fmt.Fprintf(os.Stderr, "shards %s written under %s for every epoch; run -merge once all shards are present\n",
			ff.onlySpec, ff.shardDir)
		return nil
	}
	for _, e := range res.Epochs {
		fmt.Fprintf(out, "%s\n\n", report.EpochHeader(e.Epoch))
		a := e.Analysis
		short := e.ShortStats
		for _, render := range []func() string{
			func() string { return report.Headline(a) },
			func() string { return report.Table1(a) },
			func() string { return report.Table2(a) },
			func() string { return report.Table3(a) },
			func() string { return report.Table4(short) },
			func() string { return report.Figure2(a) },
			func() string { return report.Figure3(a) },
			func() string { return report.Figure5(a) },
			func() string { return report.Figure6(a) },
			func() string { return report.Figure7(a) },
			func() string { return report.CrawlHealthReport(a) },
		} {
			fmt.Fprintln(out, render())
		}
	}
	fmt.Fprintln(out, report.LongitudinalOverview(res))
	fmt.Fprintln(out, report.LongitudinalIntel(res))
	fmt.Fprintln(out, report.LongitudinalBursts(res))
	if ff.withMetrics {
		fmt.Fprintln(out, report.MetricsReport(obs.NewExport(cfg.Metrics, cfg.Tracer)))
	}
	return nil
}

// parseShards parses a shard selection like "0,2,5-8" into indices.
// Duplicate and out-of-range indices are left for the fleet scope check,
// which knows the study's shard count.
func parseShards(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			return nil, fmt.Errorf("-shards: empty element in %q", s)
		}
		if lo, hi, ok := strings.Cut(part, "-"); ok {
			a, err := strconv.Atoi(lo)
			if err != nil {
				return nil, fmt.Errorf("-shards: bad range start %q: %w", lo, errors.Unwrap(err))
			}
			b, err := strconv.Atoi(hi)
			if err != nil {
				return nil, fmt.Errorf("-shards: bad range end %q: %w", hi, errors.Unwrap(err))
			}
			if b < a {
				return nil, fmt.Errorf("-shards: backwards range %q", part)
			}
			for i := a; i <= b; i++ {
				out = append(out, i)
			}
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil {
			return nil, fmt.Errorf("-shards: bad index %q: %w", part, errors.Unwrap(err))
		}
		out = append(out, n)
	}
	return out, nil
}
