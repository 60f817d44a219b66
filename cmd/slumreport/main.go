// Command slumreport runs the full reproduction end to end — universe
// generation, nine-exchange crawl, detection, aggregation — and prints
// every table and figure of the paper's evaluation.
//
// Usage:
//
//	slumreport [-seed N] [-scale N] [-workers N] [-faults PROFILE] [-retries N] [-table N] [-figure N] [-metrics]
//	           [-js-fuel N] [-js-heap N] [-stream] [-checkpoint FILE] [-resume] [-checkpoint-every N]
//	           [-epochs N] [-churn F] [-blacklist-lag N] [-blacklist-decay F] [-delta-dir DIR] [-serial-rebuild]
//
// With no -table/-figure selection, everything is printed. -scale divides
// the paper's crawl volumes (default 20: ~50k URLs, seconds of runtime;
// -scale 1 replays the full 1,003,087-URL crawl). -workers bounds the
// number of exchange pipelines run at once (default: all CPUs); the
// output is identical for every worker count. -faults injects deterministic
// transport faults into the crawl (off, flaky, lossy, slow, hostile) and
// -retries bounds the crawler's per-URL retry budget; the crawl-health
// section reports the resulting fetch outcomes and error taxonomy.
// -metrics instruments the run and appends a METRICS section (event
// counters, stage-latency table, runtime snapshot) after the report;
// with -json the same export lands in a "metrics" block. Output without
// the flag is byte-identical to an uninstrumented run.
//
// The crawl and the analysis run as one bounded-memory pipeline: each
// worker crawls, scans and folds whole exchanges, aggregating
// incrementally, so no crawl is held in memory. -stream names that
// pipeline; it is accepted for compatibility and changes nothing.
// -checkpoint FILE additionally persists the accumulator every
// -checkpoint-every records; after a crash or kill, rerunning with
// -resume picks up from the checkpoint and still produces the
// byte-identical report. The
// checkpoint file is deleted when a run completes, so "-checkpoint f
// -resume" is safe to use unconditionally: first run starts fresh,
// interrupted reruns resume, completed runs leave nothing behind.
//
// -fleet N runs the study as a sharded fleet instead: the exchanges are
// partitioned across N virtual workers, each running the same pipeline
// over its shard, and the per-shard results merge into the same
// byte-identical report for every N. -fleet does not combine with the
// pipeline flags (-stream, -checkpoint, -resume, -abort-after); for
// per-shard checkpointing, kill/resume and distributed subsets, use the
// slumfleet command.
//
// -epochs N (> 1; below 1 is an error) runs a longitudinal study: the
// same universe advanced through N epochs of deterministic churn (-churn
// re-registers malicious sites under fresh domains, campaigns cycle
// rise/burst/takedown, exchanges gain and lose members) against intel that lags ground truth
// by -blacklist-lag epochs and erodes by -blacklist-decay per epoch of
// staleness. One report block prints per epoch, followed by the
// longitudinal time-series sections. -delta-dir DIR enables incremental
// re-crawl: each epoch writes a SLUMCKPT epoch delta recording which
// sites changed and the verdicts carried forward, so the next epoch only
// re-scans changed pages — the report stays byte-identical to a full
// re-crawl. Multi-epoch runs take the incremental fast path
// automatically: each epoch's universe is advanced from the previous
// one's (only churned sites are rebuilt, rendered pages are reused) and
// the next epoch is prepared while the current one streams. No flag
// enables this; -serial-rebuild opts out, regenerating every epoch from
// scratch, for byte-identity comparisons against the fast path (output
// is identical either way, only slower). -checkpoint composes with
// -epochs (the file is suffixed per epoch; interrupted studies resume
// automatically on relaunch), while -json and -fleet do not.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/httpsim"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/shortener"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "slumreport:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("slumreport", flag.ContinueOnError)
	seed := fs.Uint64("seed", 1, "experiment seed")
	scale := fs.Int("scale", 20, "divide paper crawl volumes by this factor")
	workers := fs.Int("workers", 0, "concurrent exchange pipelines (0 = all CPUs)")
	faults := fs.String("faults", "", "crawl fault profile: "+strings.Join(httpsim.ProfileNames(), ", "))
	retries := fs.Int("retries", 2, "crawl retries per URL after the first attempt")
	jsFuel := fs.Int64("js-fuel", 0, "JS sandbox fuel budget per script (0 = default)")
	jsHeap := fs.Int64("js-heap", 0, "JS sandbox heap budget in bytes per script (0 = default)")
	table := fs.Int("table", 0, "print only this table (1-4)")
	figure := fs.Int("figure", 0, "print only this figure (2, 3, 5, 6, 7)")
	asJSON := fs.Bool("json", false, "emit every table and figure as JSON")
	withMetrics := fs.Bool("metrics", false, "instrument the run and append a METRICS section")
	stream := fs.Bool("stream", false, "accepted for compatibility: every run is the bounded-memory streaming pipeline")
	ckptPath := fs.String("checkpoint", "", "checkpoint file; enables periodic checkpointing")
	resume := fs.Bool("resume", false, "resume from the -checkpoint file when it exists")
	ckptEvery := fs.Int("checkpoint-every", 5000, "records between checkpoint writes")
	abortAfter := fs.Int("abort-after", 0, "testing: abort the streaming run after N folded records, as a kill would")
	fleet := fs.Int("fleet", 0, "run as a sharded fleet of N virtual workers (see slumfleet for checkpointing)")
	epochs := fs.Int("epochs", 1, "number of simulated epochs (a longitudinal study when > 1)")
	churn := fs.Float64("churn", 0, "per-epoch probability a malicious site re-registers under a fresh domain")
	blLag := fs.Int("blacklist-lag", 0, "epochs the blacklist databases and threat feed lag behind ground truth")
	blDecay := fs.Float64("blacklist-decay", 0, "per-epoch-of-staleness erosion rate of lagged blacklist entries")
	deltaDir := fs.String("delta-dir", "", "directory for epoch deltas; enables incremental re-crawl between epochs")
	serialRebuild := fs.Bool("serial-rebuild", false, "longitudinal: rebuild every epoch's universe from scratch instead of advancing incrementally (slower; byte-identical output)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *scale <= 0 {
		return fmt.Errorf("scale must be positive, got %d", *scale)
	}
	if *epochs < 1 {
		return fmt.Errorf("-epochs must be >= 1, got %d", *epochs)
	}
	if *resume && *ckptPath == "" {
		return fmt.Errorf("-resume requires -checkpoint FILE")
	}
	if *fleet > 0 && (*stream || *ckptPath != "" || *abortAfter > 0) {
		return fmt.Errorf("-fleet does not combine with -stream/-checkpoint/-resume/-abort-after; use slumfleet for checkpointed fleets")
	}
	cfg := core.DefaultStudyConfig()
	cfg.Seed = *seed
	cfg.Scale = *scale
	cfg.Workers = *workers
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
		return runLongitudinal(cfg, out, longitudinalFlags{
			deltaDir: *deltaDir, ckptPath: *ckptPath, ckptEvery: *ckptEvery,
			abortAfter: *abortAfter, table: *table, figure: *figure,
			asJSON: *asJSON, withMetrics: *withMetrics, fleet: *fleet,
			serialRebuild: *serialRebuild,
		})
	}
	if *deltaDir != "" {
		return fmt.Errorf("-delta-dir requires -epochs > 1")
	}
	if *serialRebuild {
		return fmt.Errorf("-serial-rebuild requires -epochs > 1")
	}
	fmt.Fprintf(os.Stderr, "running study: seed=%d scale=%d (~%d URLs)...\n",
		cfg.Seed, cfg.Scale, 1003087/cfg.Scale)
	var st *core.Study
	var err error
	if *fleet > 0 {
		st, err = core.RunStudyFleet(cfg, core.FleetOptions{Fleet: *fleet})
	} else {
		sopts := core.StreamOptions{CheckpointPath: *ckptPath, CheckpointEvery: *ckptEvery, AbortAfter: *abortAfter}
		if *resume {
			ck, lerr := core.LoadCheckpoint(*ckptPath)
			switch {
			case lerr == nil:
				fmt.Fprintf(os.Stderr, "resuming from %s (%d records already folded)\n", *ckptPath, ck.Records())
				sopts.Resume = ck
			case errors.Is(lerr, os.ErrNotExist):
				// No checkpoint on disk: nothing to resume, start fresh.
			default:
				return lerr
			}
		}
		st, err = core.RunStudy(cfg, sopts)
	}
	if err != nil {
		return err
	}
	a := st.Analysis

	if *asJSON {
		rep := report.BuildJSON(a, a.ShortURLStats(st.Universe.Shorteners))
		if *withMetrics {
			rep.Metrics = obs.NewExport(cfg.Metrics, cfg.Tracer)
		}
		return report.EncodeJSON(out, rep)
	}

	if !renderSections(out, a, a.ShortURLStats(st.Universe.Shorteners), *table, *figure) {
		return fmt.Errorf("nothing matches -table %d -figure %d", *table, *figure)
	}
	// The METRICS section is strictly appended after every selected
	// section, so output without -metrics is a byte-prefix of output with.
	if *withMetrics {
		fmt.Fprintln(out, report.MetricsReport(obs.NewExport(cfg.Metrics, cfg.Tracer)))
	}
	return nil
}

// renderSections prints the standard per-study report block — every table
// and figure, or only the -table/-figure selection — and reports whether
// anything matched.
func renderSections(out io.Writer, a *core.Analysis, short []shortener.HitStats, table, figure int) bool {
	sections := []struct {
		table, figure int
		render        func() string
	}{
		{0, 0, func() string { return report.Headline(a) }},
		{1, 0, func() string { return report.Table1(a) }},
		{2, 0, func() string { return report.Table2(a) }},
		{3, 0, func() string { return report.Table3(a) }},
		{4, 0, func() string { return report.Table4(short) }},
		{0, 2, func() string { return report.Figure2(a) }},
		{0, 3, func() string { return report.Figure3(a) }},
		{0, 5, func() string { return report.Figure5(a) }},
		{0, 6, func() string { return report.Figure6(a) }},
		{0, 7, func() string { return report.Figure7(a) }},
		{0, 0, func() string { return report.CrawlHealthReport(a) }},
	}
	selected := table != 0 || figure != 0
	printed := false
	for _, s := range sections {
		if selected && (s.table != table || s.figure != figure) {
			continue
		}
		fmt.Fprintln(out, s.render())
		printed = true
	}
	return printed
}

// longitudinalFlags carries the CLI selections into the multi-epoch path.
type longitudinalFlags struct {
	deltaDir    string
	ckptPath    string
	ckptEvery   int
	abortAfter  int
	table       int
	figure      int
	asJSON      bool
	withMetrics bool
	fleet       int
	// serialRebuild regenerates each epoch's universe from scratch (the
	// pre-incremental behaviour) — the diff leg CI pins the fast path with.
	serialRebuild bool
}

// runLongitudinal executes a multi-epoch study and prints one report
// block per epoch followed by the longitudinal time-series sections.
// Delta mode (-delta-dir) carries verdicts between epochs so unchanged
// pages skip the detector stack; the printed report is byte-identical to
// the full re-crawl either way. A -checkpoint file is suffixed per epoch
// and interrupted studies resume automatically on relaunch.
func runLongitudinal(cfg core.StudyConfig, out io.Writer, lf longitudinalFlags) error {
	if lf.fleet > 0 {
		return fmt.Errorf("-fleet does not combine with -epochs > 1 in slumreport; use slumfleet -epochs")
	}
	if lf.asJSON {
		return fmt.Errorf("-json does not support -epochs > 1 yet")
	}
	fmt.Fprintf(os.Stderr, "running longitudinal study: seed=%d scale=%d epochs=%d churn=%g lag=%d (~%d URLs/epoch)...\n",
		cfg.Seed, cfg.Scale, cfg.Epochs, cfg.ChurnFrac, cfg.BlacklistLag, 1003087/cfg.Scale)
	res, err := core.RunLongitudinalStudy(cfg, core.LongitudinalOptions{
		DeltaDir:      lf.deltaDir,
		SerialRebuild: lf.serialRebuild,
		Stream: core.StreamOptions{
			CheckpointPath:  lf.ckptPath,
			CheckpointEvery: lf.ckptEvery,
			AbortAfter:      lf.abortAfter,
		},
	})
	if err != nil {
		return err
	}
	printed := false
	for _, e := range res.Epochs {
		fmt.Fprintf(out, "%s\n\n", report.EpochHeader(e.Epoch))
		printed = renderSections(out, e.Analysis, e.ShortStats, lf.table, lf.figure) || printed
	}
	if !printed {
		return fmt.Errorf("nothing matches -table %d -figure %d", lf.table, lf.figure)
	}
	if lf.table == 0 && lf.figure == 0 {
		fmt.Fprintln(out, report.LongitudinalOverview(res))
		fmt.Fprintln(out, report.LongitudinalIntel(res))
		fmt.Fprintln(out, report.LongitudinalBursts(res))
	}
	if lf.withMetrics {
		fmt.Fprintln(out, report.MetricsReport(obs.NewExport(cfg.Metrics, cfg.Tracer)))
	}
	return nil
}
