// Command slumscan runs the analysis pipeline over a dataset written by
// slumcrawl: referral classification, malware detection, categorization
// and aggregation — the offline half of the study.
//
// The scan needs the same universe the dataset was crawled from (the
// threat feed, blacklists, and shortener registry are intelligence tied
// to that world), so the seed and scale flags must match the slumcrawl
// invocation; a mismatch is detectable by wildly shifted detection rates.
//
// Usage:
//
//	slumscan -in dataset.jsonl [-seed N] [-scale N] [-js-fuel N] [-js-heap N] [-table N] [-figure N] [-metrics]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/crawler"
	"repro/internal/har"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/shortener"
)

// loadHARCrawls reconstructs crawls from a directory of per-exchange HAR
// archives, as slumcrawl -hardir writes them.
func loadHARCrawls(dir string) ([]*crawler.Crawl, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.har"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no .har archives in %s", dir)
	}
	var out []*crawler.Crawl
	for _, path := range paths {
		spec, ok := core.ExchangeByFileName(filepath.Base(path))
		if !ok {
			fmt.Fprintf(os.Stderr, "slumscan: skipping unrecognized archive %s\n", path)
			continue
		}
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		log, err := har.Decode(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		c, err := core.CrawlFromHAR(spec.Name, spec.Kind, log)
		if err != nil {
			return nil, err
		}
		out = append(out, c)
	}
	return out, nil
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "slumscan:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("slumscan", flag.ContinueOnError)
	in := fs.String("in", "dataset.jsonl", "input dataset path (JSONL)")
	harDir := fs.String("hardir", "", "analyze HAR archives from this directory instead of -in")
	seed := fs.Uint64("seed", 1, "seed the dataset was crawled with")
	scale := fs.Int("scale", 20, "scale the dataset was crawled with")
	workers := fs.Int("workers", 0, "exchanges analyzed at once (0 = all CPUs)")
	jsFuel := fs.Int64("js-fuel", 0, "JS sandbox fuel budget per script (0 = default)")
	jsHeap := fs.Int64("js-heap", 0, "JS sandbox heap budget in bytes per script (0 = default)")
	table := fs.Int("table", 0, "print only this table (1-4)")
	figure := fs.Int("figure", 0, "print only this figure (2, 3, 5, 6, 7)")
	withMetrics := fs.Bool("metrics", false, "instrument the scan and append a METRICS section")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var crawls []*crawler.Crawl
	if *harDir != "" {
		var err error
		crawls, err = loadHARCrawls(*harDir)
		if err != nil {
			return err
		}
	} else {
		f, err := os.Open(*in)
		if err != nil {
			return err
		}
		defer f.Close()
		crawls, err = core.ReadDataset(f)
		if err != nil {
			return err
		}
	}

	cfg := core.DefaultStudyConfig()
	cfg.Seed = *seed
	cfg.Scale = *scale
	cfg.Workers = *workers
	cfg.DriveShortenerTraffic = false // the crawl already drove it
	cfg.JSFuel = *jsFuel
	cfg.JSHeapBytes = *jsHeap
	if *withMetrics {
		cfg.Metrics = obs.NewRegistry()
		cfg.Tracer = obs.NewTracer()
	}
	st, err := core.NewStudy(cfg)
	if err != nil {
		return err
	}
	a := st.Analyzer.Analyze(crawls)

	selected := *table != 0 || *figure != 0
	printed := false
	for _, s := range sections(a, st.Universe.Shorteners) {
		if selected && (s.table != *table || s.figure != *figure) {
			continue
		}
		fmt.Fprintln(out, s.render())
		printed = true
	}
	if !printed {
		return fmt.Errorf("nothing matches -table %d -figure %d", *table, *figure)
	}
	if *withMetrics {
		fmt.Fprintln(out, report.MetricsReport(obs.NewExport(cfg.Metrics, cfg.Tracer)))
	}
	return nil
}

// section is one report block, selected by its -table or -figure number.
type section struct {
	table, figure int
	render        func() string
}

// sections lists the report blocks in print order; Table IV joins the
// analysis with reg's hit statistics.
func sections(a *core.Analysis, reg *shortener.Registry) []section {
	return []section{
		{0, 0, func() string { return report.Headline(a) }},
		{1, 0, func() string { return report.Table1(a) }},
		{2, 0, func() string { return report.Table2(a) }},
		{3, 0, func() string { return report.Table3(a) }},
		{4, 0, func() string { return report.Table4(a.ShortURLStats(reg)) }},
		{0, 2, func() string { return report.Figure2(a) }},
		{0, 3, func() string { return report.Figure3(a) }},
		{0, 5, func() string { return report.Figure5(a) }},
		{0, 6, func() string { return report.Figure6(a) }},
		{0, 7, func() string { return report.Figure7(a) }},
		// Crawl health is rendered from the persisted fetchErr/errKind/
		// attempts fields: faults are baked into the dataset at crawl time
		// (slumcrawl -faults), so slumscan needs no fault flags of its own.
		{0, 0, func() string { return report.CrawlHealthReport(a) }},
	}
}
