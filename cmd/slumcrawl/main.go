// Command slumcrawl builds the simulated universe, crawls the nine traffic
// exchanges, and writes the raw measurement dataset: a JSONL record stream
// (with page bodies) plus optional per-exchange HAR archives — the data
// collection half of the study (§III-A). cmd/slumscan runs the analysis
// half over the emitted dataset.
//
// Usage:
//
//	slumcrawl [-seed N] [-scale N] [-faults PROFILE] [-retries N] [-metrics] -out dataset.jsonl [-hardir DIR]
//	          [-stream] [-checkpoint FILE] [-resume] [-checkpoint-every N]
//
// -faults injects deterministic transport faults into the crawl; failed
// fetches are persisted as records with fetchErr/errKind set, so slumscan
// reports crawl health for the dataset.
//
// Without -stream the whole crawl is held in memory (HAR archives need
// it) and written to -out once it completes; no analysis runs. -stream
// writes records straight to per-exchange spill files as they are crawled
// instead; on completion the spills concatenate into -out, byte-identical
// to the in-memory path's dataset. -checkpoint FILE (implies -stream)
// records per-exchange progress every -checkpoint-every records; after a
// kill, rerunning with -resume truncates the spills back to the
// checkpoint and continues. The checkpoint is deleted on completion.
// -hardir requires the in-memory path (HAR archives accumulate whole
// crawls by construction).
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/core"
	"repro/internal/har"
	"repro/internal/httpsim"
	"repro/internal/obs"
	"repro/internal/report"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "slumcrawl:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("slumcrawl", flag.ContinueOnError)
	seed := fs.Uint64("seed", 1, "experiment seed")
	scale := fs.Int("scale", 20, "divide paper crawl volumes by this factor")
	faults := fs.String("faults", "", "crawl fault profile: "+strings.Join(httpsim.ProfileNames(), ", "))
	retries := fs.Int("retries", 2, "crawl retries per URL after the first attempt")
	out := fs.String("out", "dataset.jsonl", "output dataset path")
	harDir := fs.String("hardir", "", "directory for per-exchange HAR archives (optional)")
	withMetrics := fs.Bool("metrics", false, "instrument the crawl and print a METRICS section to stdout")
	stream := fs.Bool("stream", false, "spill records to disk as they are crawled (bounded memory)")
	ckptPath := fs.String("checkpoint", "", "checkpoint file; enables periodic checkpointing (implies -stream)")
	resume := fs.Bool("resume", false, "resume from the -checkpoint file when it exists (implies -stream)")
	ckptEvery := fs.Int("checkpoint-every", 5000, "records between checkpoint writes")
	abortAfter := fs.Int("abort-after", 0, "testing: abort the streaming crawl after N written records, as a kill would")
	if err := fs.Parse(args); err != nil {
		return err
	}

	useStream := *stream || *ckptPath != "" || *abortAfter > 0
	if *resume && *ckptPath == "" {
		return fmt.Errorf("-resume requires -checkpoint FILE")
	}
	if useStream && *harDir != "" {
		return fmt.Errorf("-hardir requires the in-memory path (drop -stream/-checkpoint)")
	}
	var f *os.File
	if !useStream {
		// Fail on an unwritable -out before the crawl, not after it.
		var err error
		if f, err = os.Create(*out); err != nil {
			return err
		}
		defer f.Close()
	}
	cfg := core.DefaultStudyConfig()
	cfg.Seed = *seed
	cfg.Scale = *scale
	cfg.FaultProfile = *faults
	cfg.Retries = *retries
	if *withMetrics {
		cfg.Metrics = obs.NewRegistry()
		cfg.Tracer = obs.NewTracer()
	}
	st, err := core.NewStudy(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "crawling %d exchanges (seed=%d scale=%d)...\n",
		len(st.Exchanges), cfg.Seed, cfg.Scale)

	if useStream {
		opts := core.DatasetStreamOptions{CheckpointPath: *ckptPath, CheckpointEvery: *ckptEvery, AbortAfter: *abortAfter}
		if *resume {
			ck, lerr := core.LoadCheckpoint(*ckptPath)
			switch {
			case lerr == nil:
				fmt.Fprintf(os.Stderr, "resuming from %s (%d records already written)\n", *ckptPath, ck.Records())
				opts.Resume = ck
			case errors.Is(lerr, os.ErrNotExist):
				// No checkpoint on disk: nothing to resume, start fresh.
			default:
				return lerr
			}
		}
		res, err := st.StreamDataset(*out, opts)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %d records to %s (%d failed fetches)\n", res.Records, *out, res.Failed)
		if *withMetrics {
			fmt.Println(report.MetricsReport(obs.NewExport(cfg.Metrics, cfg.Tracer)))
		}
		return nil
	}

	crawls, err := st.Crawl()
	if err != nil {
		return err
	}
	if err := core.WriteDataset(f, crawls); err != nil {
		return err
	}
	total, failed := 0, 0
	for _, c := range crawls {
		total += len(c.Records)
		for i := range c.Records {
			if c.Records[i].FetchErr != "" {
				failed++
			}
		}
	}
	fmt.Fprintf(os.Stderr, "wrote %d records to %s (%d failed fetches)\n", total, *out, failed)

	if *harDir != "" {
		if err := os.MkdirAll(*harDir, 0o755); err != nil {
			return err
		}
		for _, c := range crawls {
			if c.HAR == nil {
				continue
			}
			name := strings.ToLower(strings.ReplaceAll(c.Exchange, " ", "-")) + ".har"
			hf, err := os.Create(filepath.Join(*harDir, name))
			if err != nil {
				return err
			}
			if err := har.Encode(hf, c.HAR); err != nil {
				hf.Close()
				return err
			}
			if err := hf.Close(); err != nil {
				return err
			}
		}
		fmt.Fprintf(os.Stderr, "wrote HAR archives to %s\n", *harDir)
	}
	// Dataset bytes go to -out, so stdout is free for the METRICS section.
	if *withMetrics {
		fmt.Println(report.MetricsReport(obs.NewExport(cfg.Metrics, cfg.Tracer)))
	}
	return nil
}
