package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/crawler"
	"repro/internal/httpsim"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/urlutil"
	"repro/internal/web"
)

// timedTransport wraps the simulated internet and books the time spent
// inside its RoundTrip: the world's page rendering, apart from the cost
// of the system under study. Used from one goroutine only.
type timedTransport struct {
	inner    httpsim.RoundTripper
	timersOn bool
	requests int64
	busy     time.Duration
}

func (t *timedTransport) RoundTrip(req *httpsim.Request) (*httpsim.Response, error) {
	t.requests++
	if !t.timersOn {
		return t.inner.RoundTrip(req)
	}
	start := time.Now()
	resp, err := t.inner.RoundTrip(req)
	t.busy += time.Since(start)
	return resp, err
}

// ledger is one traced pass: self time per layer row plus the counts the
// per-record metrics divide by.
type ledger struct {
	wall time.Duration
	self map[string]time.Duration

	records, inspections, requests int64
	cacheHits, cacheMisses         int64
	renderHits, renderMisses       int64
	reports                        []string
	// The last epoch's study, crawls and transport, kept for the scanner
	// calibration that follows the pass.
	last       *core.Study
	lastCrawls []*crawler.Crawl
	rt         *timedTransport
}

// Ledger rows, in pipeline order. Their self times partition the traced
// pass; whatever falls outside every row is the unaccounted share.
var ledgerRows = []string{
	"web.generate", "web.advance", "web.render", "crawler.self", "core.classify",
	"core.detect", "core.fold", "core.delta_load", "core.delta_write", "report.render",
}

// sampleLimit bounds the records kept for the scanner calibration.
const sampleLimit = 1500

// tracedPass runs the study once in the calling goroutine, composed from
// the layers' public functions: NewStudy/NewStudyFrom, CrawlExchange per
// exchange, Analyzer.Analyze with one worker, and the report renderers.
// Classify and inspect self times inside Analyze come from the
// Analyzer's stage tracer, the only seam Analyze offers; everything else
// is timed here. With timersOn false the same pass runs with every timer
// and the tracer off, which gives the tracing overhead.
//
// The pass runs the batch fold, so epoch-study's epochs here re-inspect
// pages that the shipped delta preload would skip; its detect row is an
// upper bound for epochs after the first. Background shortener traffic
// (Table IV hit counts) is not driven.
func tracedPass(spec studySpec, seed uint64, deltas []string, work string, timersOn bool) (*ledger, error) {
	lg := &ledger{self: map[string]time.Duration{}}
	span := func(row string, start time.Time) {
		if timersOn {
			lg.self[row] += time.Since(start)
		}
	}
	passStart := time.Now()
	var prev *web.Universe
	for ep := 0; ep < spec.epochs; ep++ {
		cfg := spec.config(seed)
		cfg.Epoch = ep
		t := time.Now()
		var st *core.Study
		var err error
		if ep == 0 {
			st, err = core.NewStudy(cfg)
			span("web.generate", t)
		} else {
			st, err = core.NewStudyFrom(cfg, prev)
			span("web.advance", t)
		}
		if err != nil {
			return nil, err
		}
		prev = st.Universe

		rt := &timedTransport{inner: st.Universe.Internet, timersOn: timersOn}
		st.Detector.Multi.Fetcher = rt
		st.Detector.Heur.ResourceFetcher = rt
		an := st.Analyzer
		an.Workers = 1
		var tracer *obs.Tracer
		if timersOn {
			// The tracer times classify and scan inside Analyze; the
			// registry supplies the inspection count. Their own cost lands
			// in trace.overhead_share.
			tracer = obs.NewTracer()
			an.Tracer = tracer
			an.Metrics = obs.NewRegistry()
		}

		base := crawler.DefaultOptions(0)
		base.Retries = cfg.Retries
		base.CaptureHAR = false
		crawls := make([]*crawler.Crawl, len(st.Exchanges))
		for i, ex := range st.Exchanges {
			r0, t := rt.busy, time.Now()
			c, err := crawler.CrawlExchange(ex, rt, crawler.ExchangeOptions(base, i, st.Steps[i]))
			if timersOn {
				lg.self["crawler.self"] += time.Since(t) - (rt.busy - r0)
			}
			if err != nil {
				return nil, err
			}
			crawls[i] = c
			lg.records += int64(len(c.Records))
		}

		r0, t := rt.busy, time.Now()
		a := an.Analyze(crawls)
		if timersOn {
			analyze := time.Since(t) - (rt.busy - r0)
			var classify, scan time.Duration
			for _, row := range tracer.Table() {
				d := time.Duration(row.TotalSeconds * float64(time.Second))
				switch row.Stage {
				case obs.StageClassify:
					classify += d
				case obs.StageScan:
					scan += d
				}
			}
			// Fetches inside Analyze are the detector's own, so their
			// render time comes out of the scan spans.
			lg.self["core.classify"] += classify
			lg.self["core.detect"] += scan - (rt.busy - r0)
			lg.self["core.fold"] += analyze - classify - (scan - (rt.busy - r0))
			lg.inspections += an.Metrics.Counter("pipeline.inspections").Value()
		}
		lg.cacheHits += int64(a.CacheStats.Hits)
		lg.cacheMisses += int64(a.CacheStats.Misses)

		if ep < len(deltas) {
			t := time.Now()
			ck, err := core.LoadCheckpoint(deltas[ep])
			if err != nil {
				return nil, err
			}
			d, err := ck.EpochDelta()
			if err != nil {
				return nil, err
			}
			span("core.delta_load", t)
			t = time.Now()
			if err := core.WriteEpochDelta(filepath.Join(work, "rewrite.slumdelta"), cfg, d); err != nil {
				return nil, err
			}
			span("core.delta_write", t)
		}

		t = time.Now()
		lg.reports = append(lg.reports, renderReport(a, st))
		span("report.render", t)

		if timersOn {
			lg.self["web.render"] += rt.busy
		}
		lg.requests += rt.requests
		h, m, _, _ := st.Universe.DrainRenderCounters()
		lg.renderHits += h
		lg.renderMisses += m
		lg.last, lg.lastCrawls, lg.rt = st, crawls, rt
	}
	lg.wall = time.Since(passStart)
	return lg, nil
}

// renderReport renders one report block with the sections slumreport
// prints, in its order.
func renderReport(a *core.Analysis, st *core.Study) string {
	short := a.ShortURLStats(st.Universe.Shorteners)
	var b strings.Builder
	for _, s := range []string{
		report.Headline(a), report.Table1(a), report.Table2(a), report.Table3(a), report.Table4(short),
		report.Figure2(a), report.Figure3(a), report.Figure5(a), report.Figure6(a), report.Figure7(a),
		report.CrawlHealthReport(a),
	} {
		b.WriteString(s)
		b.WriteByte('\n')
	}
	return b.String()
}

// distinctRegular returns up to sampleLimit regular, body-carrying
// records with distinct final URL and body, in crawl order.
func distinctRegular(st *core.Study, crawls []*crawler.Crawl) []crawler.Record {
	type key struct {
		final string
		body  *byte
	}
	seen := map[key]bool{}
	var sample []crawler.Record
	cl := st.Analyzer.Classifier
	for _, c := range crawls {
		for _, r := range c.Records {
			if len(sample) >= sampleLimit {
				return sample
			}
			if len(r.Body) == 0 || cl.Classify(r) != core.Regular {
				continue
			}
			k := key{r.FinalURL, &r.Body[0]}
			if !seen[k] {
				seen[k] = true
				sample = append(sample, r)
			}
		}
	}
	return sample
}

// calibration is the per-call cost of the detector's parts, measured on
// a sample of distinct records after the ledger pass. Inspect calls
// these parts with no seam between them, so they are timed by calling
// each directly on the same inputs.
type calibration struct {
	multiUS, heurUS, matchUS float64
}

func calibrate(det *core.Detector, rt *timedTransport, sample []crawler.Record) calibration {
	if len(sample) == 0 {
		return calibration{}
	}
	var multi, heur, match time.Duration
	lookups := 0
	for _, r := range sample {
		t := time.Now()
		det.Multi.ScanFile(r.FinalURL, r.Body)
		multi += time.Since(t)

		r0, t := rt.busy, time.Now()
		det.Heur.ScanPage(r.FinalURL, r.ContentType, r.Body)
		heur += time.Since(t) - (rt.busy - r0)

		for _, u := range []string{r.EntryURL, r.FinalURL} {
			p, err := urlutil.Parse(u)
			if err != nil {
				continue
			}
			t := time.Now()
			det.Blacklists.Matches(p.Host)
			match += time.Since(t)
			lookups++
		}
	}
	n := float64(len(sample))
	c := calibration{multiUS: us(multi) / n, heurUS: us(heur) / n}
	if lookups > 0 {
		c.matchUS = us(match) / float64(lookups)
	}
	return c
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// traceStudy is the -trace 1 run of a study workload: four passes with
// timers off and on in turn, then the scanner calibration. epoch-study
// first runs slumreport once, untimed, to obtain real epoch deltas for
// the codec rows.
func traceStudy(e *env, spec studySpec) (*outcome, error) {
	var deltas []string
	if spec.epochs > 1 {
		dir := filepath.Join(e.work, "deltas")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		if r := runChild(e.bin("slumreport"), spec.args(e.seed, dir)...); r.err != nil {
			return nil, r.err
		}
		for ep := 0; ep < spec.epochs; ep++ {
			deltas = append(deltas, filepath.Join(dir, fmt.Sprintf("epoch%03d.slumdelta", ep)))
		}
	}
	o := &outcome{values: map[string]float64{}}

	// Passes alternate timers off and on; the overhead compares the
	// fastest pass of each kind, and the ledger is the last pass's.
	var on *ledger
	var reference []string
	offWall, onWall := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
	for i, timersOn := range []bool{false, true, false, true} {
		on = nil
		runtime.GC()
		lg, err := tracedPass(spec, e.seed, deltas, e.work, timersOn)
		if err != nil {
			return nil, err
		}
		o.attempted++
		if reference == nil {
			reference = lg.reports
		} else if strings.Join(lg.reports, "") != strings.Join(reference, "") {
			o.fail("pass %d: report differs from pass 0's", i)
		}
		if timersOn {
			onWall, on = min(onWall, lg.wall), lg
		} else {
			offWall = min(offWall, lg.wall)
		}
	}
	perEpoch := int(on.records) / spec.epochs
	if err := checkStudyReport(strings.Join(on.reports, "\n"), spec.epochs, perEpoch); err != nil {
		o.fail("traced report: %v", err)
	}
	sample := distinctRegular(on.last, on.lastCrawls)
	on.lastCrawls = nil
	cal := calibrate(on.last.Detector, on.rt, sample)

	var sum time.Duration
	for _, row := range ledgerRows {
		sum += on.self[row]
	}
	rec := float64(on.records)
	v := o.values
	v["web.generate_ms"] = ms(on.self["web.generate"])
	if spec.epochs > 1 {
		v["web.advance_ms"] = ms(on.self["web.advance"]) / float64(spec.epochs-1)
		v["core.delta_write_ms"] = ms(on.self["core.delta_write"]) / float64(spec.epochs)
		v["core.delta_load_ms"] = ms(on.self["core.delta_load"]) / float64(spec.epochs)
	}
	v["web.render_us_per_request"] = us(on.self["web.render"]) / float64(on.requests)
	v["web.render_hit_ratio"] = ratio(on.renderHits, on.renderMisses)
	v["httpsim.requests_per_record"] = float64(on.requests) / rec
	v["crawler.self_us_per_record"] = us(on.self["crawler.self"]) / rec
	v["core.classify_us_per_record"] = us(on.self["core.classify"]) / rec
	v["core.detect_us_per_inspect"] = us(on.self["core.detect"]) / float64(on.inspections)
	v["scanner.multi_us_per_scan"] = cal.multiUS
	v["scanner.heuristic_us_per_scan"] = cal.heurUS
	v["blacklist.match_us_per_lookup"] = cal.matchUS
	v["core.verdict_cache_hit_ratio"] = ratio(on.cacheHits, on.cacheMisses)
	v["core.fold_us_per_record"] = us(on.self["core.fold"]) / rec
	v["report.render_ms"] = ms(on.self["report.render"]) / float64(spec.epochs)
	v["ledger.unaccounted_share"] = 1 - sum.Seconds()/on.wall.Seconds()
	v["trace.overhead_share"] = onWall.Seconds()/offWall.Seconds() - 1

	o.notes = append(o.notes, "ledger (traced pass, one goroutine):")
	for _, row := range ledgerRows {
		o.notes = append(o.notes, fmt.Sprintf("  %-18s %10.1f ms  %5.1f%%", row, ms(on.self[row]),
			100*on.self[row].Seconds()/on.wall.Seconds()))
	}
	o.notes = append(o.notes,
		fmt.Sprintf("  %-18s %10.1f ms  %5.1f%%", "unaccounted", ms(on.wall-sum), 100*(1-sum.Seconds()/on.wall.Seconds())),
		fmt.Sprintf("  %-18s %10.1f ms  (fastest traced %.1f ms, untraced %.1f ms: overhead %.1f%%)", "wall",
			ms(on.wall), ms(onWall), ms(offWall), 100*v["trace.overhead_share"]),
		fmt.Sprintf("sample records=%d inspections=%d requests=%d calibration_records=%d",
			on.records, on.inspections, on.requests, len(sample)),
		fmt.Sprintf("property verdict_cache_hit_ratio=%.4f render_hit_ratio=%.4f",
			v["core.verdict_cache_hit_ratio"], v["web.render_hit_ratio"]))
	return o, nil
}
