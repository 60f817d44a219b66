package main

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
)

// studySpec is one slumreport workload.
type studySpec struct {
	name   string
	scale  int
	epochs int // 1 = single-epoch streaming study
}

// Longitudinal knobs of epoch-study.
const (
	epochChurn = 0.05
	epochLag   = 1
)

// crawlStudy: ~501.5k records in one epoch on the streaming engine.
// Every study layer does its full work, and page rendering is the
// largest single cost. Scale 2 rather than the paper's scale 1 keeps a
// run near 5 s; the default batch engine is not used because it holds
// every record and reaches ~1.8 GB RSS at this scale.
var crawlStudy = studySpec{name: "crawl-study", scale: 2, epochs: 1}

// epochStudy: ~802k records over 8 epochs with churn, blacklist lag and
// epoch deltas. Universe advance, the delta codec and verdict preload
// run only here; rendering and detection mostly reuse earlier epochs.
var epochStudy = studySpec{name: "epoch-study", scale: 10, epochs: 8}

// config is the StudyConfig slumreport builds for this workload's flags
// (epoch 0).
func (s studySpec) config(seed uint64) core.StudyConfig {
	cfg := core.DefaultStudyConfig()
	cfg.Seed, cfg.Scale = seed, s.scale
	if s.epochs > 1 {
		cfg.Epochs, cfg.ChurnFrac, cfg.BlacklistLag = s.epochs, epochChurn, epochLag
	}
	return cfg
}

// args is the slumreport command line for this workload.
func (s studySpec) args(seed uint64, deltaDir string) []string {
	a := []string{"-seed", strconv.FormatUint(seed, 10), "-scale", strconv.Itoa(s.scale)}
	if s.epochs > 1 {
		return append(a, "-epochs", strconv.Itoa(s.epochs), "-churn", strconv.FormatFloat(epochChurn, 'g', -1, 64),
			"-blacklist-lag", strconv.Itoa(epochLag), "-delta-dir", deltaDir)
	}
	return append(a, "-stream")
}

// Set-up is timed at least setupMinRepeats times and until setupBudget of
// timed set-up has accumulated, and the median is reported: one set-up
// takes 20-120 ms, short enough for a GC cycle or a scheduling hiccup to
// move a single sample.
const (
	setupMinRepeats = 7
	setupBudget     = 1500 * time.Millisecond
)

// measureSetup times core.NewStudy for cfg and returns the median
// seconds and the crawled-record count one epoch of the study plans.
func measureSetup(cfg core.StudyConfig) (float64, int, error) {
	var secs []float64
	var spent time.Duration
	perEpoch := 0
	for len(secs) < setupMinRepeats || spent < setupBudget {
		runtime.GC()
		start := time.Now()
		st, err := core.NewStudy(cfg)
		d := time.Since(start)
		spent += d
		secs = append(secs, d.Seconds())
		if err != nil {
			return 0, 0, err
		}
		perEpoch = 0
		for _, n := range st.Steps {
			perEpoch += n
		}
	}
	runtime.GC()
	return median(secs), perEpoch, nil
}

// runStudy measures one study workload end to end: set-up in process,
// then an untimed warm-up slumreport run with -metrics (which yields the
// workload properties and the reference report), then timed runs until
// the measurement time is spent. Every timed report must be a byte-prefix
// of the warm-up's output, as the METRICS contract promises.
func runStudy(e *env, spec studySpec) (*outcome, error) {
	if e.trace {
		return traceStudy(e, spec)
	}
	cfg := spec.config(e.seed)
	setup, perEpoch, err := measureSetup(cfg)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	o := &outcome{values: map[string]float64{"setup_s": setup}}
	records := perEpoch * spec.epochs

	run := func(i int, extra ...string) childRun {
		dir := filepath.Join(e.work, fmt.Sprintf("delta-%d", i))
		if spec.epochs > 1 {
			// slumreport does not create the delta directory.
			if err := os.MkdirAll(dir, 0o755); err != nil {
				return childRun{err: err}
			}
			defer os.RemoveAll(dir)
		}
		o.attempted++
		return runChild(e.bin("slumreport"), append(spec.args(e.seed, dir), extra...)...)
	}

	warm := run(0, "-metrics")
	reference := ""
	if warm.err != nil {
		o.fail("warm-up: %v", warm.err)
	} else {
		out := string(warm.stdout)
		i := strings.Index(out, "METRICS: ")
		if i < 0 {
			o.fail("warm-up output has no METRICS section")
		} else {
			reference = out[:i]
			if err := checkStudyReport(reference, spec.epochs, perEpoch); err != nil {
				o.fail("%s: %v", spec.name, err)
			}
			c := metricsCounters(out[i:])
			o.notes = append(o.notes,
				fmt.Sprintf("property verdict_cache_hit_ratio=%.4f render_hit_ratio=%.4f",
					ratio(c["pipeline.cache.hits"], c["pipeline.cache.misses"]),
					ratio(c["web.render.hits"], c["web.render.misses"])),
				fmt.Sprintf("digest report_sha256=%x", sha256.Sum256([]byte(reference))))
		}
	}

	var rate, cpu, rss, wall []float64
	start := time.Now()
	for i := 1; len(wall) < 3 || time.Since(start).Seconds() < e.seconds; i++ {
		r := run(i)
		switch {
		case r.err != nil:
			o.fail("run %d: %v", i, r.err)
		case reference == "" || string(r.stdout) != reference:
			o.fail("run %d: report differs from the warm-up report of the same seed", i)
		default:
			rate = append(rate, float64(records)/r.wall.Seconds())
			cpu = append(cpu, float64(r.cpu.Microseconds())/float64(records))
			rss = append(rss, r.maxRSSMB)
			wall = append(wall, float64(r.wall.Microseconds())/1e3)
		}
		if len(wall) == 0 && o.failed > 3 {
			break
		}
	}
	o.values["success_ratio"] = float64(o.attempted-o.failed) / float64(o.attempted)
	if len(wall) == 0 {
		for _, d := range endToEnd {
			if _, ok := o.values[d.name]; !ok {
				o.values[d.name] = 0
			}
		}
		return o, nil
	}
	o.values["records_per_s"] = median(rate)
	o.values["cpu_us_per_record"] = median(cpu)
	o.values["peak_rss_mb"] = median(rss)
	o.values["latency_p50_ms"] = median(wall)
	o.values["latency_tail_ms"] = maxOf(wall)
	o.notes = append(o.notes, fmt.Sprintf("sample timed_runs=%d records_per_run=%d", len(wall), records))
	return o, nil
}

var (
	datasetRe  = regexp.MustCompile(`(?m)^Dataset: ([0-9,]+) URLs crawled`)
	headlineRe = regexp.MustCompile(`(?m)^Regular URLs: [0-9,]+; detected malicious: [0-9,]+ \(([0-9.]+)%\)`)
	table1Re   = regexp.MustCompile(`(?s)TABLE I: STATISTICS OF DATA FROM TRAFFIC EXCHANGES\n[^\n]*\n-+\n(.*?)\nTOTAL`)
)

// Headline malicious share bands. The paper reports 26%, and the first
// epoch of every seed lands at 26-27%. Later epochs are not the paper's
// setting: churn with a lagging blacklist moves them by several points
// (18.8% at seed 36, epoch 2), so they get only a sanity band.
const (
	headlineLo, headlineHi     = 25.0, 28.5
	laterEpochLo, laterEpochHi = 10.0, 40.0
	exchangeRows               = 9
)

// checkStudyReport is the paper-shape check on a slumreport report: one
// block per epoch, each with the planned crawl volume, a nine-exchange
// Table I, and a headline malicious share near the paper's 26%.
func checkStudyReport(rep string, epochs, perEpoch int) error {
	ds := datasetRe.FindAllStringSubmatch(rep, -1)
	hl := headlineRe.FindAllStringSubmatch(rep, -1)
	t1 := table1Re.FindAllStringSubmatch(rep, -1)
	if len(ds) != epochs || len(hl) != epochs || len(t1) != epochs {
		return fmt.Errorf("want %d report blocks, found %d dataset lines, %d headlines, %d Table I",
			epochs, len(ds), len(hl), len(t1))
	}
	for ep := 0; ep < epochs; ep++ {
		n, _ := strconv.Atoi(strings.ReplaceAll(ds[ep][1], ",", ""))
		if n != perEpoch {
			return fmt.Errorf("epoch %d crawled %d URLs, want %d", ep, n, perEpoch)
		}
		if rows := strings.Count(t1[ep][1], "\n") + 1; rows != exchangeRows {
			return fmt.Errorf("epoch %d Table I has %d exchange rows, want %d", ep, rows, exchangeRows)
		}
		pct, _ := strconv.ParseFloat(hl[ep][1], 64)
		lo, hi := headlineLo, headlineHi
		if ep > 0 {
			lo, hi = laterEpochLo, laterEpochHi
		}
		if pct < lo || pct > hi {
			return fmt.Errorf("epoch %d headline malicious share %.1f%% outside [%g, %g]", ep, pct, lo, hi)
		}
	}
	return nil
}

// metricsCounters parses the deterministic counters of a METRICS section.
func metricsCounters(section string) map[string]int64 {
	out := map[string]int64{}
	in := false
	for _, line := range strings.Split(section, "\n") {
		switch {
		case strings.HasPrefix(line, "counters"):
			in = true
		case !strings.HasPrefix(line, "  "):
			in = false
		case in:
			f := strings.Fields(line)
			if len(f) == 2 {
				if v, err := strconv.ParseInt(f[1], 10, 64); err == nil {
					out[f[0]] += v
				}
			}
		}
	}
	return out
}

func ratio(hits, misses int64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}
