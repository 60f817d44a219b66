// Command slumbench is the repository benchmark. run.sh builds
// slumreport, slumserve and this program from the tree under test, then
// runs
//
//	slumbench -workload NAME -seed N -seconds S -trace 0|1
//
// With -trace 0 it drives the shipped binaries through their flags and
// HTTP API and reports the end-to-end metrics; with -trace 1 it composes
// the same layers in one goroutine from their public functions, times
// each call from this package, and reports the per-layer ledger. The
// last line of standard output is the JSON result; the lines before it
// are a human-readable summary, the workload-property shares and the
// output digests.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd lists the end-to-end metrics every -trace 0 run reports. A
// "record" is one URL verdict: one crawled URL in a study, one scanned
// URL of a scan job in scan-api. See README.md for the per-workload
// definitions.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"records_per_s", "1/s"},
	{"cpu_us_per_record", "us"},
	{"peak_rss_mb", "MB"},
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"success_ratio", "fraction"},
}

// perLayer lists the traced run's metrics. A layer that does not run on
// a workload is not measured there and reports 0.
var perLayer = []metricDef{
	{"web.generate_ms", "ms"},
	{"web.advance_ms", "ms"},
	{"web.render_us_per_request", "us"},
	{"web.render_hit_ratio", "fraction"},
	{"httpsim.requests_per_record", "count"},
	{"crawler.self_us_per_record", "us"},
	{"core.classify_us_per_record", "us"},
	{"core.detect_us_per_inspect", "us"},
	{"scanner.multi_us_per_scan", "us"},
	{"scanner.heuristic_us_per_scan", "us"},
	{"blacklist.match_us_per_lookup", "us"},
	{"core.verdict_cache_hit_ratio", "fraction"},
	{"core.fold_us_per_record", "us"},
	{"core.delta_write_ms", "ms"},
	{"core.delta_load_ms", "ms"},
	{"report.render_ms", "ms"},
	{"serve.admit_ms", "ms"},
	{"serve.queue_wait_ms", "ms"},
	{"serve.service_ms", "ms"},
	{"serve.cache_hit_ratio", "fraction"},
	{"serve.cache_evictions", "count"},
	{"serve.polls_per_job", "count"},
	{"loadgen.late_ms", "ms"},
	{"ledger.unaccounted_share", "fraction"},
	{"trace.overhead_share", "fraction"},
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(env *env) (*outcome, error){
	"crawl-study": func(e *env) (*outcome, error) { return runStudy(e, crawlStudy) },
	"epoch-study": func(e *env) (*outcome, error) { return runStudy(e, epochStudy) },
	"scan-api":    runScanAPI,
}

// env carries one invocation's settings.
type env struct {
	seed    uint64
	seconds float64
	trace   bool
	binDir  string
	// work is this invocation's scratch directory inside the checkout;
	// removed on exit.
	work string
}

func (e *env) bin(name string) string { return filepath.Join(e.binDir, name) }

// outcome is what a workload runner measured. Operations are slumreport
// runs for the studies and scan jobs for scan-api; an operation fails
// when the program errs or its output fails a check.
type outcome struct {
	attempted, failed int
	values            map[string]float64
	// notes are printed before the result line: properties, digests.
	notes []string
}

// maxFailureLines bounds the failed checks printed to standard error; the
// result line carries the full count.
const maxFailureLines = 20

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if o.failed <= maxFailureLines {
		fmt.Fprintf(os.Stderr, "slumbench: check failed: "+format+"\n", args...)
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload name")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 20, "measurement time per run")
	trace := flag.Int("trace", 0, "1 = traced per-layer run, 0 = end-to-end run")
	binDir := flag.String("bin", ".bench_build/bin", "directory holding slumreport and slumserve")
	flag.Parse()

	run, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "usage: slumbench -workload %v -seed N -seconds S -trace 0|1\n", names)
		os.Exit(2)
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fatal(err)
	}
	work, err := os.MkdirTemp(".bench_build", "work-")
	if err != nil {
		fatal(err)
	}
	e := &env{seed: *seed, seconds: float64(*seconds), trace: *trace == 1, binDir: *binDir, work: work}
	out, err := run(e)
	os.RemoveAll(work)
	if err != nil {
		fatal(err)
	}
	defs := endToEnd
	if e.trace {
		defs = perLayer
	}
	res := result{
		Correct:   out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		v, ok := out.values[d.name]
		if !ok && !e.trace {
			fatal(fmt.Errorf("workload %s did not measure %s", *workload, d.name))
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		fmt.Printf("%-32s %14.6g %s\n", d.name, v, d.unit)
	}
	for _, n := range out.notes {
		fmt.Println(n)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "slumbench:", err)
	os.Exit(1)
}
