package main

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// TestMetricsAdditive checks the central output contract of -metrics: the
// default report is a byte-prefix of the instrumented report, so golden
// files stay valid without the flag and nothing inside the report shifts
// when instrumentation is on.
func TestMetricsAdditive(t *testing.T) {
	plain := captureReport(t)
	instrumented := captureReport(t, "-metrics")
	if !bytes.HasPrefix(instrumented, plain) {
		t.Fatalf("-metrics output is not a superset: default report must be a byte-prefix\n%s",
			firstDiff(instrumented[:min(len(instrumented), len(plain))], plain))
	}
	tail := instrumented[len(plain):]
	if !bytes.Contains(tail, []byte("METRICS: PIPELINE OBSERVABILITY")) {
		t.Fatalf("appended section missing METRICS header:\n%s", tail)
	}
	for _, want := range []string{
		"counters (deterministic):",
		"pipeline.cache.hits",
		"pipeline.classified.regular",
		"crawl.urls",
		"scanner.scans.file",
		"stage latency",
	} {
		if !bytes.Contains(tail, []byte(want)) {
			t.Errorf("METRICS section missing %q", want)
		}
	}
}

// metricsJSON runs the golden configuration with -json -metrics plus the
// given flags and returns the decoded metrics block and the per-exchange
// crawled counts from Table I.
func metricsJSON(t *testing.T, flags ...string) (map[string]any, map[string]int) {
	t.Helper()
	raw := captureReport(t, append([]string{"-json", "-metrics"}, flags...)...)
	var rep struct {
		Table1 []struct {
			Name    string `json:"name"`
			Crawled int    `json:"crawled"`
		} `json:"table1"`
		Metrics map[string]any `json:"metrics"`
	}
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Metrics == nil {
		t.Fatal("-json -metrics produced no metrics block")
	}
	crawled := make(map[string]int, len(rep.Table1))
	for _, row := range rep.Table1 {
		crawled[row.Name] = row.Crawled
	}
	return rep.Metrics, crawled
}

// counterValues extracts name -> value from the export's counters array.
func counterValues(t *testing.T, metrics map[string]any) map[string]float64 {
	t.Helper()
	raw, ok := metrics["counters"].([]any)
	if !ok {
		t.Fatalf("metrics.counters missing or mistyped: %T", metrics["counters"])
	}
	out := make(map[string]float64, len(raw))
	for _, e := range raw {
		m := e.(map[string]any)
		out[m["name"].(string)] = m["value"].(float64)
	}
	return out
}

// stageCounts extracts (scope, stage) -> count from the export's stage
// table. Counts are deterministic; the timing fields beside them are not
// and are deliberately ignored here.
func stageCounts(t *testing.T, metrics map[string]any) map[string]float64 {
	t.Helper()
	raw, ok := metrics["stages"].([]any)
	if !ok {
		t.Fatalf("metrics.stages missing or mistyped: %T", metrics["stages"])
	}
	out := make(map[string]float64, len(raw))
	for _, e := range raw {
		m := e.(map[string]any)
		out[m["scope"].(string)+"/"+m["stage"].(string)] = m["count"].(float64)
	}
	return out
}

// TestMetricsCounterWorkerInvariance asserts the determinism contract for
// count-valued metrics: every counter and every stage count must be
// exactly identical across worker counts {1, 2, 8} on the default path
// ("batch", the name it kept from the engine it replaced), across the same
// worker counts with -stream (accepted, and it changes nothing: its last
// run drops the flag and must still match), and across fleet sizes
// {1, 2, 4} with -fleet, while timing-valued metrics (gauges, histograms,
// stage latencies) are excluded from the comparison.
func TestMetricsCounterWorkerInvariance(t *testing.T) {
	for _, mode := range []struct {
		name string
		runs [][]string // flags per run; the first run is the baseline
	}{
		{"batch", [][]string{{"-workers", "1"}, {"-workers", "2"}, {"-workers", "8"}}},
		{"stream", [][]string{{"-workers", "1", "-stream"}, {"-workers", "2", "-stream"}, {"-workers", "8", "-stream"}, {"-workers", "2"}}},
		{"fleet", [][]string{{"-fleet", "1"}, {"-fleet", "2"}, {"-fleet", "4"}}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			base, crawled := metricsJSON(t, mode.runs[0]...)
			baseCounters := counterValues(t, base)
			baseStages := stageCounts(t, base)

			// The interesting counters must exist and be non-zero — an
			// empty map comparing equal to an empty map would be a vacuous
			// pass.
			for _, name := range []string{
				"pipeline.records", "pipeline.cache.hits", "pipeline.cache.misses", "pipeline.inspections",
				"pipeline.classified.regular", "pipeline.malicious",
				"crawl.urls", "crawl.fetched", "crawl.fetch_attempts", "scanner.scans.file",
			} {
				if baseCounters[name] <= 0 {
					t.Errorf("counter %s = %v, want > 0", name, baseCounters[name])
				}
			}
			// Every engine folds each exchange in batches of 64 records,
			// one aggregate span per batch.
			total := 0
			for name, n := range crawled {
				total += n
				if got, want := baseStages[name+"/aggregate"], float64((n+63)/64); got != want {
					t.Errorf("%s: %v aggregate spans for %d records, want %v", name, got, n, want)
				}
			}
			if got := baseCounters["pipeline.records"]; got != float64(total) {
				t.Errorf("pipeline.records = %v, want the %d crawled records", got, total)
			}

			for _, flags := range mode.runs[1:] {
				m, _ := metricsJSON(t, flags...)
				if got := counterValues(t, m); !reflect.DeepEqual(got, baseCounters) {
					t.Errorf("%v counters differ from %v:\n got %v\nwant %v",
						flags, mode.runs[0], got, baseCounters)
				}
				if got := stageCounts(t, m); !reflect.DeepEqual(got, baseStages) {
					t.Errorf("%v stage counts differ from %v:\n got %v\nwant %v",
						flags, mode.runs[0], got, baseStages)
				}
			}
		})
	}
}

// TestMetricsJSONOmittedByDefault: without -metrics the JSON report must
// not carry a metrics key at all, keeping machine-readable output
// byte-identical to pre-instrumentation runs.
func TestMetricsJSONOmittedByDefault(t *testing.T) {
	raw := captureReport(t, "-json")
	var rep map[string]any
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	if _, ok := rep["metrics"]; ok {
		t.Fatal("JSON report contains a metrics key without -metrics")
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
