package main

import (
	"encoding/json"
	"math"
	"os"
	"sort"
	"testing"
	"time"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	for _, tc := range []struct {
		n    int
		p    float64
		want float64 // 0 = must refuse
	}{
		{n: 1000, p: 99, want: 990},
		{n: 999, p: 99},
		{n: 100, p: 99},
		{n: 100, p: 90, want: 90},
		{n: 99, p: 90},
		{n: 20, p: 50, want: 10},
		{n: 19, p: 50},
	} {
		got, err := percentile(seq(tc.n), tc.p)
		switch {
		case tc.want == 0 && err == nil:
			t.Errorf("p%g of %d samples = %g, want a refusal", tc.p, tc.n, got)
		case tc.want != 0 && (err != nil || got != tc.want):
			t.Errorf("p%g of %d samples = %g, %v; want %g", tc.p, tc.n, got, err, tc.want)
		}
	}

	// Refused requests are +Inf and sort past every finite latency.
	xs := seq(1000)
	for i := 0; i < 20; i++ {
		xs[i] = math.Inf(1)
	}
	if got, err := percentile(xs, 99); err != nil || !math.IsInf(got, 1) {
		t.Errorf("p99 with 2%% refused = %g, %v; want +Inf", got, err)
	}
}

// benchmarkJSON mirrors the fields of BENCHMARK.json this program must agree with.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func TestNamesMatchPatternAndBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}

	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	var declared []string
	for _, w := range bj.Workloads {
		declared = append(declared, w.Name)
	}
	sort.Strings(declared)
	if len(names) != len(declared) {
		t.Fatalf("slumbench workloads %v, BENCHMARK.json %v", names, declared)
	}
	for i := range names {
		if names[i] != declared[i] {
			t.Fatalf("slumbench workloads %v, BENCHMARK.json %v", names, declared)
		}
	}

	check := func(kind string, defs []metricDef, json []struct{ Name, Unit string }) {
		if len(defs) != len(json) {
			t.Fatalf("%s: slumbench has %d metrics, BENCHMARK.json %d", kind, len(defs), len(json))
		}
		for i, d := range defs {
			if d.name != json[i].Name || d.unit != json[i].Unit {
				t.Errorf("%s[%d]: slumbench %s (%s), BENCHMARK.json %s (%s)", kind, i, d.name, d.unit, json[i].Name, json[i].Unit)
			}
			names = append(names, d.name)
		}
	}
	check("end_to_end", endToEnd, bj.EndToEnd)
	check("per_layer", perLayer, bj.PerLayer)

	seen := map[string]bool{}
	for _, n := range names {
		if !namePattern.MatchString(n) {
			t.Errorf("name %q does not match %s", n, namePattern)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
}

// fakeClock advances only when told to; SleepUntil jumps forward.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time { return c.now }
func (c *fakeClock) SleepUntil(t time.Time) {
	if t.After(c.now) {
		c.now = t
	}
}

func TestOpenLoopChargesLatencyFromDueTime(t *testing.T) {
	start := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	clk := &fakeClock{now: start}
	jobs := make([]*jobResult, 4)
	for i := range jobs {
		jobs[i] = &jobResult{}
	}
	// One client slot and a synchronous spawn: the first job stalls the
	// client for 50ms, so the next jobs go out late; each then takes 1ms.
	openLoop(clk, start, 100, jobs, make(chan struct{}, 1), func(f func()) { f() }, func(j *jobResult) {
		if j == jobs[0] {
			clk.now = clk.now.Add(50 * time.Millisecond)
		} else {
			clk.now = clk.now.Add(time.Millisecond)
		}
		j.finished = clk.now
	})
	for i, want := range []struct{ late, latency float64 }{
		{0, 50}, {40, 41}, {31, 32}, {22, 23},
	} {
		j := jobs[i]
		if wantDue := start.Add(time.Duration(i) * 10 * time.Millisecond); !j.due.Equal(wantDue) {
			t.Errorf("job %d due %v, want %v", i, j.due.Sub(start), wantDue.Sub(start))
		}
		if got := j.lateMs(); got != want.late {
			t.Errorf("job %d late %gms, want %g", i, got, want.late)
		}
		if got := j.latencyMs(); got != want.latency {
			t.Errorf("job %d latency %gms, want %g (charged from the due time)", i, got, want.latency)
		}
	}

	refused := &jobResult{due: start, finished: start.Add(time.Millisecond), refused: true}
	if !math.IsInf(refused.latencyMs(), 1) {
		t.Errorf("refused job latency %g, want +Inf", refused.latencyMs())
	}
}
