package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/crawler"
	"repro/internal/httpsim"
	"repro/internal/serve"
	"repro/internal/urlutil"
)

// scan-api workload constants.
const (
	scanScale = 10
	// scanCacheCap is slumserve's default -cache-capacity; the universe's
	// 7,904 page URLs are about twice it, so hits, misses and LRU
	// evictions all occur.
	scanCacheCap = 4096
	urlsPerJob   = 2
	// zipfS skews URL popularity; math/rand's Zipf needs s > 1, and a
	// value near 1 keeps the tail wide enough to overflow the cache.
	zipfS = 1.01
	// openLoopRate is the fixed offered rate of phase 1 in jobs/s, a
	// constant so that every commit is offered the same load. Each job
	// costs one submit and about one poll over the client's nproc
	// connections, so on 2 vCPUs the rate is set by those connections, not
	// by the server: at half the closed-loop capacity (~2,000-4,000
	// jobs/s) they saturate and latency measures the client's queue, and
	// at 850 jobs/s the tail already swung with the box's speed (spread
	// 0.35 over 10 runs, against 0.09 at this rate).
	openLoopRate = 400.0
	// openLoopShare is the share of the measurement time phase 1 runs.
	openLoopShare = 0.6
	// closedLoopJobs is phase 2's fixed job count, timed in segments of
	// closedSegmentJobs completions.
	closedLoopJobs    = 60000
	closedSegmentJobs = 5000
	// inFlightLimit bounds open-loop jobs in flight on the client; past it
	// the generator runs late and the lateness is reported.
	inFlightLimit = 64
	// closedClientsPerConn clients share each connection in phase 2, so a
	// connection carries the next request as soon as one returns.
	closedClientsPerConn = 4
)

// Poll spacing per phase: the open loop never lets polls pace the load;
// the closed loop polls tightly because each client waits on its job.
const (
	openPollGap   = time.Millisecond
	closedPollGap = 0
)

// scanServer is one running slumserve.
type scanServer struct {
	cmd     *exec.Cmd
	base    string
	out     bytes.Buffer
	done    chan struct{}
	waitErr error
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startServer spawns slumserve on a free loopback port and returns once
// /api/v1/stats answers 200, with the time that took.
func startServer(bin string, seed uint64) (*scanServer, time.Duration, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		port, err := freePort()
		if err != nil {
			return nil, 0, err
		}
		addr := "127.0.0.1:" + strconv.Itoa(port)
		s := &scanServer{base: "http://" + addr, done: make(chan struct{})}
		s.cmd = exec.Command(bin, "-seed", strconv.FormatUint(seed, 10), "-scale", strconv.Itoa(scanScale), "-addr", addr)
		s.cmd.Stdout, s.cmd.Stderr = &s.out, &s.out
		start := time.Now()
		if err := s.cmd.Start(); err != nil {
			return nil, 0, err
		}
		go func() {
			s.waitErr = s.cmd.Wait()
			close(s.done)
		}()
		probe := &http.Client{Timeout: time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
		for lastErr = nil; lastErr == nil; {
			select {
			case <-s.done:
				// Most likely the port was taken between probe and bind.
				lastErr = fmt.Errorf("slumserve exited before serving: %v: %s", s.waitErr, lastLine(s.out.String()))
				continue
			default:
			}
			if resp, err := probe.Get(s.base + "/api/v1/stats"); err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return s, time.Since(start), nil
				}
			}
			if time.Since(start) > time.Minute {
				s.cmd.Process.Kill()
				<-s.done
				return nil, 0, fmt.Errorf("slumserve not ready after a minute")
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	return nil, 0, lastErr
}

// stop sends SIGTERM, which drains admitted jobs, waits for the process
// and returns its peak RSS.
func (s *scanServer) stop() (float64, error) {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return 0, err
	}
	<-s.done
	_, rss := usage(s.cmd.ProcessState)
	if s.waitErr != nil {
		return rss, fmt.Errorf("slumserve: %v: %s", s.waitErr, lastLine(s.out.String()))
	}
	return rss, nil
}

// killedBySIGTERM reports a process that died of SIGTERM instead of
// handling it. slumserve installs its handler only after it starts
// serving, so a server stopped right after its first 200 can die that
// way; that is harmless for a set-up spawn, which holds no jobs.
func killedBySIGTERM(ps *os.ProcessState) bool {
	ws, ok := ps.Sys().(syscall.WaitStatus)
	return ok && ws.Signaled() && ws.Signal() == syscall.SIGTERM
}

// scanUniverse builds the universe slumserve serves for seed, in process.
func scanUniverse(seed uint64) (*core.Study, error) {
	cfg := core.DefaultStudyConfig()
	cfg.Seed, cfg.Scale = seed, scanScale
	cfg.DriveShortenerTraffic = false
	return core.NewStudy(cfg)
}

// drawJobs makes n jobs of urlsPerJob URLs each, Zipf-popular over a
// seeded ranking of every page URL.
func drawJobs(seed uint64, pages []string, n int) []*jobResult {
	r := rand.New(rand.NewSource(int64(seed)))
	rank := r.Perm(len(pages))
	z := rand.NewZipf(r, zipfS, 1, uint64(len(pages)-1))
	jobs := make([]*jobResult, n)
	for i := range jobs {
		urls := make([]string, urlsPerJob)
		for k := range urls {
			urls[k] = pages[rank[z.Uint64()]]
		}
		jobs[i] = &jobResult{urls: urls}
	}
	return jobs
}

type serveStats struct {
	Submitted int64 `json:"submitted"`
	Completed int64 `json:"completed"`
	Cache     *struct {
		Hits, Misses, Evictions int64
	} `json:"cache"`
}

// runScanAPI measures slumserve: set-up (spawn to first 200, median over
// the set-up budget), an open-loop phase at openLoopRate for latency and
// CPU per record, a closed loop over the same connections for capacity,
// then checks every verdict against the detector run in process on the same
// universe.
func runScanAPI(e *env) (*outcome, error) {
	t := time.Now()
	st, err := scanUniverse(e.seed)
	if err != nil {
		return nil, err
	}
	generate := time.Since(t)
	var pages []string
	for _, s := range st.Universe.Sites {
		pages = append(pages, s.PageURLs()...)
	}
	st = nil
	runtime.GC()

	n1 := int(openLoopRate * e.seconds * openLoopShare)
	jobs := drawJobs(e.seed, pages, n1+closedLoopJobs)
	open, closed := jobs[:n1], jobs[n1:]

	// Spawn until the set-up budget is spent; the last server stays up
	// for the load phases.
	var setups []float64
	var spent time.Duration
	var srv *scanServer
	for {
		s, d, err := startServer(e.bin("slumserve"), e.seed)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
		if spent += d; len(setups) >= setupMinRepeats && spent >= setupBudget {
			srv = s
			break
		}
		if _, err := s.stop(); err != nil && !killedBySIGTERM(s.cmd.ProcessState) {
			return nil, err
		}
	}

	conns := runtime.NumCPU()
	client := newAPIClient(srv.base, conns)
	pid := srv.cmd.Process.Pid
	cpu0, err0 := cpuTicks(pid)
	openLoop(realClock{}, time.Now().Add(20*time.Millisecond), openLoopRate, open,
		make(chan struct{}, inFlightLimit), func(f func()) { go f() },
		func(j *jobResult) { client.runJob(j, openPollGap) })
	cpu1, err1 := cpuTicks(pid)

	next := make(chan *jobResult, len(closed))
	for _, j := range closed {
		next <- j
	}
	close(next)
	closedStart := time.Now()
	done := make(chan struct{})
	clients := closedClientsPerConn * conns
	for c := 0; c < clients; c++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for j := range next {
				j.sent = time.Now()
				j.due = j.sent
				client.runJob(j, closedPollGap)
			}
		}()
	}
	for c := 0; c < clients; c++ {
		<-done
	}

	var stats serveStats
	_, statsErr := client.get("/api/v1/stats", &stats)
	client.close()
	rss, stopErr := srv.stop()
	if err0 != nil || err1 != nil || statsErr != nil || stopErr != nil {
		return nil, fmt.Errorf("scan-api: cpu %v %v, stats %v, stop %v", err0, err1, statsErr, stopErr)
	}

	if stats.Cache == nil {
		return nil, fmt.Errorf("scan-api: /api/v1/stats has no cache block")
	}
	o := &outcome{values: map[string]float64{}}
	checkScanJobs(o, e.seed, jobs)
	if stats.Completed != stats.Submitted {
		o.fail("stats: %d submitted, %d completed", stats.Submitted, stats.Completed)
	}

	openDone := 0
	var lat, late, admit, wait, service []float64
	polls := 0
	for _, j := range open {
		lat = append(lat, j.latencyMs())
		late = append(late, j.lateMs())
		if j.refused || j.err != nil {
			continue
		}
		openDone++
		polls += j.polls
		admit = append(admit, msBetween(j.due, j.submitted))
		wait = append(wait, msBetween(j.submitted, j.started))
		service = append(service, msBetween(j.started, j.finished))
	}
	phase1 := e.seconds * openLoopShare * 1e3
	p95, err := windowedPercentile(lat, 95)
	if err != nil {
		return nil, fmt.Errorf("phase 1 too short for its tail: %w", err)
	}
	p99 := "n/a"
	if v, err := windowedPercentile(lat, 99); err == nil {
		p99 = strconv.FormatFloat(v, 'f', 4, 64)
	}
	v := o.values
	if !e.trace {
		v["setup_s"] = median(setups)
		v["records_per_s"] = segmentRate(closedStart, closed) * urlsPerJob
		v["cpu_us_per_record"] = us(cpu1-cpu0) / float64(max(openDone, 1)*urlsPerJob)
		v["peak_rss_mb"] = rss
		// A refused job never finishes; it is booked as waiting the whole
		// phase so the tail stays a finite number.
		v["latency_p50_ms"] = math.Min(median(lat), phase1)
		v["latency_tail_ms"] = math.Min(p95, phase1)
		v["success_ratio"] = float64(o.attempted-o.failed) / float64(o.attempted)
	} else {
		if err := traceScan(e.seed, jobs, v); err != nil {
			return nil, err
		}
		v["web.generate_ms"] = ms(generate)
		if len(admit) > 0 {
			v["serve.admit_ms"] = median(admit)
			v["serve.queue_wait_ms"] = median(wait)
			v["serve.service_ms"] = median(service)
		}
		v["serve.cache_hit_ratio"] = ratio(stats.Cache.Hits, stats.Cache.Misses)
		v["serve.cache_evictions"] = float64(stats.Cache.Evictions)
		v["serve.polls_per_job"] = float64(polls) / float64(max(openDone, 1))
		if v["loadgen.late_ms"], err = windowedPercentile(late, 95); err != nil {
			return nil, err
		}
	}

	seen := map[string]bool{}
	repeats, total := 0, 0
	for _, j := range jobs {
		for _, u := range j.urls {
			total++
			if seen[u] {
				repeats++
			}
			seen[u] = true
		}
	}
	o.notes = append(o.notes,
		fmt.Sprintf("property repeat_url_share=%.4f working_set_to_cache=%.4f server_cache_hit_ratio=%.4f evictions=%d",
			float64(repeats)/float64(total), float64(len(seen))/scanCacheCap,
			ratio(stats.Cache.Hits, stats.Cache.Misses), stats.Cache.Evictions),
		fmt.Sprintf("sample open_jobs=%d open_rate=%g p99_ms=%s (median over 1000-job windows) closed_jobs=%d closed_clients=%d setup_spawns=%d",
			len(open), openLoopRate, p99, len(closed), clients, len(setups)))
	return o, nil
}

func msBetween(a, b time.Time) float64 { return float64(b.Sub(a).Nanoseconds()) / 1e6 }

// windowedPercentile splits phase-1 latencies, in schedule order, into
// the smallest windows that leave ten samples beyond the p-th percentile
// and returns the median of the windows' percentiles, so a transient
// stall moves a few windows only.
func windowedPercentile(lat []float64, p float64) (float64, error) {
	size := int(math.Ceil(10 / (1 - p/100)))
	windows := len(lat) / size
	if windows == 0 {
		return percentile(lat, p) // refuses: too few samples
	}
	var ps []float64
	for w := 0; w < windows; w++ {
		v, err := percentile(lat[w*size:(w+1)*size], p)
		if err != nil {
			return 0, err
		}
		ps = append(ps, v)
	}
	return median(ps), nil
}

// segmentRate is the closed loop's completion rate in jobs/s: the median
// over consecutive segments of closedSegmentJobs completions (by the
// server's finished stamps), so a transient stall moves one segment only.
// Jobs that did not complete are left out; they already count as failed.
func segmentRate(start time.Time, jobs []*jobResult) float64 {
	var ends []time.Time
	for _, j := range jobs {
		if !j.refused && j.err == nil {
			ends = append(ends, j.finished)
		}
	}
	if len(ends) == 0 {
		return 0
	}
	sort.Slice(ends, func(a, b int) bool { return ends[a].Before(ends[b]) })
	var rates []float64
	prev := start
	for i := closedSegmentJobs - 1; i < len(ends); i += closedSegmentJobs {
		rates = append(rates, closedSegmentJobs/ends[i].Sub(prev).Seconds())
		prev = ends[i]
	}
	if len(rates) == 0 {
		return float64(len(ends)) / ends[len(ends)-1].Sub(start).Seconds()
	}
	return median(rates)
}

// refVerdict is the in-process detector's answer for one URL.
type refVerdict struct {
	malicious bool
	err       string
}

// fetchRecord fetches u the way the scan service does (normalized URL,
// browser user agent, first attempt) and shapes the result as the crawl
// record the detector inspects.
func fetchRecord(c *httpsim.Client, u string) (crawler.Record, error) {
	norm, err := urlutil.Normalize(u)
	if err != nil {
		return crawler.Record{}, err
	}
	res, err := c.Do(norm, crawler.BrowserUA, "", 1)
	if err != nil {
		return crawler.Record{}, err
	}
	return crawler.Record{EntryURL: norm, FinalURL: res.FinalURL, Redirects: res.Redirects(),
		Status: res.Final.StatusCode, ContentType: res.Final.ContentType, Body: res.Final.Body, Attempts: 1}, nil
}

// checkScanJobs counts every job as one operation and fails it unless it
// completed with one fetch-error-free result per URL whose verdict
// matches the detector run directly on the same seed's universe, outside
// the scan service's cache, job queue and result encoding. It also notes
// the digest of the (URL, malicious) pairs, which must be identical
// across runs of one seed.
func checkScanJobs(o *outcome, seed uint64, jobs []*jobResult) {
	got := map[string]bool{}
	var answered []*jobResult
	for _, j := range jobs {
		o.attempted++
		switch {
		case j.refused:
			o.fail("job refused by the server")
		case j.err != nil:
			o.fail("job: %v", j.err)
		case len(j.verdicts) != len(j.urls):
			o.fail("job returned %d results for %d URLs", len(j.verdicts), len(j.urls))
		default:
			answered = append(answered, j)
			for k, r := range j.verdicts {
				got[r.URL] = r.Malicious
				if r.URL != j.urls[k] || r.Error != "" {
					o.fail("result %d of a job: url %q want %q, error %q", k, r.URL, j.urls[k], r.Error)
					answered = answered[:len(answered)-1]
					break
				}
			}
		}
	}
	st, err := scanUniverse(seed)
	if err != nil {
		o.fail("reference universe: %v", err)
		return
	}
	client := crawler.NewClient(st.Universe.Internet)
	urls := make([]string, 0, len(got))
	for u := range got {
		urls = append(urls, u)
	}
	sort.Strings(urls)
	h := sha256.New()
	want := make(map[string]refVerdict, len(urls))
	for _, u := range urls {
		if rec, err := fetchRecord(client, u); err != nil {
			want[u] = refVerdict{err: err.Error()}
		} else {
			want[u] = refVerdict{malicious: st.Detector.Inspect(rec).Malicious}
		}
		fmt.Fprintf(h, "%s\t%v\n", u, got[u])
	}
	for _, j := range answered {
		for _, r := range j.verdicts {
			if w := want[r.URL]; w.err != "" || w.malicious != r.Malicious {
				o.fail("%s: server says malicious=%v, in-process detector %v (error %q)", r.URL, r.Malicious, w.malicious, w.err)
				break
			}
		}
	}
	o.notes = append(o.notes, fmt.Sprintf("digest verdicts_sha256=%x urls=%d", h.Sum(nil), len(urls)))
}

// traceScan is the in-process per-layer pass for scan-api: every
// distinct URL the load submitted, scanned once by serve.Scanner without
// a cache over a timed transport, then the scanner calibration on the
// fetched pages. Fills the layer metrics that apply here.
func traceScan(seed uint64, jobs []*jobResult, v map[string]float64) error {
	st, err := scanUniverse(seed)
	if err != nil {
		return err
	}
	rt := &timedTransport{inner: st.Universe.Internet, timersOn: true}
	st.Detector.Multi.Fetcher = rt
	st.Detector.Heur.ResourceFetcher = rt
	sc := serve.NewScanner(rt, st.Detector, nil, nil)
	seen := map[string]bool{}
	var urls []string
	for _, j := range jobs {
		for _, u := range j.urls {
			if !seen[u] {
				seen[u] = true
				urls = append(urls, u)
			}
		}
	}
	var scan time.Duration
	for _, u := range urls {
		t := time.Now()
		if r := sc.Scan(u); r.Error != "" {
			return fmt.Errorf("reference scan %s: %s", u, r.Error)
		}
		scan += time.Since(t)
	}
	render, requests := rt.busy, rt.requests
	h, m, _, _ := st.Universe.DrainRenderCounters()

	client := crawler.NewClient(rt)
	var sample []crawler.Record
	for _, u := range urls {
		if len(sample) == sampleLimit {
			break
		}
		rec, err := fetchRecord(client, u)
		if err != nil {
			return err
		}
		sample = append(sample, rec)
	}
	cal := calibrate(st.Detector, rt, sample)

	n := float64(len(urls))
	v["web.render_us_per_request"] = us(render) / float64(requests)
	v["web.render_hit_ratio"] = ratio(h, m)
	v["httpsim.requests_per_record"] = float64(requests) / n
	v["core.detect_us_per_inspect"] = us(scan-render) / n
	v["scanner.multi_us_per_scan"] = cal.multiUS
	v["scanner.heuristic_us_per_scan"] = cal.heurUS
	v["blacklist.match_us_per_lookup"] = cal.matchUS
	return nil
}
