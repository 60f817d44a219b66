package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync"
	"time"
)

// clock is the scheduler's time source; tests substitute a fake.
type clock interface {
	Now() time.Time
	SleepUntil(t time.Time)
}

type realClock struct{}

func (realClock) Now() time.Time { return time.Now() }
func (realClock) SleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

// jobResult is one scan job as the client saw it. Latency is charged from
// due, the time the open-loop schedule wanted the job sent, so a stall
// in the server or the generator is billed to every job it delayed.
type jobResult struct {
	due, sent                    time.Time
	submitted, started, finished time.Time // server stamps
	urls                         []string
	verdicts                     []urlVerdict
	polls                        int
	refused                      bool // 429 or 503: counts as missing every latency limit
	err                          error
}

// latencyMs is due→finished, or +Inf for a job that was refused or lost.
func (j *jobResult) latencyMs() float64 {
	if j.refused || j.err != nil || j.finished.IsZero() {
		return math.Inf(1)
	}
	return float64(j.finished.Sub(j.due).Nanoseconds()) / 1e6
}

// lateMs is how long after its due time the generator sent the job.
func (j *jobResult) lateMs() float64 {
	return float64(j.sent.Sub(j.due).Nanoseconds()) / 1e6
}

// openLoop sends n jobs on a fixed schedule, job i due at start+i/rate,
// whether or not earlier jobs have finished. slots bounds the jobs in
// flight (the client's connections); when every slot is busy the next
// job waits for one and goes out late, and its latency still counts
// from its due time. spawn runs a job body (a goroutine in production).
func openLoop(clk clock, start time.Time, rate float64, jobs []*jobResult, slots chan struct{},
	spawn func(func()), run func(*jobResult)) {
	var wg sync.WaitGroup
	for i, j := range jobs {
		j.due = start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		clk.SleepUntil(j.due)
		slots <- struct{}{}
		j.sent = clk.Now()
		wg.Add(1)
		spawn(func() {
			defer wg.Done()
			defer func() { <-slots }()
			run(j)
		})
	}
	wg.Wait()
}

// urlVerdict is the part of a scan result the checks read.
type urlVerdict struct {
	URL       string `json:"url"`
	Malicious bool   `json:"malicious"`
	Error     string `json:"error"`
}

// jobView is the GET /api/v1/jobs/{id} payload.
type jobView struct {
	State     string       `json:"state"`
	Submitted time.Time    `json:"submitted"`
	Started   time.Time    `json:"started"`
	Finished  time.Time    `json:"finished"`
	Results   []urlVerdict `json:"results"`
}

// apiClient speaks slumserve's scan API over at most conns keep-alive
// connections.
type apiClient struct {
	base string
	hc   *http.Client
}

func newAPIClient(base string, conns int) *apiClient {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}
	return &apiClient{base: base, hc: &http.Client{Transport: tr, Timeout: 30 * time.Second}}
}

func (c *apiClient) close() { c.hc.CloseIdleConnections() }

func (c *apiClient) get(path string, v any) (int, error) {
	resp, err := c.hc.Get(c.base + path)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode == http.StatusOK && v != nil {
		if err := json.Unmarshal(body, v); err != nil {
			return resp.StatusCode, fmt.Errorf("GET %s: %w", path, err)
		}
	}
	return resp.StatusCode, nil
}

// runJob submits one job and polls it to completion, gap apart. Latency
// is read from the server's finished stamp, so the gap costs polls and
// client time, not accuracy.
func (c *apiClient) runJob(j *jobResult, gap time.Duration) {
	body, _ := json.Marshal(map[string][]string{"urls": j.urls})
	resp, err := c.hc.Post(c.base+"/api/v1/scan", "application/json", bytes.NewReader(body))
	if err != nil {
		j.err = err
		return
	}
	var sub struct {
		ID string `json:"id"`
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	switch {
	case err != nil:
		j.err = err
		return
	case resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable:
		j.refused = true
		return
	case resp.StatusCode != http.StatusAccepted:
		j.err = fmt.Errorf("submit: HTTP %d: %s", resp.StatusCode, raw)
		return
	}
	if err := json.Unmarshal(raw, &sub); err != nil {
		j.err = fmt.Errorf("submit: %w", err)
		return
	}
	for {
		time.Sleep(gap)
		var v jobView
		code, err := c.get("/api/v1/jobs/"+sub.ID, &v)
		j.polls++
		if err != nil || code != http.StatusOK {
			j.err = fmt.Errorf("poll %s: HTTP %d: %v", sub.ID, code, err)
			return
		}
		if v.State == "done" {
			j.submitted, j.started, j.finished, j.verdicts = v.Submitted, v.Started, v.Finished, v.Results
			return
		}
	}
}
