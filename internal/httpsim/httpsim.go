// Package httpsim provides the simulated internet the measurement runs
// against: an in-memory registry of virtual hosts, a redirect-following
// client that records full hop chains, and an adapter that mounts the same
// virtual universe onto a real net/http server for interactive use.
//
// The paper's crawler logged live HTTP/HTTPS traffic through Firebug and
// observed 302 chains up to seven hops deep ending in meta refreshes
// (Figure 4, Figure 5). This package reproduces that transport layer
// deterministically: virtual servers decide their response from the full
// request (method, UA, referrer — which is what makes server-side cloaking
// expressible), and the client walks redirects exactly as a browser would,
// capturing every hop for the HAR log.
package httpsim

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/match"
	"repro/internal/urlutil"
)

// Request is a simulated HTTP request.
type Request struct {
	// Method is "GET" unless set.
	Method string
	// URL is the absolute target URL.
	URL string
	// UserAgent and Referrer are the headers cloaking dispatches on.
	UserAgent string
	Referrer  string
	// Header holds any additional headers.
	Header map[string]string
	// Attempt is the 1-based fetch attempt this request belongs to.
	// Retrying callers bump it so the fault-injection layer re-rolls its
	// (seeded, stateless) decision; zero is treated as attempt 1.
	Attempt int
}

func (r *Request) method() string {
	if r.Method == "" {
		return "GET"
	}
	return r.Method
}

// Response is a simulated HTTP response (one hop).
type Response struct {
	StatusCode  int
	ContentType string
	// Location is the redirect target for 3xx responses.
	Location string
	Body     []byte
	Header   map[string]string
	// Latency is the simulated server latency for HAR timing entries. It
	// is derived deterministically from the URL; no wall-clock sleeping
	// happens.
	Latency time.Duration
	// DeclaredLength, when non-zero, is the body length the server
	// announced (the Content-Length analog). A body shorter than the
	// declaration means the transfer was cut off mid-stream; the Client
	// surfaces that as ErrTruncated instead of handing partial content to
	// the analysis pipeline.
	DeclaredLength int
	// MetaRefresh / MetaRefreshKnown let a server that renders a body once
	// and shares it across many responses (the web package's page cache)
	// precompute the meta-refresh extraction: when MetaRefreshKnown is
	// true, MetaRefresh holds exactly what Client.MetaRefreshTarget would
	// return for Body, and the client skips re-scanning an unchanged body
	// on every fetch. Anything that alters Body must clear the flag.
	MetaRefresh      string
	MetaRefreshKnown bool
}

// Truncated reports whether the body arrived shorter than declared.
func (r *Response) Truncated() bool {
	return r.DeclaredLength > 0 && len(r.Body) < r.DeclaredLength
}

// Handler produces a Response for a Request. Handlers see the full request
// so they can cloak on User-Agent or Referrer.
type Handler func(req *Request) *Response

// Common errors.
var (
	ErrNoHost           = errors.New("httpsim: no such host")
	ErrTooManyRedirects = errors.New("httpsim: too many redirects")
	ErrRedirectLoop     = errors.New("httpsim: redirect loop")
	ErrBadURL           = errors.New("httpsim: bad URL")
)

// Internet is the virtual network: a host registry. It is safe for
// concurrent use.
type Internet struct {
	mu    sync.RWMutex
	hosts map[string]Handler
}

// NewInternet returns an empty virtual network.
func NewInternet() *Internet {
	return &Internet{hosts: make(map[string]Handler)}
}

// Register binds a handler to a hostname (exact, lowercase match; "www."
// prefixes are registered separately if wanted). Re-registering replaces
// the previous handler.
func (in *Internet) Register(host string, h Handler) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.hosts[strings.ToLower(host)] = h
}

// Hosts returns the sorted list of registered hostnames.
func (in *Internet) Hosts() []string {
	in.mu.RLock()
	defer in.mu.RUnlock()
	out := make([]string, 0, len(in.hosts))
	for h := range in.hosts {
		out = append(out, h)
	}
	sort.Strings(out)
	return out
}

// NumHosts returns the number of registered hosts.
func (in *Internet) NumHosts() int {
	in.mu.RLock()
	defer in.mu.RUnlock()
	return len(in.hosts)
}

// RoundTrip performs a single request/response exchange (no redirect
// following). Unknown hosts return ErrNoHost, the NXDOMAIN analog.
func (in *Internet) RoundTrip(req *Request) (*Response, error) {
	p, err := urlutil.Parse(req.URL)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadURL, err)
	}
	in.mu.RLock()
	h, ok := in.hosts[p.Host]
	in.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoHost, p.Host)
	}
	resp := h(req)
	if resp == nil {
		resp = &Response{StatusCode: 500}
	}
	if resp.ContentType == "" && resp.StatusCode < 300 {
		resp.ContentType = "text/html"
	}
	resp.Latency = syntheticLatency(req.URL)
	return resp, nil
}

// syntheticLatency derives a stable pseudo-latency in [20ms, 500ms] from
// the URL, so HAR timings look realistic and experiments stay repeatable.
func syntheticLatency(url string) time.Duration {
	h := fnv.New32a()
	h.Write([]byte(url))
	return time.Duration(20+int(h.Sum32()%481)) * time.Millisecond
}

// Hop is one step of a redirect chain.
type Hop struct {
	URL        string
	StatusCode int
	// Kind describes how the next hop was reached: "http" for 3xx
	// Location redirects, "meta" for meta-refresh, "" for the final hop.
	Kind        string
	ContentType string
	BodySize    int
	Latency     time.Duration
}

// Result is a completed (redirect-followed) fetch.
type Result struct {
	// Chain lists every hop in order; the last entry is the final
	// response. len(Chain)-1 is the redirect count of Figure 5.
	Chain []Hop
	// Final is the last response received.
	Final *Response
	// FinalURL is the URL of the final response.
	FinalURL string
}

// Redirects returns the number of redirections taken (hops - 1).
func (r *Result) Redirects() int {
	if len(r.Chain) == 0 {
		return 0
	}
	return len(r.Chain) - 1
}

// Client follows redirect chains over a transport.
type Client struct {
	transport RoundTripper
	// MaxHops bounds total requests per fetch (initial + redirects).
	MaxHops int
	// FollowMetaRefresh makes the client honor <meta http-equiv=refresh>,
	// as a browser does; the meta extraction is injected so httpsim does
	// not depend on the HTML parser.
	FollowMetaRefresh bool
	// MetaRefreshTarget extracts the refresh target from an HTML body, or
	// "" if none. Required when FollowMetaRefresh is set.
	MetaRefreshTarget func(body []byte) string
	// Budget bounds the total virtual latency a single fetch (all hops)
	// may accumulate — the per-request deadline analog. Zero means no
	// limit. Exceeding it returns ErrBudget with the partial chain; no
	// wall-clock time is involved.
	Budget time.Duration
}

// RoundTripper is the single-exchange transport interface. *Internet
// implements it.
type RoundTripper interface {
	RoundTrip(req *Request) (*Response, error)
}

var _ RoundTripper = (*Internet)(nil)

// NewClient returns a Client over the given transport with a browser-like
// hop budget.
func NewClient(t RoundTripper) *Client {
	return &Client{transport: t, MaxHops: 12}
}

// Get fetches url with redirect following, recording the full hop chain.
// The Referrer of follow-up hops is the previous hop's URL, matching
// browser behaviour (and feeding the shortener hit-statistics referrer
// fields).
func (c *Client) Get(url, userAgent, referrer string) (*Result, error) {
	return c.Do(url, userAgent, referrer, 1)
}

// Do is Get with an explicit 1-based attempt number, threaded into every
// hop's Request so the fault-injection layer can re-roll per retry. Even
// on error the returned Result carries the hops completed so far, letting
// callers account for partial chains.
func (c *Client) Do(url, userAgent, referrer string, attempt int) (*Result, error) {
	res := &Result{}
	// Loop detection needs the set of prior hop URLs; single-hop fetches —
	// the overwhelming majority — never need the map, so allocate it only
	// once a redirect is actually followed.
	var seen map[string]bool
	first := ""
	current := url
	ref := referrer
	maxHops := c.MaxHops
	if maxHops <= 0 {
		maxHops = 12
	}
	var elapsed time.Duration
	for hop := 0; hop < maxHops; hop++ {
		norm, err := urlutil.Normalize(current)
		if err != nil {
			return res, fmt.Errorf("%w: %v", ErrBadURL, err)
		}
		if hop == 0 {
			first = norm
		} else {
			if seen == nil {
				seen = map[string]bool{first: true}
			}
			if seen[norm] {
				return res, fmt.Errorf("%w: %s", ErrRedirectLoop, norm)
			}
			seen[norm] = true
		}

		resp, err := c.transport.RoundTrip(&Request{URL: current, UserAgent: userAgent, Referrer: ref, Attempt: attempt})
		if err != nil {
			return res, err
		}
		if resp.Truncated() {
			return res, fmt.Errorf("%w: %s: got %d of %d bytes",
				ErrTruncated, norm, len(resp.Body), resp.DeclaredLength)
		}
		elapsed += resp.Latency
		if c.Budget > 0 && elapsed > c.Budget {
			return res, fmt.Errorf("%w: %v elapsed at %s (budget %v)",
				ErrBudget, elapsed, norm, c.Budget)
		}
		h := Hop{
			URL:         norm,
			StatusCode:  resp.StatusCode,
			ContentType: resp.ContentType,
			BodySize:    len(resp.Body),
			Latency:     resp.Latency,
		}

		next := ""
		switch {
		case resp.StatusCode >= 300 && resp.StatusCode < 400 && resp.Location != "":
			next = resolveRef(norm, resp.Location)
			h.Kind = "http"
		case c.FollowMetaRefresh && c.MetaRefreshTarget != nil && isHTML(resp.ContentType):
			target := resp.MetaRefresh
			if !resp.MetaRefreshKnown {
				target = c.MetaRefreshTarget(resp.Body)
			}
			if target != "" {
				next = resolveRef(norm, target)
				h.Kind = "meta"
			}
		}

		res.Chain = append(res.Chain, h)
		res.Final = resp
		res.FinalURL = norm
		if next == "" {
			return res, nil
		}
		ref = norm
		current = next
	}
	return res, ErrTooManyRedirects
}

func isHTML(contentType string) bool {
	return match.HasPrefixFold(contentType, "text/html")
}

// resolveRef resolves target against base: absolute URLs pass through,
// path-absolute targets replace the path, anything else is joined onto the
// base directory.
func resolveRef(base, target string) string {
	target = strings.TrimSpace(target)
	if target == "" {
		return base
	}
	if strings.Contains(target, "://") {
		return target
	}
	p, err := urlutil.Parse(base)
	if err != nil {
		return target
	}
	if strings.HasPrefix(target, "//") {
		return p.Scheme + ":" + target
	}
	if strings.HasPrefix(target, "/") {
		p.Path = target
		p.Query = ""
		return p.String()
	}
	dir := p.Path
	if i := strings.LastIndexByte(dir, '/'); i >= 0 {
		dir = dir[:i+1]
	} else {
		dir = "/"
	}
	p.Path = dir + target
	p.Query = ""
	return p.String()
}

// --- convenience response constructors ---

// HTML returns a 200 text/html response.
func HTML(body string) *Response {
	return &Response{StatusCode: 200, ContentType: "text/html", Body: []byte(body)}
}

// HTMLBytes returns a 200 text/html response that takes ownership of
// body: the caller must not modify it afterwards.
func HTMLBytes(body []byte) *Response {
	return &Response{StatusCode: 200, ContentType: "text/html", Body: body}
}

// Script returns a 200 JavaScript response.
func Script(body string) *Response {
	return &Response{StatusCode: 200, ContentType: "application/javascript", Body: []byte(body)}
}

// Flash returns a 200 SWF response.
func Flash(body []byte) *Response {
	return &Response{StatusCode: 200, ContentType: "application/x-shockwave-flash", Body: body}
}

// Redirect returns a 302 to location.
func Redirect(location string) *Response {
	return &Response{StatusCode: 302, Location: location, ContentType: "text/html"}
}

// MovedPermanently returns a 301 to location.
func MovedPermanently(location string) *Response {
	return &Response{StatusCode: 301, Location: location, ContentType: "text/html"}
}

// notFoundBody is shared across all 404s; response bodies are read-only
// throughout the stack (the fault injector copies the struct and truncates
// by reslicing), so sharing the bytes is safe.
var notFoundBody = []byte("<html><body>404</body></html>")

// NotFound returns a 404.
func NotFound() *Response {
	return &Response{StatusCode: 404, ContentType: "text/html", Body: notFoundBody}
}

// Binary returns a 200 with the given content type, used for executable
// payloads (application/octet-stream).
func Binary(contentType string, body []byte) *Response {
	return &Response{StatusCode: 200, ContentType: contentType, Body: body}
}
