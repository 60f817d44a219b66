package web

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"testing"

	"repro/internal/httpsim"
	"repro/internal/simrand"
)

const scannerUA = "SlumScanner/1.0 (compatible; bot)"

// scale20Config is the universe a scale-20 study builds (core.RunStudy
// sizes the pools from Table II and adds slack: 850 benign, 146
// malicious).
func scale20Config(seed uint64) Config {
	cfg := DefaultConfig()
	cfg.Seed = seed
	cfg.BenignSites = 850
	cfg.MaliciousSites = 146
	return cfg
}

// renderDigest hashes every response the universe's sites serve: each
// page of each site (plus its brochure), each redirector's landing page
// and the SWF CDN's movie, once for a browser and once for a scanner bot,
// so both cloaking variants count.
func renderDigest(t *testing.T, u *Universe) string {
	t.Helper()
	h := sha256.New()
	for _, s := range u.Sites {
		paths := s.Pages
		if s.HasBrochure {
			paths = append(paths[:len(paths):len(paths)], "/brochure.pdf")
		}
		for _, p := range paths {
			digestURL(t, h, u, "http://"+s.Host+p)
		}
		if s.Kind == Redirector {
			digestURL(t, h, u, "http://"+landingHostFor(s)+"/offer")
		}
	}
	digestURL(t, h, u, "http://static.yupfiles-sim.net/swf/AdFlash42.swf")
	return hex.EncodeToString(h.Sum(nil))
}

func digestURL(t *testing.T, h hash.Hash, u *Universe, url string) {
	t.Helper()
	for _, ua := range []string{browserUA, scannerUA} {
		resp, err := u.Internet.RoundTrip(&httpsim.Request{URL: url, UserAgent: ua})
		if err != nil {
			t.Fatalf("%s [%s]: %v", url, ua, err)
		}
		fmt.Fprintf(h, "%s|%s|%d|%s|%s|%d\n", url, ua, resp.StatusCode, resp.ContentType, resp.Location, len(resp.Body))
		h.Write(resp.Body)
	}
}

// TestRenderDigest pins the bytes of the rendered world. The constants
// were computed before the renderers moved to pooled append buffers and
// simrand to its own math/rand replica; both changes had to leave every
// byte alone. A deliberate change to a renderer or to the seeded stream
// changes these digests, and with them every golden.
func TestRenderDigest(t *testing.T) {
	for _, tc := range []struct {
		seed uint64
		want string
	}{
		{1, "b37c1bc1df85cd2e326add02263906dfdb0d1a43e454dea5d2b326b33ac6d69f"},
		{7, "a1e7aacfb7e6c0a31308ccf1f230988f521c2d82bc237dd3dc87f4e0691deee2"},
	} {
		u := Generate(scale20Config(tc.seed))
		if got := renderDigest(t, u); got != tc.want {
			t.Errorf("seed %d: render digest %s, want %s", tc.seed, got, tc.want)
		}
		// A second pass serves every page from the render cache and must
		// hash the same.
		if got := renderDigest(t, u); got != tc.want {
			t.Errorf("seed %d: cached render digest %s, want %s", tc.seed, got, tc.want)
		}
	}
}

// TestRenderMissAllocs: a benign render miss reseeds a pooled substream
// and assembles the page in a pooled buffer, so it allocates only the
// body and the response.
func TestRenderMissAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	u := Generate(smallConfig())
	rng := simrand.New(u.cfg.Seed)
	var s *Site
	for _, c := range u.Sites {
		if c.Kind == Benign && c.HasAnalytics && len(c.Pages) > 1 {
			s = c
			break
		}
	}
	if s == nil {
		t.Fatal("no benign site with analytics and several pages")
	}
	allocs := testing.AllocsPerRun(200, func() {
		u.renderPage(s, s.Pages[1], false, rng, renderCtx{}, nil)
	})
	if allocs > 2 {
		t.Fatalf("benign render miss: %.1f allocs, want <= 2 (body and response)", allocs)
	}
}

// BenchmarkRenderMiss renders every page of a small universe, browser and
// bot variants, without the page cache: the cost of a miss.
func BenchmarkRenderMiss(b *testing.B) {
	u := Generate(smallConfig())
	rng := simrand.New(u.cfg.Seed)
	ctx := renderCtx{payloadHost: "t.qservz-sim.com", adHost: "visadd-sim.com",
		dropHost: "yupfiles-sim.net", swfHost: "static.yupfiles-sim.net"}
	bridges := u.bridgeHosts()
	type page struct {
		s    *Site
		path string
	}
	var pages []page
	for _, s := range u.Sites {
		for _, p := range s.Pages {
			pages = append(pages, page{s, p})
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pages[i%len(pages)]
		renderSink = u.renderPage(p.s, p.path, i&1 == 1 && p.s.Cloaked, rng, ctx, bridges)
	}
}

var renderSink *httpsim.Response

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool
