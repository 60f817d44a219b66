// Command slumserve mounts the whole simulated universe — exchanges,
// member sites, malware infrastructure, shorteners — on a real HTTP
// listener with Host-header routing, so a human can poke it with curl or
// a browser:
//
//	slumserve -addr 127.0.0.1:8080
//	curl -H 'Host: 10khits.sim'  http://127.0.0.1:8080/
//	curl -H 'Host: goo.gl.sim'   http://127.0.0.1:8080/b
//
// It prints a directory of interesting hosts (one malicious site per
// category) before serving.
//
// On top of the virtual web it exposes a scan service: POST a batch of
// URLs to /api/v1/scan (optionally with an X-Tenant header) and poll
// GET /api/v1/jobs/{id} for verdicts. The service runs the same detector
// stack as the offline study behind a bounded job queue (full queue →
// 429 + Retry-After), per-tenant token-bucket rate limits, and a sharded
// LRU verdict cache:
//
//	curl -XPOST -H 'X-Tenant: acme' -d '{"urls":["http://mal-js-0000.sim/"]}' \
//	    http://127.0.0.1:8080/api/v1/scan
//	curl http://127.0.0.1:8080/api/v1/jobs/job-1
//	curl http://127.0.0.1:8080/api/v1/stats
//
// The server also exposes a debug surface on the same listener:
// /debug/metrics serves the live observability registry (text, or JSON
// with ?format=json) and /debug/pprof/ serves the standard Go profiler
// endpoints. Routing is strict: /api and /debug are service-owned path
// segments (unknown paths under them are 404s), and only everything else
// is Host-routed into the simulated internet — no simulated site can
// shadow a service path and no typo'd service path leaks into the
// universe. On SIGINT/SIGTERM the listener stops accepting, admitted
// scan jobs drain to completion, and then the process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/httpsim"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/web"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "slumserve:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("slumserve", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address")
	seed := fs.Uint64("seed", 1, "experiment seed")
	scale := fs.Int("scale", 50, "universe scale divisor")
	faults := fs.String("faults", "", "fault profile: "+strings.Join(httpsim.ProfileNames(), ", "))
	queueDepth := fs.Int("queue-depth", 64, "scan job queue depth (full queue sheds with 429)")
	workers := fs.Int("scan-workers", 0, "scan worker goroutines (0 = GOMAXPROCS)")
	tenantRPS := fs.Float64("tenant-rps", 0, "per-tenant scan submissions per second (0 = unlimited)")
	tenantBurst := fs.Int("tenant-burst", 0, "per-tenant burst size (0 = derived from -tenant-rps)")
	cacheCap := fs.Int("cache-capacity", 4096, "verdict cache entries across all shards")
	cacheTTL := fs.Duration("cache-ttl", 15*time.Minute, "verdict cache TTL (0 = never expire)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	profile, ok := httpsim.ProfileByName(*faults)
	if !ok {
		return fmt.Errorf("unknown fault profile %q (want one of: %s)",
			*faults, strings.Join(httpsim.ProfileNames(), ", "))
	}

	// The signal handler goes in before anything slow: a SIGINT/SIGTERM
	// during set-up must end the process cleanly (exit 0, no listener),
	// not kill it by the default action.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)

	cfg := core.DefaultStudyConfig()
	cfg.Seed = *seed
	cfg.Scale = *scale
	cfg.DriveShortenerTraffic = false
	fmt.Printf("building universe (seed %d, scale %d)\n", cfg.Seed, cfg.Scale)
	st, err := core.NewStudy(cfg)
	if err != nil {
		return err
	}

	fmt.Printf("universe: %d sites, %d hosts registered\n",
		len(st.Universe.Sites), st.Universe.Internet.NumHosts())
	fmt.Println("\nexchanges:")
	for _, ex := range st.Exchanges {
		fmt.Printf("  curl -H 'Host: %s' http://%s/    # %s (%s)\n",
			ex.Config().Host, *addr, ex.Config().Name, ex.Config().Kind)
	}
	fmt.Println("\none malicious site per category:")
	for _, kind := range []web.MaliceKind{
		web.Blacklisted, web.MaliciousJS, web.MaliciousFlash,
		web.Redirector, web.ShortenedMalicious, web.Miscellaneous,
	} {
		sites := st.Universe.SitesOfKind(kind)
		if len(sites) == 0 {
			continue
		}
		fmt.Printf("  %-20s %s\n", kind.String()+":", sites[0].EntryURL)
	}
	registry := obs.NewRegistry()
	tracer := obs.NewTracer()

	// Fault injection wraps the simulated internet before the HTTP
	// adapter, so real clients feel the same failures the crawler does:
	// aborted connections for resets/timeouts, short bodies under a full
	// Content-Length for truncation, genuine 503s and 302 loops.
	var transport httpsim.RoundTripper = st.Universe.Internet
	if !profile.Zero() {
		fi := httpsim.NewFaultInjector(transport, profile, *seed)
		fi.Metrics = registry
		transport = fi
		fmt.Printf("\nfault injection active: profile %q\n", profile.Name)
	}

	// The scan service shares the (possibly fault-injected) transport and
	// the study's detector, so API verdicts match what an offline crawl of
	// the same universe would report.
	cache := core.NewShardedVerdictCache(core.ShardedCacheConfig{
		Capacity: *cacheCap,
		TTL:      *cacheTTL,
		Metrics:  registry,
	})
	scanner := serve.NewScanner(transport, st.Detector, cache, registry)
	scanSrv := serve.NewServer(scanner, serve.Config{
		QueueDepth:  *queueDepth,
		Workers:     *workers,
		TenantRPS:   *tenantRPS,
		TenantBurst: *tenantBurst,
		Metrics:     registry,
	})

	select {
	case sig := <-sigc:
		fmt.Printf("%s during set-up: exiting before serving\n", sig)
		scanSrv.Close()
		return nil
	default:
	}

	fmt.Printf("\nlistening on %s (route with the Host header)\n", *addr)
	fmt.Printf("scan API: POST http://%s/api/v1/scan   GET http://%s/api/v1/jobs/{id}\n", *addr, *addr)
	fmt.Printf("debug endpoints: http://%s/debug/metrics  http://%s/debug/pprof/\n", *addr, *addr)

	srv := &http.Server{
		Addr:              *addr,
		Handler:           serveHandler(serve.APIHandler(scanSrv), transport, registry, tracer),
		ReadHeaderTimeout: 5 * time.Second,
	}

	// Graceful drain: on SIGINT/SIGTERM stop accepting, let in-flight HTTP
	// requests and every admitted scan job finish, then exit.
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	select {
	case err := <-errc:
		scanSrv.Close()
		return err
	case sig := <-sigc:
		fmt.Printf("\n%s: draining (in-flight scan jobs run to completion)\n", sig)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		shutdownErr := srv.Shutdown(ctx)
		scanSrv.Close()
		if shutdownErr != nil && !errors.Is(shutdownErr, context.DeadlineExceeded) {
			return shutdownErr
		}
		return nil
	}
}

// pathUnder reports whether path is the segment itself or nested below it
// ("/api" or "/api/..." for root "/api") — prefix matching that cannot be
// fooled by "/apifoo".
func pathUnder(path, root string) bool {
	return path == root || strings.HasPrefix(path, root+"/")
}

// serveHandler assembles the server's routing. The dispatch is explicit
// and segment-anchored so the three surfaces cannot shadow each other:
//
//   - /api, /api/...     → the scan service (unknown endpoints are JSON 404s)
//   - /debug, /debug/... → metrics + pprof (unknown debug paths are 404s)
//   - everything else    → Host-routed into the simulated universe
//
// The previous mux registered the universe at "/", which meant any /debug
// path that missed an exact pattern (e.g. /debug/metricsX) fell through
// to the universe handler and was answered by the virtual internet — a
// confusing 502 instead of a 404. Service-owned path segments now never
// reach the universe, and the universe never loses a path outside them.
func serveHandler(api http.Handler, transport httpsim.RoundTripper,
	registry *obs.Registry, tracer *obs.Tracer) http.Handler {
	debug := http.NewServeMux()
	debug.Handle("/debug/metrics", obs.Handler(registry, tracer))
	debug.HandleFunc("/debug/pprof/", pprof.Index)
	debug.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	debug.HandleFunc("/debug/pprof/profile", pprof.Profile)
	debug.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	debug.HandleFunc("/debug/pprof/trace", pprof.Trace)
	// No "/" fallback: a /debug path that matches nothing above is a 404
	// from the mux, never a universe lookup.

	universe := httpsim.AsHTTPHandler(transport)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case pathUnder(r.URL.Path, "/api"):
			api.ServeHTTP(w, r)
		case pathUnder(r.URL.Path, "/debug"):
			debug.ServeHTTP(w, r)
		default:
			registry.Counter("serve.requests").Inc()
			universe.ServeHTTP(w, r)
		}
	})
}
