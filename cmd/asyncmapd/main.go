// Command asyncmapd serves the hazard-aware technology mapper over HTTP.
//
// It preloads and hazard-annotates the requested libraries once at
// startup, then maps BLIF or eqn designs POSTed to /map (one design) or
// /map/batch (several, with per-design error isolation). POST /synth
// runs the full spec-to-silicon pipeline over a burst-mode specification:
// hazard-free synthesis, technology mapping, and transition-by-transition
// simulation of the mapped netlist into a machine-checkable
// hazard-freedom certificate (see docs/SYNTHESIS.md). Every request
// runs under a deadline threaded through the covering DP as a
// context.Context, so slow designs time out promptly and disconnected
// clients stop burning CPU. Admission control is a fixed worker pool with
// a bounded queue; excess load is rejected with 503 rather than piling up.
//
//	asyncmapd -addr :8931 -libs LSI9K,CMOS3 -timeout 30s
//	asyncmapd -store cones.mapstore   # persist cone solutions across restarts
//	asyncmapd -fleet http://w1:8931,http://w2:8931   # fleet coordinator
//
// With -fleet, the server coordinates a mapping fleet: each batch design
// is one /map job on one of the listed workers — plain asyncmapd
// processes — with work stealing, bounded retries, hedged duplicates for
// stragglers and local fallback, and the results are byte-identical to a
// single-process run. See the "Fleet mode" section of docs/SERVING.md.
//
// With -store, per-cone covering solutions persist in a crash-safe
// content-addressed store file: a restarted (or concurrently running)
// server replays them and answers byte-identically with a warm hit rate
// from the first request. See docs/CACHING.md.
//
// Endpoints: POST /map, POST /map/batch, POST /synth, GET /healthz (readiness
// detail), GET /statusz (rolling per-stage latency, in-flight requests),
// GET /metrics (Prometheus text with ?format=prom or Accept: text/plain;
// ?format=text for a flat dump; JSON otherwise), and /debug/pprof/ with
// -pprof. Every log line — startup, access, panic, drain — is one
// structured JSON object on stderr. See docs/SERVING.md for the
// request/response schema.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"gfmap/internal/library"
	"gfmap/internal/mapstore"
	"gfmap/internal/obs"
	"gfmap/internal/server"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:8931", "listen address")
		libs     = flag.String("libs", "", "comma-separated libraries to preload (default: all built-ins)")
		maxConc  = flag.Int("maxconcurrent", 4, "mapping requests running at once")
		queue    = flag.Int("queue", 8, "admitted requests allowed to wait beyond -maxconcurrent")
		timeout  = flag.Duration("timeout", 30*time.Second, "default per-request mapping deadline")
		maxTO    = flag.Duration("maxtimeout", 5*time.Minute, "cap on client-requested deadlines")
		maxBody  = flag.Int64("maxbody", 8<<20, "request body size limit in bytes")
		workers  = flag.Int("workers", 0, "DP worker goroutines per request (0 = one per CPU)")
		pprofOn  = flag.Bool("pprof", false, "serve /debug/pprof/")
		drain    = flag.Duration("drain", 30*time.Second, "graceful-shutdown drain budget")
		storeTo  = flag.String("store", "", "path of the persistent cone-solution store (empty = disabled); created if missing, shared across restarts")
		storeMem = flag.Int("store-mem", 0, "in-memory entries the store may hold (0 = default)")

		fleetURLs     = flag.String("fleet", "", "comma-separated worker base URLs; this server becomes a fleet coordinator dispatching /map/batch across them (workers are plain asyncmapd)")
		fleetHedge    = flag.Duration("fleet-hedge", 0, "duplicate a straggling fleet job on another worker after this long (0 = 2s default, negative disables hedging)")
		fleetAttempts = flag.Int("fleet-attempts", 0, "remote attempts per fleet job before local fallback (0 = 3)")
		fleetPerWork  = flag.Int("fleet-perworker", 0, "concurrent fleet jobs per worker (0 = 4)")
	)
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"usage: asyncmapd [flags]\n\nbuilt-in libraries: %s\n\nflags:\n",
			strings.Join(library.BuiltinNames, ", "))
		flag.PrintDefaults()
	}
	flag.Parse()

	logger := obs.NewLogger(os.Stderr)
	fatal := func(msg string, err error) {
		logger.Error(msg).Str("error", err.Error()).Send()
		os.Exit(1)
	}

	var store *mapstore.Store
	if *storeTo != "" {
		var err error
		store, err = mapstore.Open(*storeTo, mapstore.Options{MaxMemEntries: *storeMem})
		if err != nil {
			fatal("open store", err)
		}
		defer store.Close()
	}

	cfg := server.Config{
		MaxConcurrent:  *maxConc,
		MaxQueue:       *queue,
		DefaultTimeout: *timeout,
		MaxTimeout:     *maxTO,
		MaxBodyBytes:   *maxBody,
		MapWorkers:     *workers,
		EnablePprof:    *pprofOn,
		Store:          store,
	}
	if *libs != "" {
		for _, name := range strings.Split(*libs, ",") {
			if name = strings.TrimSpace(name); name != "" {
				cfg.Libraries = append(cfg.Libraries, name)
			}
		}
	}
	if *fleetURLs != "" {
		for _, u := range strings.Split(*fleetURLs, ",") {
			if u = strings.TrimSpace(u); u != "" {
				cfg.FleetWorkers = append(cfg.FleetWorkers, u)
			}
		}
		cfg.FleetHedgeAfter = *fleetHedge
		cfg.FleetMaxAttempts = *fleetAttempts
		cfg.FleetPerWorker = *fleetPerWork
	}
	srv, err := server.New(cfg)
	if err != nil {
		fatal("startup", err)
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	loaded := cfg.Libraries
	if len(loaded) == 0 {
		loaded = library.BuiltinNames
	}
	errc := make(chan error, 1)
	go func() {
		logger.Info("serving").
			Str("addr", *addr).
			Str("libraries", strings.Join(loaded, ",")).
			Bool("store", store != nil).
			Int("max_concurrent", int64(*maxConc)).
			Int("queue", int64(*queue)).
			Int("fleet_workers", int64(len(cfg.FleetWorkers))).
			Send()
		errc <- httpSrv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		fatal("serve", err)
	case <-ctx.Done():
	}
	stop()
	logger.Info("shutting down").Str("drain_budget", drain.String()).Send()
	// Shutdown stops accepting and waits for in-flight requests; their
	// mapping contexts are children of the request contexts, which the
	// server cancels when the drain budget runs out.
	shCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := httpSrv.Shutdown(shCtx); err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			logger.Warn("drain budget exhausted, aborting in-flight requests").Send()
		}
		httpSrv.Close()
	}
	logger.Info("stopped").Send()
}
