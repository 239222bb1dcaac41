// Command icrowd-router fronts a fleet of icrowd-server shards with a
// consistent-hash ring keyed on worker ID. It speaks the same HTTP API as
// a single server, so clients point at the router unchanged: writes
// (/assign, /submit, /inactive) are proxied to the shard owning the
// request's worker, reads (/status, /results, /v1/healthz, /v1/readyz,
// /v1/metrics, /v1/projects) fan out and merge across every live shard.
//
// Each shard keeps its own event log and crash-recovers independently; a
// down shard takes only its key range out of service (clients get a typed
// 503 shard_unavailable with Retry-After) and is re-admitted automatically
// once its health probe answers again.
//
// Usage:
//
//	icrowd-server -addr :9001 -data-dir shard0 &
//	icrowd-server -addr :9002 -data-dir shard1 &
//	icrowd-server -addr :9003 -data-dir shard2 &
//	icrowd-router -addr :8080 \
//	    -shards http://localhost:9001,http://localhost:9002,http://localhost:9003
//
//	curl 'http://localhost:8080/assign?workerId=alice'   # proxied to alice's shard
//	curl http://localhost:8080/v1/status                 # merged across the fleet
//	curl http://localhost:8080/v1/shards                 # fleet health as the router sees it
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"icrowd/internal/obsv"
	"icrowd/internal/shard"
)

func main() {
	var (
		addr          = flag.String("addr", ":8080", "listen address")
		shards        = flag.String("shards", "", "comma-separated shard base URLs (required), e.g. http://host:9001,http://host:9002")
		replicas      = flag.Int("replicas", 0, "virtual nodes per shard on the hash ring (0 = default)")
		probeInterval = flag.Duration("probe-interval", 2*time.Second, "how often to health-probe each shard (also sizes the Retry-After hint on shard_unavailable)")
		probeTimeout  = flag.Duration("probe-timeout", 2*time.Second, "per-probe timeout")
		proxyTimeout  = flag.Duration("proxy-timeout", 30*time.Second, "per-request timeout for proxied and fanned-out calls")
		logFormat     = flag.String("log-format", "text", "log output format: text or json")
		logLevel      = flag.String("log-level", "info", "minimum log level: debug, info, warn, error")
	)
	flag.Parse()

	logger, err := obsv.NewLoggerFromFlags(*logFormat, *logLevel, obsv.Default())
	if err != nil {
		fail(err)
	}
	slog.SetDefault(logger)

	var urls []string
	for _, s := range strings.Split(*shards, ",") {
		if s = strings.TrimSpace(s); s != "" {
			urls = append(urls, s)
		}
	}
	if len(urls) == 0 {
		fail(errors.New("-shards is required (comma-separated shard base URLs)"))
	}

	rt, err := shard.New(shard.Config{
		Shards:        urls,
		Replicas:      *replicas,
		ProbeInterval: *probeInterval,
		ProbeTimeout:  *probeTimeout,
		Client:        &http.Client{Timeout: *proxyTimeout},
		Logger:        logger,
		Registry:      obsv.Default(),
	})
	if err != nil {
		fail(err)
	}
	stopProbes := rt.Start()
	defer stopProbes()
	stopRuntime := obsv.StartRuntime(obsv.Default(), 0)
	defer stopRuntime()

	logger.Info("router listening",
		slog.String("addr", *addr),
		slog.Int("shards", len(urls)),
		slog.String("fleet", strings.Join(urls, ",")))

	// Serve until SIGINT/SIGTERM, then drain in-flight proxies.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	httpSrv := &http.Server{Addr: *addr, Handler: rt.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fail(err)
		}
	case <-ctx.Done():
		logger.Info("shutdown signal received; draining")
		shutCtx, shutCancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer shutCancel()
		if err := httpSrv.Shutdown(shutCtx); err != nil {
			logger.Error("shutdown did not drain cleanly", slog.String("error", err.Error()))
		}
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "icrowd-router:", err)
	os.Exit(1)
}
