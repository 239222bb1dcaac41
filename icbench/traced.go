package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"icrowd/internal/core"
	"icrowd/internal/experiments"
	"icrowd/internal/obsv"
	"icrowd/internal/platform"
	"icrowd/internal/ppr"
	"icrowd/internal/shard"
	"icrowd/internal/simgraph"
	"icrowd/internal/store"
	"icrowd/internal/task"
)

// The traced run replaces icrowd-server and icrowd-router with in-process
// copies wired the same way (`icbench serve`, `icbench route`), with timers
// placed around the calls into each layer's public API: Server.Handler
// and Router.Handler behind timing middleware, and every project's
// core.Strategy behind a timing wrapper. Nothing inside the program is
// changed; the per-layer numbers are served at /bench/layers.

// serverLayers is what a traced server reports. Durations are in µs.
type serverLayers struct {
	AssignSelfUs  []float64 `json:"assignSelfUs"`
	SubmitSelfUs  []float64 `json:"submitSelfUs"`
	RequestTaskUs []float64 `json:"requestTaskUs"`
	SubmitAnsUs   []float64 `json:"submitAnsUs"`
	RequestEmpty  int       `json:"requestEmpty"`
	HandlerUsSum  float64   `json:"handlerUsSum"`
	CoreUsSum     float64   `json:"coreUsSum"`
	// HandlerByTrace holds handler time per inbound trace ID, for joining
	// with the router's own timings.
	HandlerByTrace map[string]float64 `json:"handlerByTrace"`
	Redelivered    int64              `json:"redelivered"`
	Throttled      int64              `json:"throttled"`
	SchemeRuns     int64              `json:"schemeRuns"`
	SchemeMs       float64            `json:"schemeMs"`
	GraphMs        float64            `json:"graphMs"`
	PrecomputeMs   float64            `json:"precomputeMs"`
}

// routerLayers is what a traced router reports.
type routerLayers struct {
	ByTrace     map[string]float64 `json:"byTrace"` // µs per trace ID
	Unavailable int64              `json:"unavailable"`
}

// recorder collects a traced server's timings while measuring is on.
type recorder struct {
	measuring atomic.Bool
	mu        sync.Mutex
	out       serverLayers
	// open maps "project\x00worker" to the strategy time spent so far on
	// that worker's in-flight request; the server serializes requests per
	// (project, worker), so one request owns a key at a time.
	open map[string]*atomic.Int64
	// reg is the server's registry; base holds its counters at reset.
	reg  *obsv.Registry
	base serverLayers
}

// counters reads the program's own counters for the layers.
func (rc *recorder) counters() serverLayers {
	return serverLayers{
		Redelivered: counter(rc.reg, "icrowd_assign_redelivered_total"),
		Throttled:   counter(rc.reg, "icrowd_worker_throttled_total"),
		SchemeRuns:  counter(obsv.Default(), "icrowd_core_scheme_runs_total"),
		SchemeMs:    1000 * promValue(obsv.Default(), "icrowd_core_scheme_recompute_seconds_sum"),
	}
}

// reset starts the measured window.
func (rc *recorder) reset() {
	base := rc.counters()
	rc.mu.Lock()
	defer rc.mu.Unlock()
	graph, pre := rc.out.GraphMs, rc.out.PrecomputeMs
	rc.out = serverLayers{GraphMs: graph, PrecomputeMs: pre, HandlerByTrace: map[string]float64{}}
	rc.base = base
	rc.measuring.Store(true)
}

// layers reports the measured window.
func (rc *recorder) layers() serverLayers {
	now := rc.counters()
	rc.mu.Lock()
	defer rc.mu.Unlock()
	out := rc.out
	out.Redelivered = now.Redelivered - rc.base.Redelivered
	out.Throttled = now.Throttled - rc.base.Throttled
	out.SchemeRuns = now.SchemeRuns - rc.base.SchemeRuns
	out.SchemeMs = now.SchemeMs - rc.base.SchemeMs
	return out
}

// timedStrategy times RequestTask and SubmitAnswer of one project's
// strategy, charging the time to the in-flight request of that worker.
type timedStrategy struct {
	core.Strategy
	project string
	rc      *recorder
}

// ConcurrencySafe forwards the wrapped strategy's marker, so the server
// keeps calling the strategy without serializing it.
func (t *timedStrategy) ConcurrencySafe() bool {
	cs, ok := t.Strategy.(interface{ ConcurrencySafe() bool })
	return ok && cs.ConcurrencySafe()
}

func (t *timedStrategy) charge(worker string, d time.Duration, submit, empty bool) {
	if !t.rc.measuring.Load() {
		return
	}
	us := float64(d) / float64(time.Microsecond)
	t.rc.mu.Lock()
	defer t.rc.mu.Unlock()
	if acc := t.rc.open[t.project+"\x00"+worker]; acc != nil {
		acc.Add(int64(d))
	}
	t.rc.out.CoreUsSum += us
	if submit {
		t.rc.out.SubmitAnsUs = append(t.rc.out.SubmitAnsUs, us)
		return
	}
	t.rc.out.RequestTaskUs = append(t.rc.out.RequestTaskUs, us)
	if empty {
		t.rc.out.RequestEmpty++
	}
}

func (t *timedStrategy) RequestTask(worker string) (int, bool) {
	t0 := time.Now()
	tid, ok := t.Strategy.RequestTask(worker)
	t.charge(worker, time.Since(t0), false, !ok)
	return tid, ok
}

func (t *timedStrategy) SubmitAnswer(worker string, taskID int, ans task.Answer) error {
	t0 := time.Now()
	err := t.Strategy.SubmitAnswer(worker, taskID, ans)
	t.charge(worker, time.Since(t0), true, false)
	return err
}

// middleware times Server.Handler per request and derives the platform's
// self time: the handler's time minus the strategy calls it made.
func (rc *recorder) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		endpoint, project := classify(r.URL.Path)
		if !rc.measuring.Load() || endpoint == "" {
			next.ServeHTTP(w, r)
			return
		}
		worker := r.URL.Query().Get("workerId")
		if endpoint == "submit" {
			body, _ := io.ReadAll(io.LimitReader(r.Body, 1<<20))
			r.Body = io.NopCloser(bytes.NewReader(body))
			var req platform.SubmitRequest
			_ = json.Unmarshal(body, &req) // a malformed body is the server's to reject
			worker = req.WorkerID
		}
		key := project + "\x00" + worker
		acc := new(atomic.Int64)
		rc.mu.Lock()
		rc.open[key] = acc
		rc.mu.Unlock()
		t0 := time.Now()
		next.ServeHTTP(w, r)
		total := time.Since(t0)
		rc.mu.Lock()
		defer rc.mu.Unlock()
		delete(rc.open, key)
		self := float64(total-time.Duration(acc.Load())) / float64(time.Microsecond)
		if endpoint == "assign" {
			rc.out.AssignSelfUs = append(rc.out.AssignSelfUs, self)
		} else {
			rc.out.SubmitSelfUs = append(rc.out.SubmitSelfUs, self)
		}
		us := float64(total) / float64(time.Microsecond)
		rc.out.HandlerUsSum += us
		if pc, ok := obsv.ParseTraceparent(r.Header.Get(obsv.TraceparentHeader)); ok {
			rc.out.HandlerByTrace[pc.Trace.String()] = us
		}
	})
}

// classify names a write endpoint ("assign", "submit") and its project.
func classify(path string) (endpoint, project string) {
	project = store.DefaultProject
	if rest, ok := strings.CutPrefix(path, "/v1/projects/"); ok {
		id, ep, found := strings.Cut(rest, "/")
		if !found {
			return "", ""
		}
		project, path = id, "/v1/"+ep
	}
	switch path {
	case "/v1/assign", "/assign":
		return "assign", project
	case "/v1/submit", "/submit":
		return "submit", project
	}
	return "", ""
}

// projectSeed mirrors icrowd-server's per-project strategy seed, so a
// traced server rebuilds the same strategies from the same logs.
func projectSeed(base int64, id string) int64 {
	if id == store.DefaultProject {
		return base
	}
	h := fnv.New64a()
	io.WriteString(h, id)
	return base ^ int64(h.Sum64()&math.MaxInt64)
}

// strategyConfig is the icrowd-server configuration every workload uses.
func strategyConfig(seed int64) core.Config {
	cfg := core.DefaultConfig()
	cfg.K = 3
	cfg.Q = 10
	cfg.Mode = core.ModeAdapt
	cfg.Seed = seed
	return cfg
}

// buildBasis is core.BuildBasis split at its two layers so each is timed.
func buildBasis(ds *task.Dataset, seed int64) (*ppr.Basis, time.Duration, time.Duration, error) {
	bc := core.DefaultBasisConfig()
	bc.Seed = seed
	t0 := time.Now()
	metric, err := simgraph.MetricFor(bc.Measure, ds, bc.Seed)
	if err != nil {
		return nil, 0, 0, err
	}
	g, err := simgraph.Build(ds.Len(), metric, bc.Threshold, bc.MaxNeighbors)
	if err != nil {
		return nil, 0, 0, err
	}
	t1 := time.Now()
	opts := ppr.DefaultOptions()
	opts.Alpha = bc.Alpha
	opts.Workers = bc.Workers
	b, err := ppr.Precompute(g, opts)
	return b, t1.Sub(t0), time.Since(t1), err
}

// serveMain is the traced stand-in for icrowd-server -data-dir -fsync never.
func serveMain(args []string) int {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:0", "listen address")
	dataDir := fs.String("data-dir", "", "multi-project data directory")
	seed := fs.Int64("seed", 1, "server seed (dataset and strategies)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := serveTraced(*addr, *dataDir, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "serve:", err)
		return 1
	}
	return 0
}

func serveTraced(addr, dataDir string, seed int64) error {
	ds, _, err := experiments.LoadDataset(experiments.DatasetItemCompare, seed, 0)
	if err != nil {
		return err
	}
	basis, graphD, preD, err := buildBasis(ds, seed)
	if err != nil {
		return err
	}
	rc := &recorder{open: map[string]*atomic.Int64{}}
	rc.out.GraphMs = float64(graphD) / float64(time.Millisecond)
	rc.out.PrecomputeMs = float64(preD) / float64(time.Millisecond)
	factory := func(id string) (core.Strategy, error) {
		ic, err := core.New(ds, basis, strategyConfig(projectSeed(seed, id)))
		if err != nil {
			return nil, err
		}
		return &timedStrategy{Strategy: ic, project: id, rc: rc}, nil
	}
	pstore, err := store.OpenProjects(dataDir)
	if err != nil {
		return err
	}
	def, err := factory(store.DefaultProject)
	if err != nil {
		return err
	}
	backend, recov, err := pstore.Project(store.DefaultProject)
	if err != nil {
		return err
	}
	srv := platform.NewServer(def, ds, platform.WithBackend(backend))
	defer srv.Close()
	srv.SetLogger(nil)
	if recov != nil && len(recov.Events) > 0 {
		if err := store.Replay(recov.Events, def); err != nil {
			return err
		}
		srv.Restore(recov.Events)
	}
	if _, err := srv.EnableProjects(pstore, factory); err != nil {
		return err
	}
	rc.reg = srv.Registry()
	mux := http.NewServeMux()
	mux.Handle("/", rc.middleware(srv.Handler()))
	mux.HandleFunc("/bench/reset", func(w http.ResponseWriter, r *http.Request) { rc.reset() })
	mux.HandleFunc("/bench/layers", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(rc.layers()) // the orchestrator notices a short body
	})
	return serveUntilSignal(addr, mux)
}

// counter reads a counter's running total (the registry returns the
// existing instrument for a registered name).
func counter(reg *obsv.Registry, name string) int64 {
	return reg.Counter(name, "").Value()
}

// promValue reads one unlabelled sample from a registry's exposition.
func promValue(reg *obsv.Registry, name string) float64 {
	var buf bytes.Buffer
	reg.WritePrometheus(&buf)
	for _, line := range strings.Split(buf.String(), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			var f float64
			fmt.Sscan(v, &f)
			return f
		}
	}
	return 0
}

// routeMain is the traced stand-in for icrowd-router.
func routeMain(args []string) int {
	fs := flag.NewFlagSet("route", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:0", "listen address")
	shards := fs.String("shards", "", "comma-separated shard base URLs")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	urls := strings.Split(*shards, ",")
	rt, err := shard.New(shard.Config{
		Shards:   urls,
		Client:   &http.Client{Timeout: 30 * time.Second},
		Logger:   obsv.NopLogger(),
		Registry: obsv.Default(),
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "route:", err)
		return 1
	}
	stop := rt.Start()
	defer stop()
	var (
		measuring atomic.Bool
		seq       atomic.Uint64
		mu        sync.Mutex
		byTrace   = map[string]float64{}
	)
	inner := rt.Handler()
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if ep, _ := classify(r.URL.Path); ep == "" || !measuring.Load() {
			inner.ServeHTTP(w, r)
			return
		}
		// A fresh inbound trace per request: the router continues it and
		// propagates it, so the shard's timing joins on the same ID.
		id := obsv.TraceID{0x1ce, seq.Add(1)}
		r.Header.Set(obsv.TraceparentHeader, "00-"+id.String()+"-00000000000000ab-01")
		t0 := time.Now()
		inner.ServeHTTP(w, r)
		us := float64(time.Since(t0)) / float64(time.Microsecond)
		mu.Lock()
		byTrace[id.String()] = us
		mu.Unlock()
	})
	mux.HandleFunc("/bench/reset", func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		byTrace = map[string]float64{}
		mu.Unlock()
		measuring.Store(true)
	})
	mux.HandleFunc("/bench/layers", func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		out := routerLayers{ByTrace: byTrace}
		for _, u := range urls {
			out.Unavailable += obsv.Default().Counter("icrowd_router_shard_unavailable_total", "", "target", u).Value()
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(out) // the orchestrator notices a short body
		mu.Unlock()
	})
	if err := serveUntilSignal(*addr, mux); err != nil {
		fmt.Fprintln(os.Stderr, "route:", err)
		return 1
	}
	return 0
}

// serveUntilSignal serves h until SIGTERM or SIGINT, then drains.
func serveUntilSignal(addr string, h http.Handler) error {
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	srv := &http.Server{Addr: addr, Handler: h}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	select {
	case err := <-errc:
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return err
	case <-ctx.Done():
		sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer scancel()
		return srv.Shutdown(sctx)
	}
}
