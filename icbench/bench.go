package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"icrowd/internal/core"
	"icrowd/internal/experiments"
	"icrowd/internal/platform"
	"icrowd/internal/store"
)

// workload is one traffic mix against one serving topology.
type workload struct {
	Name string
	// Workers is the size of the Fig-6 crowd with skewed request rates.
	Workers  int
	Projects int
	Shards   int // 0 = one icrowd-server, else icrowd-router over Shards servers
	// FixtureSessions > 0 starts the server over a restart fixture of that
	// many sessions instead of an empty data directory.
	FixtureSessions int
	Rate            float64 // main-phase arrivals per second
	Warmup          float64 // seconds of unmeasured traffic before the main phase
}

// workloads are the benchmark's traffic mixes; BENCHMARK.json says why
// each one is there.
var workloads = []workload{
	{Name: "adaptive", Workers: 200, Projects: 4, Rate: 150, Warmup: 2},
	{Name: "restart", Workers: 200, Projects: 4, FixtureSessions: 1200, Rate: 120},
	{Name: "routed", Workers: 200, Projects: 4, Shards: 2, Rate: 150, Warmup: 2},
}

// datasetSeed fixes the served dataset (icrowd-server -seed): the
// benchmark seed varies the crowd and its traffic, not the task set.
const datasetSeed = 1

// crowdSeed fixes who is in the crowd (each worker's latent accuracies,
// request rate and answers). With a skewed crowd the few busiest workers
// carry most of the traffic, so drawing the crowd from the run's seed
// would make a run's numbers hinge on whether its top worker is a spammer;
// the seed instead varies when each worker arrives and which project they
// visit.
const crowdSeed = 1000

// setupRepeats is how many cold starts setup_s takes the median of.
const setupRepeats = 5

// endToEnd and perLayer list the metrics in BENCHMARK.json order.
var endToEnd = []struct{ name, unit string }{
	{"answers_per_s", "1/s"}, {"tasks_completed_per_s", "1/s"},
	{"server_cpu_ms_per_answer", "ms"},
	{"succeeded_share", "ratio"}, {"assigned_share", "ratio"},
	{"result_accuracy", "ratio"}, {"setup_s", "s"}, {"server_rss_mb", "MiB"},
}

var perLayer = []struct{ name, unit string }{
	{"shard.self_ms.p50", "ms"}, {"shard.self_ms.p99", "ms"}, {"shard.unavailable", "count"},
	{"platform.assign.self_us.p50", "us"}, {"platform.assign.self_us.p99", "us"},
	{"platform.submit.self_us.p50", "us"}, {"platform.submit.self_us.p99", "us"},
	{"platform.redelivered", "count"}, {"platform.throttled", "count"}, {"platform.share_of_server", "ratio"},
	{"core.request_task_us.p50", "us"}, {"core.request_task_us.p99", "us"},
	{"core.submit_answer_us.p50", "us"}, {"core.submit_answer_us.p99", "us"},
	{"core.empty_share", "ratio"}, {"core.scheme_runs", "count"}, {"core.scheme_ms.sum", "ms"},
	{"core.scheme_runs_per_assign", "ratio"}, {"core.share_of_server", "ratio"},
	{"store.append_us.p50", "us"}, {"store.append_us.p99", "us"}, {"store.bytes_per_event", "bytes"},
	{"store.open_ms", "ms"}, {"store.replay_ms", "ms"}, {"store.replay_share_of_setup", "ratio"},
	{"basis.graph_ms", "ms"}, {"basis.precompute_ms", "ms"}, {"project.create_ms", "ms"},
	{"gen.achieved_rate", "1/s"}, {"gen.lag_p99_ms", "ms"}, {"gen.cpu_s", "s"},
	{"traced.assign_p50_ms", "ms"}, {"traced.assign_p99_ms", "ms"},
	{"traced.submit_p50_ms", "ms"}, {"traced.submit_p99_ms", "ms"},
	{"traced.server_cpu_ms_per_answer", "ms"}, {"traced.setup_s", "s"},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func benchMain(args []string) int {
	fs := flag.NewFlagSet("icbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "main-phase length in seconds")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].Name == *name {
			w = &workloads[i]
		}
	}
	if w == nil {
		fmt.Fprintf(os.Stderr, "icbench: unknown workload %q\n", *name)
		return 2
	}
	bin, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "icbench:", err)
		return 1
	}
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "icbench:", err)
		return 1
	}
	wd := filepath.Join(root, ".bench_build", fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(wd, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "icbench:", err)
		return 1
	}
	o := &orch{w: *w, seed: *seed, seconds: *seconds, traced: *trace == 1, wd: wd, binDir: filepath.Dir(bin), self: bin}
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	res, err := o.run(ctx)
	o.stopAll()
	// The working directory, with the children's logs, is kept only when
	// the run failed or a check did.
	if err != nil {
		fmt.Fprintf(os.Stderr, "icbench: %v (logs in %s)\n", err, wd)
		return 1
	}
	if res.Correct {
		os.RemoveAll(wd)
	} else {
		fmt.Fprintf(os.Stderr, "icbench: a check failed; logs in %s\n", wd)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "icbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// orch runs one workload end to end.
type orch struct {
	w       workload
	seed    int64
	seconds float64
	traced  bool
	wd      string
	binDir  string
	self    string
	procs   []*proc
	nlog    int
}

// proc is a child process.
type proc struct {
	cmd  *exec.Cmd
	done chan struct{}
}

func (o *orch) start(bin string, args ...string) (*proc, error) {
	o.nlog++
	logf, err := os.Create(filepath.Join(o.wd, fmt.Sprintf("%02d-%s.log", o.nlog, filepath.Base(bin))))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	p := &proc{cmd: cmd, done: make(chan struct{})}
	go func() {
		cmd.Wait() //nolint:errcheck // the exit status of a stopped child is expected to be non-zero
		logf.Close()
		close(p.done)
	}()
	o.procs = append(o.procs, p)
	return p, nil
}

// stop asks a child to drain and exit, and kills it if it does not.
func (p *proc) stop() {
	select {
	case <-p.done:
		return
	default:
	}
	p.cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck // it may have exited already
	select {
	case <-p.done:
	case <-time.After(10 * time.Second):
		p.cmd.Process.Kill() //nolint:errcheck
		<-p.done
	}
}

func (o *orch) stopAll() {
	for _, p := range o.procs {
		p.stop()
	}
	o.procs = nil
}

func (p *proc) pid() int { return p.cmd.Process.Pid }

// fleet is one launch of the serving processes.
type fleet struct {
	url     string
	servers []*proc
	router  *proc
	dirs    []string
	traceU  []string // traced processes' base URLs
	setup   time.Duration
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// launch starts the serving processes over dirs and times them to ready.
func (o *orch) launch(ctx context.Context, dirs []string) (*fleet, error) {
	f := &fleet{dirs: dirs}
	t0 := time.Now()
	var urls []string
	for _, d := range dirs {
		port, err := freePort()
		if err != nil {
			return nil, err
		}
		addr := "127.0.0.1:" + strconv.Itoa(port)
		var p *proc
		if o.traced {
			p, err = o.start(o.self, "serve", "-addr", addr, "-data-dir", d, "-seed", strconv.Itoa(datasetSeed))
		} else {
			p, err = o.start(filepath.Join(o.binDir, "icrowd-server"), "-addr", addr,
				"-dataset", experiments.DatasetItemCompare, "-strategy", "icrowd", "-k", "3", "-q", "10",
				"-seed", strconv.Itoa(datasetSeed), "-data-dir", d, "-fsync", "never", "-log-level", "warn")
		}
		if err != nil {
			return nil, err
		}
		f.servers = append(f.servers, p)
		urls = append(urls, "http://"+addr)
	}
	for i, u := range urls {
		if err := waitReady(ctx, u, f.servers[i]); err != nil {
			return nil, err
		}
	}
	f.url = urls[0]
	if o.traced {
		f.traceU = append(f.traceU, urls...)
	}
	if o.w.Shards > 0 {
		port, err := freePort()
		if err != nil {
			return nil, err
		}
		addr := "127.0.0.1:" + strconv.Itoa(port)
		shards := strings.Join(urls, ",")
		if o.traced {
			f.router, err = o.start(o.self, "route", "-addr", addr, "-shards", shards)
		} else {
			f.router, err = o.start(filepath.Join(o.binDir, "icrowd-router"), "-addr", addr,
				"-shards", shards, "-log-level", "warn")
		}
		if err != nil {
			return nil, err
		}
		f.url = "http://" + addr
		if err := waitReady(ctx, f.url, f.router); err != nil {
			return nil, err
		}
		if o.traced {
			f.traceU = append([]string{f.url}, f.traceU...)
		}
	}
	f.setup = time.Since(t0)
	return f, nil
}

func (f *fleet) stop() {
	if f.router != nil {
		f.router.stop()
	}
	for _, s := range f.servers {
		s.stop()
	}
}

// waitReady polls /v1/readyz until it answers 200.
func waitReady(ctx context.Context, base string, p *proc) error {
	client := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(readyTimeout)
	for time.Now().Before(deadline) {
		select {
		case <-p.done:
			return fmt.Errorf("%s exited before it was ready (see its log)", base)
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		resp, err := client.Get(base + "/v1/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("%s not ready after %v", base, readyTimeout)
}

// readyTimeout and genTimeout keep a stuck run well inside the three
// minutes a run may take.
const (
	readyTimeout = 30 * time.Second
	genTimeout   = 100 * time.Second
)

// check is one output check.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

func (o *orch) run(ctx context.Context) (*result, error) {
	w := o.w
	var fx *fixture
	if w.FixtureSessions > 0 {
		var err error
		fx, err = buildFixture(filepath.Join(o.wd, "fixture"), o.seed, datasetSeed, w.Workers, w.Projects, w.FixtureSessions)
		if err != nil {
			return nil, fmt.Errorf("build fixture: %w", err)
		}
	}
	nDirs := max(w.Shards, 1)
	var (
		setups []float64
		fl     *fleet
	)
	for rep := 0; rep < setupRepeats; rep++ {
		var dirs []string
		for i := 0; i < nDirs; i++ {
			d := filepath.Join(o.wd, fmt.Sprintf("data-%d-%d", rep, i))
			if fx != nil {
				if err := copyTree(fx.Dir, d); err != nil {
					return nil, err
				}
			} else if err := os.MkdirAll(d, 0o755); err != nil {
				return nil, err
			}
			dirs = append(dirs, d)
		}
		f, err := o.launch(ctx, dirs)
		if err != nil {
			return nil, fmt.Errorf("launch: %w", err)
		}
		setups = append(setups, f.setup.Seconds())
		if rep < setupRepeats-1 {
			f.stop()
			continue
		}
		fl = f
	}
	var checks []check
	if fx != nil {
		checks = append(checks, restartCheck(fl.url, fx))
	}

	cfg := genConfig{
		Target: fl.url, Seed: o.seed, DatasetSeed: datasetSeed, Workers: w.Workers,
		Conns: runtime.NumCPU(), TimeoutMs: 2000, TraceURLs: fl.traceU,
	}
	for _, s := range fl.servers {
		cfg.ServerPIDs = append(cfg.ServerPIDs, s.pid())
	}
	if fl.router != nil {
		cfg.RouterPID = fl.router.pid()
	}
	if fx != nil {
		cfg.Slots = fx.Projects
	} else {
		for i := 0; i < w.Projects; i++ {
			cfg.Slots = append(cfg.Slots, projectRecord{ID: fmt.Sprintf("p%d", i), Create: true})
		}
	}
	if w.Warmup > 0 {
		cfg.Phases = append(cfg.Phases, phaseSpec{Name: warmupPhase, Rate: w.Rate, Seconds: w.Warmup})
	}
	cfg.Phases = append(cfg.Phases, phaseSpec{Name: mainPhase, Rate: w.Rate, Seconds: o.seconds})
	cfgPath, outPath := filepath.Join(o.wd, "gen-config.json"), filepath.Join(o.wd, "gen-report.json")
	if err := writeJSON(cfgPath, cfg); err != nil {
		return nil, err
	}
	gp, err := o.start(o.self, "gen", "-config", cfgPath, "-out", outPath)
	if err != nil {
		return nil, err
	}
	select {
	case <-gp.done:
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-time.After(genTimeout):
		return nil, fmt.Errorf("generator did not finish within %v", genTimeout)
	}
	if code := gp.cmd.ProcessState.ExitCode(); code != 0 {
		return nil, fmt.Errorf("generator exited with code %d (see its log)", code)
	}
	var rep genReport
	if err := readJSON(outPath, &rep); err != nil {
		return nil, fmt.Errorf("generator report: %w", err)
	}
	peakRSS := map[string]float64{}
	for i, s := range fl.servers {
		v, err := procStatusMB(s.pid(), "VmHWM")
		if err != nil {
			return nil, err
		}
		peakRSS[fmt.Sprintf("server%d", i)] = v
	}
	if fl.router != nil {
		v, err := procStatusMB(fl.router.pid(), "VmHWM")
		if err != nil {
			return nil, err
		}
		peakRSS["router"] = v
	}
	fl.stop()

	main := findPhase(&rep, mainPhase)
	if main == nil {
		return nil, errors.New("generator report has no main phase")
	}
	logs, err := summarizeLogs(fl.dirs)
	if err != nil {
		return nil, err
	}
	right, judged, err := judge(&rep, logs)
	if err != nil {
		return nil, err
	}
	accuracy := float64(right) / math.Max(float64(judged), 1)
	checks = append(checks, o.checks(&rep, main, fx, logs.submits)...)
	// The floor is one answer's expected accuracy; a run judges a sample of
	// tasks, so it fails only when its accuracy lies more than two standard
	// errors of that sample below the floor.
	floor := rep.AccuracyFloor - 2*math.Sqrt(rep.AccuracyFloor*(1-rep.AccuracyFloor)/math.Max(float64(judged), 1))
	checks = append(checks, check{Name: "accuracy_floor", OK: judged > 0 && accuracy >= floor,
		Detail: fmt.Sprintf("accuracy %.4f over %d completed tasks; floor %.4f, %.4f after two standard errors",
			accuracy, judged, rep.AccuracyFloor, floor)})

	m := map[string]metric{}
	put := func(name string, v float64) {
		for _, e := range append(endToEnd, perLayer...) {
			if e.name == name {
				m[name] = metric{Value: v, Unit: e.unit}
				return
			}
		}
		panic("unlisted metric " + name)
	}
	e2e, lat := o.endToEnd(main, setups, accuracy), latencyMetrics(main)
	if o.traced {
		layers, err := o.layers(&rep, main, fl, fx, median(setups))
		if err != nil {
			return nil, err
		}
		for k, v := range layers {
			put(k, v)
		}
		for k, v := range lat {
			put("traced."+k, v)
		}
		for _, k := range []string{"server_cpu_ms_per_answer", "setup_s"} {
			put("traced."+k, e2e[k])
		}
	} else {
		for k, v := range e2e {
			put(k, v)
		}
	}
	correct := true
	for _, c := range checks {
		if !c.OK {
			correct = false
			fmt.Printf("check failed: %s: %s\n", c.Name, c.Detail)
		}
	}
	o.report(&rep, main, checks, peakRSS, setups, lat)
	return &result{Correct: correct, Attempted: attempted(main), Failed: failures(main), Metrics: m}, nil
}

func findPhase(rep *genReport, name string) *phaseReport {
	for i := range rep.Phases {
		if rep.Phases[i].Name == name {
			return &rep.Phases[i]
		}
	}
	return nil
}

// endToEnd computes the user-visible metrics that BENCHMARK.json bounds.
func (o *orch) endToEnd(main *phaseReport, setups []float64, accuracy float64) map[string]float64 {
	cpu := sum(main.ServerCPU) + main.RouterCPU
	assigned, _, _ := assignedShares(main)
	return map[string]float64{
		"answers_per_s":            float64(main.Accepted) / main.WallSeconds,
		"tasks_completed_per_s":    float64(main.TasksCompleted) / main.WallSeconds,
		"server_cpu_ms_per_answer": 1000 * cpu / math.Max(float64(main.Accepted), 1),
		"succeeded_share":          1 - float64(failures(main))/float64(attempted(main)),
		"assigned_share":           assigned,
		"result_accuracy":          accuracy,
		"setup_s":                  median(setups),
		"server_rss_mb":            main.RSSMB,
	}
}

// latencyMetrics computes the main phase's /assign and /submit latency
// percentiles. They are wall-clock times, which on a shared virtual
// machine follow the hypervisor's steal, so an untraced run prints them
// in its report line rather than as bounded metrics (see README.md); a
// traced run reports them as traced.* per-layer metrics.
func latencyMetrics(main *phaseReport) map[string]float64 {
	pct := func(xs []float64, p float64) float64 {
		v, _ := percentile(xs, p)
		if math.IsInf(v, 0) {
			return 1e9 // a failed tail; the checks already failed the run
		}
		return v
	}
	al, sl := assignLatencies(main), submitLatencies(main)
	return map[string]float64{
		"assign_p50_ms": pct(al, 0.50), "assign_p99_ms": pct(al, 0.99),
		"submit_p50_ms": pct(sl, 0.50), "submit_p99_ms": pct(sl, 0.99),
	}
}

// checks are the output checks that fail a run.
func (o *orch) checks(rep *genReport, main *phaseReport, fx *fixture, logs map[string]int) []check {
	var cs []check
	add := func(name string, ok bool, format string, a ...any) {
		cs = append(cs, check{Name: name, OK: ok, Detail: fmt.Sprintf(format, a...)})
	}
	add("achieved_rate", main.AchievedRate >= 0.95*main.OfferedRate,
		"achieved %.1f/s against %.1f/s offered", main.AchievedRate, main.OfferedRate)
	n5xx := 0
	for _, pr := range rep.Phases {
		n5xx += pr.Fail5xx
	}
	add("no_5xx", n5xx == 0, "%d responses with status 5xx", n5xx)
	var bad []string
	for _, p := range rep.Projects {
		want := p.Accepted
		if fx != nil {
			want += fx.State[p.ID].Submits
		}
		if logs[p.ID] != want {
			bad = append(bad, fmt.Sprintf("%s: %d logged, %d accepted", p.ID, logs[p.ID], want))
		}
	}
	add("submits_match_log", len(bad) == 0, "%d projects; mismatches: %s", len(rep.Projects), strings.Join(bad, "; "))
	_, okA := percentile(assignLatencies(main), 0.99)
	_, okS := percentile(submitLatencies(main), 0.99)
	add("p99_has_10_beyond", okA && okS, "%d assigns, %d submits", len(main.AssignMs), len(submitLatencies(main)))
	_, first, second := assignedShares(main)
	add("not_dry", second >= 0.8*first, "assigned share %.3f in the first half, %.3f in the second", first, second)
	return cs
}

// restartCheck compares a restarted server with the fixture's state.
func restartCheck(base string, fx *fixture) check {
	c := check{Name: "restart_state", OK: true}
	client := &http.Client{Timeout: 5 * time.Second}
	get := func(path string, out any) error {
		resp, err := client.Get(base + path)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
		}
		return json.NewDecoder(resp.Body).Decode(out)
	}
	var diffs []string
	for _, p := range fx.Projects {
		want := fx.State[p.ID]
		var st platform.StatusResponse
		var rr platform.ResultsResponse
		var info platform.ProjectInfo
		if err := get("/v1/projects/"+p.ID+"/status", &st); err != nil {
			diffs = append(diffs, err.Error())
			continue
		}
		if err := get("/v1/projects/"+p.ID+"/results", &rr); err != nil {
			diffs = append(diffs, err.Error())
			continue
		}
		if err := get("/v1/projects/"+p.ID, &info); err != nil {
			diffs = append(diffs, err.Error())
			continue
		}
		if st != want.Status {
			diffs = append(diffs, fmt.Sprintf("%s status %+v, want %+v", p.ID, st, want.Status))
		}
		if !reflect.DeepEqual(rr.Results, want.Results) {
			diffs = append(diffs, p.ID+" results differ")
		}
		if info.LastSeq != want.LastSeq {
			diffs = append(diffs, fmt.Sprintf("%s lastSeq %d, want %d", p.ID, info.LastSeq, want.LastSeq))
		}
	}
	c.OK = len(diffs) == 0
	c.Detail = fmt.Sprintf("%d projects compared; %s", len(fx.Projects), strings.Join(diffs, "; "))
	return c
}

// logSummary is what the projects' event logs say about a run.
type logSummary struct {
	// submits counts submit events per project.
	submits map[string]int
	// completed holds, per project, the microtasks whose logged answers
	// reached consensus on some server: consensusVotes on one side, the
	// rule core.Job applies for k = 3.
	completed map[string]map[int]bool
}

const consensusVotes = 2

// summarizeLogs reads every project's log in every data directory.
func summarizeLogs(dirs []string) (*logSummary, error) {
	ls := &logSummary{submits: map[string]int{}, completed: map[string]map[int]bool{}}
	for _, d := range dirs {
		events, err := readEvents(d)
		if err != nil {
			return nil, err
		}
		for id, evs := range events {
			votes := map[int]map[string]int{}
			if ls.completed[id] == nil {
				ls.completed[id] = map[int]bool{}
			}
			for _, e := range evs {
				if e.Kind != store.EventSubmit {
					continue
				}
				ls.submits[id]++
				if votes[e.Task] == nil {
					votes[e.Task] = map[string]int{}
				}
				votes[e.Task][e.Answer]++
				if votes[e.Task][e.Answer] >= consensusVotes {
					ls.completed[id][e.Task] = true
				}
			}
		}
	}
	return ls, nil
}

// judge compares each project's final /results with ground truth over
// the completed microtasks that are not qualification microtasks.
func judge(rep *genReport, ls *logSummary) (correct, judged int, err error) {
	ds, _, err := experiments.LoadDataset(experiments.DatasetItemCompare, datasetSeed, 0)
	if err != nil {
		return 0, 0, err
	}
	for _, p := range rep.Projects {
		qual := map[int]bool{}
		for _, t := range p.Qual {
			qual[t] = true
		}
		for t := range ls.completed[p.ID] {
			if qual[t] || t < 0 || t >= ds.Len() {
				continue
			}
			judged++
			if p.Results[t] == ds.Tasks[t].Truth.String() {
				correct++
			}
		}
	}
	return correct, judged, nil
}

// readEvents reads every project's events under a data directory.
func readEvents(dir string) (map[string][]store.Event, error) {
	ps, err := store.OpenProjects(dir)
	if err != nil {
		return nil, err
	}
	defer ps.Close()
	ids, err := ps.Projects()
	if err != nil {
		return nil, err
	}
	out := map[string][]store.Event{}
	for _, id := range ids {
		_, info, err := ps.Project(id)
		if err != nil {
			return nil, err
		}
		if info != nil {
			out[id] = info.Events
		}
	}
	return out, nil
}

// layers computes the per-layer metrics of a traced run.
func (o *orch) layers(rep *genReport, main *phaseReport, fl *fleet, fx *fixture, setupS float64) (map[string]float64, error) {
	out := map[string]float64{}
	var srv serverLayers
	var rt *routerLayers
	for i, raw := range main.Layers {
		if fl.router != nil && i == 0 {
			rt = &routerLayers{}
			if err := json.Unmarshal(raw, rt); err != nil {
				return nil, err
			}
			continue
		}
		var s serverLayers
		if err := json.Unmarshal(raw, &s); err != nil {
			return nil, err
		}
		srv.AssignSelfUs = append(srv.AssignSelfUs, s.AssignSelfUs...)
		srv.SubmitSelfUs = append(srv.SubmitSelfUs, s.SubmitSelfUs...)
		srv.RequestTaskUs = append(srv.RequestTaskUs, s.RequestTaskUs...)
		srv.SubmitAnsUs = append(srv.SubmitAnsUs, s.SubmitAnsUs...)
		srv.RequestEmpty += s.RequestEmpty
		srv.HandlerUsSum += s.HandlerUsSum
		srv.CoreUsSum += s.CoreUsSum
		srv.Redelivered += s.Redelivered
		srv.Throttled += s.Throttled
		srv.SchemeRuns += s.SchemeRuns
		srv.SchemeMs += s.SchemeMs
		srv.GraphMs = math.Max(srv.GraphMs, s.GraphMs)
		srv.PrecomputeMs = math.Max(srv.PrecomputeMs, s.PrecomputeMs)
		if srv.HandlerByTrace == nil {
			srv.HandlerByTrace = map[string]float64{}
		}
		for k, v := range s.HandlerByTrace {
			srv.HandlerByTrace[k] = v
		}
	}
	pct := func(prefix string, xs []float64) {
		p50, _ := percentile(xs, 0.50)
		p99, _ := percentile(xs, 0.99)
		out[prefix+".p50"], out[prefix+".p99"] = p50, p99
	}
	if rt != nil {
		var self []float64
		for id, r := range rt.ByTrace {
			if s, ok := srv.HandlerByTrace[id]; ok {
				self = append(self, (r-s)/1000)
			}
		}
		pct("shard.self_ms", self)
		out["shard.unavailable"] = float64(rt.Unavailable)
	} else {
		out["shard.self_ms.p50"], out["shard.self_ms.p99"], out["shard.unavailable"] = 0, 0, 0
	}
	pct("platform.assign.self_us", srv.AssignSelfUs)
	pct("platform.submit.self_us", srv.SubmitSelfUs)
	out["platform.redelivered"] = float64(srv.Redelivered)
	out["platform.throttled"] = float64(srv.Throttled)
	pct("core.request_task_us", srv.RequestTaskUs)
	pct("core.submit_answer_us", srv.SubmitAnsUs)
	out["core.empty_share"] = float64(srv.RequestEmpty) / math.Max(float64(len(srv.RequestTaskUs)), 1)
	out["core.scheme_runs"] = float64(srv.SchemeRuns)
	out["core.scheme_ms.sum"] = srv.SchemeMs
	out["core.scheme_runs_per_assign"] = float64(srv.SchemeRuns) / math.Max(float64(len(srv.AssignSelfUs)), 1)
	// Shares of the servers' CPU time over the main phase: time in the
	// strategy, and handler time outside it. The rest is the HTTP stack
	// outside the handlers and the Go runtime.
	cpuUs := 1e6 * sum(main.ServerCPU)
	out["core.share_of_server"] = srv.CoreUsSum / math.Max(cpuUs, 1)
	out["platform.share_of_server"] = (srv.HandlerUsSum - srv.CoreUsSum) / math.Max(cpuUs, 1)
	out["basis.graph_ms"], out["basis.precompute_ms"] = srv.GraphMs, srv.PrecomputeMs
	var creates []float64
	for _, p := range rep.Projects {
		if p.CreateMs > 0 {
			creates = append(creates, p.CreateMs)
		}
	}
	out["project.create_ms"] = median(creates)
	out["gen.achieved_rate"] = main.AchievedRate
	lag, _ := percentile(main.LagMs, 0.99)
	out["gen.lag_p99_ms"] = lag
	out["gen.cpu_s"] = main.GenCPU

	// The store layer, driven directly: open and replay the state the
	// server started from (only the restart fixture holds any), and
	// re-append this run's events under the servers' fsync policy.
	out["store.open_ms"], out["store.replay_ms"], out["store.replay_share_of_setup"] = 0, 0, 0
	if fx != nil {
		openMs, replayMs, err := timeOpenReplay(fx.Dir)
		if err != nil {
			return nil, err
		}
		out["store.open_ms"], out["store.replay_ms"] = openMs, replayMs
		out["store.replay_share_of_setup"] = (openMs + replayMs) / 1000 / setupS
	}
	appendUs, bytesPer, err := o.timeAppend(fl.dirs[0])
	if err != nil {
		return nil, err
	}
	pct("store.append_us", appendUs)
	out["store.bytes_per_event"] = bytesPer
	return out, nil
}

// timeOpenReplay opens every project under dir and replays its events
// through a fresh strategy, as a restarting server does.
func timeOpenReplay(dir string) (openMs, replayMs float64, err error) {
	ds, _, err := experiments.LoadDataset(experiments.DatasetItemCompare, datasetSeed, 0)
	if err != nil {
		return 0, 0, err
	}
	basis, _, _, err := buildBasis(ds, datasetSeed)
	if err != nil {
		return 0, 0, err
	}
	scratch := dir + "-replay"
	if err := copyTree(dir, scratch); err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(scratch)
	t0 := time.Now()
	ps, err := store.OpenProjects(scratch)
	if err != nil {
		return 0, 0, err
	}
	defer ps.Close()
	ids, err := ps.Projects()
	if err != nil {
		return 0, 0, err
	}
	events := map[string][]store.Event{}
	for _, id := range ids {
		_, info, err := ps.Project(id)
		if err != nil {
			return 0, 0, err
		}
		if info != nil {
			events[id] = info.Events
		}
	}
	openMs = float64(time.Since(t0)) / float64(time.Millisecond)
	for _, id := range ids {
		st, err := core.New(ds, basis, strategyConfig(projectSeed(datasetSeed, id)))
		if err != nil {
			return 0, 0, err
		}
		t1 := time.Now()
		if err := store.Replay(events[id], st); err != nil {
			return 0, 0, fmt.Errorf("replay %s: %w", id, err)
		}
		replayMs += float64(time.Since(t1)) / float64(time.Millisecond)
	}
	return openMs, replayMs, nil
}

// appendSample is how many of a run's events the re-append pass times.
const appendSample = 2000

// timeAppend re-appends a run's events into a fresh store with the
// servers' fsync policy (never), timing each Backend.Append, and sizes
// the run's logs per event.
func (o *orch) timeAppend(dir string) ([]float64, float64, error) {
	events, err := readEvents(dir)
	if err != nil {
		return nil, 0, err
	}
	var all []store.Event
	ids := make([]string, 0, len(events))
	for id := range events {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		all = append(all, events[id]...)
	}
	var size int64
	filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error { //nolint:errcheck // sizes only
		if err == nil && !info.IsDir() {
			size += info.Size()
		}
		return nil
	})
	if len(all) > appendSample {
		all = all[:appendSample]
	}
	b, _, err := store.Open(filepath.Join(o.wd, "reappend.log"))
	if err != nil {
		return nil, 0, err
	}
	defer b.Close()
	us := make([]float64, 0, len(all))
	for _, e := range all {
		e.Seq = 0
		t0 := time.Now()
		if _, err := b.Append(e); err != nil {
			return nil, 0, err
		}
		us = append(us, float64(time.Since(t0))/float64(time.Microsecond))
	}
	n := 0
	for _, evs := range events {
		n += len(evs)
	}
	return us, float64(size) / math.Max(float64(n), 1), nil
}

// report prints the run's resource accounting and checks on one line
// before the result line.
func (o *orch) report(rep *genReport, main *phaseReport, checks []check, rss map[string]float64, setups []float64, latency map[string]float64) {
	type phaseLine struct {
		Name         string    `json:"name"`
		Rate         float64   `json:"rate"`
		Arrivals     int       `json:"arrivals"`
		AchievedRate float64   `json:"achievedRate"`
		AssignP99Ms  float64   `json:"assignP99Ms"`
		Assigned     float64   `json:"assignedShare"`
		Accepted     int       `json:"accepted"`
		Failed       int       `json:"failed"`
		ServerCPU    []float64 `json:"serverCpuS"`
		RouterCPU    float64   `json:"routerCpuS"`
		GenCPU       float64   `json:"genCpuS"`
		Steal        float64   `json:"stealShare"`
		NearSteal    int       `json:"arrivalsNearSteal"`
		Replaced     int       `json:"projectsReplaced"`
	}
	var phases []phaseLine
	for i := range rep.Phases {
		pr := &rep.Phases[i]
		p99, _ := percentile(assignLatencies(pr), 0.99)
		a, _, _ := assignedShares(pr)
		phases = append(phases, phaseLine{pr.Name, pr.Rate, pr.Arrivals, pr.AchievedRate, p99,
			a, pr.Accepted, failures(pr), pr.ServerCPU, pr.RouterCPU, pr.GenCPU, pr.StealShare, pr.NearSteal, pr.Replaced})
	}
	_, first, second := assignedShares(main)
	line := map[string]any{
		"workload": o.w.Name, "seed": o.seed, "traced": o.traced,
		"nproc": runtime.NumCPU(), "serverGOMAXPROCS": runtime.NumCPU(), "genGOMAXPROCS": rep.GOMAXPROCS,
		"connections": rep.Conns, "goVersion": runtime.Version(), "gitCommit": gitCommit(),
		"setupS": setups, "latencyMs": latency, "peakRssMiB": rss, "phases": phases, "checks": checks,
		"assignedShareHalves": []float64{first, second},
		"accuracyFloor":       rep.AccuracyFloor, "projects": len(rep.Projects),
	}
	b, _ := json.Marshal(line)
	fmt.Println("report " + string(b))
}

// gitCommit names the checkout's commit, when it is a git repository.
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
