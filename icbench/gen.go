package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"icrowd/internal/experiments"
	"icrowd/internal/platform"
	"icrowd/internal/sim"
	"icrowd/internal/task"
)

// The load generator runs in its own process (`icbench gen`) so its CPU
// never mixes with the server's. It is open-loop: arrivals are drawn from
// the seed up front and released on an absolute clock, whatever the server
// is doing, and each /assign is timed from when its arrival was due, so a
// stall is charged to every arrival queued behind it (no coordinated
// omission). It uses at most as many client goroutines and connections as
// there are CPUs.

// genConfig is the generator's input, written by the orchestrator.
type genConfig struct {
	Target      string `json:"target"`
	Seed        int64  `json:"seed"`
	DatasetSeed int64  `json:"datasetSeed"`
	Workers     int    `json:"workers"`
	// Slots are the concurrently served projects; a slot whose project
	// reports done is refilled with a freshly created project.
	Slots      []projectRecord `json:"slots"`
	Phases     []phaseSpec     `json:"phases"`
	Conns      int             `json:"conns"`
	TimeoutMs  int             `json:"timeoutMs"`
	ServerPIDs []int           `json:"serverPids"`
	RouterPID  int             `json:"routerPid"`
	// TraceURLs are traced processes whose layer timings cover exactly
	// the main phase.
	TraceURLs []string `json:"traceUrls"`
}

// phaseSpec is one constant-rate stretch of Poisson arrivals.
type phaseSpec struct {
	Name    string  `json:"name"`
	Rate    float64 `json:"rate"`
	Seconds float64 `json:"seconds"`
}

// projectRecord is one project the generator drove.
type projectRecord struct {
	ID   string `json:"id"`
	Slot int    `json:"slot"`
	// Qual holds the qualification microtasks: the server completes them
	// with ground truth at creation, so they are excluded from accuracy.
	Qual []int `json:"qual"`
	// Create asks the generator to PUT the project before the first phase.
	Create   bool    `json:"create,omitempty"`
	CreateMs float64 `json:"createMs,omitempty"`
	// Accepted counts first-time accepted submits the generator saw.
	Accepted int `json:"accepted"`
	// Results is the project's /results once the last phase ended.
	Results map[int]string `json:"results,omitempty"`
}

// Sentinels in a phase's latency slices, which hold one entry per arrival.
const (
	failedSample = -1.0 // the operation failed
	noSample     = -2.0 // the arrival issued no such operation
)

// phaseReport is what one phase measured. Latency slices are in ms, one
// entry per arrival, with failedSample and noSample as sentinels.
type phaseReport struct {
	Name         string    `json:"name"`
	Rate         float64   `json:"rate"`
	Arrivals     int       `json:"arrivals"`
	OfferedRate  float64   `json:"offeredRate"`
	AchievedRate float64   `json:"achievedRate"`
	WallSeconds  float64   `json:"wallSeconds"`
	LagMs        []float64 `json:"lagMs"`
	AssignMs     []float64 `json:"assignMs"`
	SubmitMs     []float64 `json:"submitMs"`
	Assigned     []bool    `json:"assigned"`
	Accepted     int       `json:"accepted"`
	Fail5xx      int       `json:"fail5xx"`
	Fail429      int       `json:"fail429"`
	Fail4xx      int       `json:"fail4xx"`
	FailTimeout  int       `json:"failTimeout"`
	FailNet      int       `json:"failNet"`
	Replaced     int       `json:"replaced"`
	// TasksCompleted is the number of microtasks that reached consensus
	// during the phase, summed over every project served in it.
	TasksCompleted int       `json:"tasksCompleted"`
	ServerCPU      []float64 `json:"serverCpu"`
	RouterCPU      float64   `json:"routerCpu"`
	GenCPU         float64   `json:"genCpu"`
	// StealShare is the share of the machine's CPU time the hypervisor
	// gave to other guests during the phase (/proc/stat steal): a noisy
	// neighbour shows here, not in the server's numbers.
	StealShare float64 `json:"stealShare"`
	// RSSMB is the median resident memory of the serving processes.
	RSSMB float64 `json:"rssMb"`
	// NearSteal counts the arrivals due in or next to a stolen window
	// (see sampler): a run with many of them met a noisy neighbour and is
	// worth re-running, but its latencies still count every arrival.
	NearSteal int `json:"nearSteal"`
	// Layers holds each traced process's /bench/layers for the phase.
	Layers []json.RawMessage `json:"layers,omitempty"`
}

// genReport is the generator's output.
type genReport struct {
	Phases   []phaseReport   `json:"phases"`
	Projects []projectRecord `json:"projects"`
	// AccuracyFloor is the accuracy of one answer from a worker drawn at
	// the pool's request rates, from the simulator's latent accuracies.
	AccuracyFloor float64 `json:"accuracyFloor"`
	GOMAXPROCS    int     `json:"gomaxprocs"`
	Conns         int     `json:"conns"`
}

func genMain(args []string) int {
	fs := flag.NewFlagSet("gen", flag.ContinueOnError)
	cfgPath := fs.String("config", "", "generator config (JSON)")
	outPath := fs.String("out", "", "report output (JSON)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var cfg genConfig
	if err := readJSON(*cfgPath, &cfg); err != nil {
		fmt.Fprintln(os.Stderr, "gen:", err)
		return 1
	}
	rep, err := runGen(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gen:", err)
		return 1
	}
	if err := writeJSON(*outPath, rep); err != nil {
		fmt.Fprintln(os.Stderr, "gen:", err)
		return 1
	}
	return 0
}

// crowdWorker is one simulated worker; mu keeps a worker to one session
// at a time, as a person works one HIT at a time.
type crowdWorker struct {
	mu      sync.Mutex
	profile *sim.Profile
}

// slot is one project position; id changes when the project is replaced.
type slot struct {
	mu      sync.Mutex
	index   int
	gen     int
	project *projectRecord
}

type generator struct {
	cfg      genConfig
	ds       *task.Dataset
	client   *http.Client
	workers  []*crowdWorker
	rateCum  []float64 // cumulative request rates of the workers
	slots    []*slot
	pmu      sync.Mutex
	projects []*projectRecord
}

func runGen(cfg genConfig) (*genReport, error) {
	if cfg.Conns <= 0 {
		cfg.Conns = runtime.NumCPU()
	}
	if cfg.TimeoutMs <= 0 {
		cfg.TimeoutMs = 2000
	}
	ds, _, err := experiments.LoadDataset(experiments.DatasetItemCompare, cfg.DatasetSeed, 0)
	if err != nil {
		return nil, err
	}
	g := &generator{
		cfg: cfg,
		ds:  ds,
		client: &http.Client{
			Timeout: time.Duration(cfg.TimeoutMs) * time.Millisecond,
			Transport: &http.Transport{
				MaxConnsPerHost:     cfg.Conns,
				MaxIdleConnsPerHost: cfg.Conns,
				DisableCompression:  true,
				DialContext:         (&net.Dialer{Timeout: time.Second}).DialContext,
			},
		},
	}
	g.buildCrowd()
	for i := range cfg.Slots {
		p := cfg.Slots[i]
		p.Slot = i
		rec := &p
		g.slots = append(g.slots, &slot{index: i, project: rec})
		g.projects = append(g.projects, rec)
		if p.Create {
			if err := g.create(rec); err != nil {
				return nil, err
			}
		}
	}
	rep := &genReport{GOMAXPROCS: runtime.GOMAXPROCS(0), Conns: cfg.Conns, AccuracyFloor: g.accuracyFloor()}
	for i, ph := range cfg.Phases {
		traced := ph.Name == mainPhase && len(cfg.TraceURLs) > 0
		if traced {
			for _, u := range cfg.TraceURLs {
				if status, err := g.do(http.MethodPost, u+"/bench/reset", nil, nil); err != nil || status != http.StatusOK {
					return nil, fmt.Errorf("reset %s: status %d: %v", u, status, err)
				}
			}
		}
		pr, err := g.runPhase(i, ph)
		if err != nil {
			return nil, fmt.Errorf("phase %s: %w", ph.Name, err)
		}
		if traced {
			for _, u := range cfg.TraceURLs {
				var raw json.RawMessage
				if status, err := g.do(http.MethodGet, u+"/bench/layers", nil, &raw); err != nil || status != http.StatusOK {
					return nil, fmt.Errorf("layers of %s: status %d: %v", u, status, err)
				}
				pr.Layers = append(pr.Layers, raw)
			}
		}
		rep.Phases = append(rep.Phases, *pr)
	}
	for _, p := range g.projects {
		res, err := g.results(p.ID)
		if err != nil {
			return nil, err
		}
		p.Results = res
		rep.Projects = append(rep.Projects, *p)
	}
	return rep, nil
}

// buildCrowd draws the crowd: the Fig-6 ItemCompare pool with its skewed
// request rates.
func (g *generator) buildCrowd() {
	opts := sim.DefaultPoolOptions()
	opts.DomainCaps = map[string]float64{"Auto": 0.76}
	pool := sim.GeneratePool(g.ds, g.cfg.Workers, opts, crowdSeed)
	total := 0.0
	for i := range pool {
		total += pool[i].RequestRate
		g.rateCum = append(g.rateCum, total)
		g.workers = append(g.workers, &crowdWorker{profile: &pool[i]})
	}
}

// accuracyFloor is the expected accuracy of a single answer from a worker
// drawn at the pool's request rates on a uniformly drawn task.
func (g *generator) accuracyFloor() float64 {
	num, den := 0.0, 0.0
	for _, w := range g.workers {
		r := w.profile.RequestRate
		if r <= 0 {
			r = 1
		}
		for i := range g.ds.Tasks {
			num += r * w.profile.AccuracyOn(g.ds.Tasks[i].Domain)
			den += r
		}
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// arrival is one scheduled session: a worker asking a project for a task.
type arrival struct {
	due    time.Duration
	worker int
	slot   int
}

// schedule draws a phase's Poisson arrivals from the seed alone.
func (g *generator) schedule(phase int, ph phaseSpec) []arrival {
	rng := rand.New(rand.NewSource(g.cfg.Seed*7919 + int64(phase)*104729))
	var out []arrival
	t := 0.0
	n := len(g.rateCum)
	for {
		t += rng.ExpFloat64() / ph.Rate
		if t >= ph.Seconds {
			return out
		}
		a := arrival{due: time.Duration(t * float64(time.Second)), slot: rng.Intn(len(g.slots))}
		u := rng.Float64() * g.rateCum[n-1]
		a.worker = sort.SearchFloat64s(g.rateCum, u)
		if a.worker >= n {
			a.worker = n - 1
		}
		out = append(out, a)
	}
}

// runPhase releases one phase's arrivals on an absolute clock and runs
// them on cfg.Conns client goroutines.
func (g *generator) runPhase(idx int, ph phaseSpec) (*phaseReport, error) {
	sched := g.schedule(idx, ph)
	n := len(sched)
	pr := &phaseReport{
		Name: ph.Name, Rate: ph.Rate, Arrivals: n,
		LagMs: make([]float64, n), AssignMs: make([]float64, n),
		SubmitMs: make([]float64, n), Assigned: make([]bool, n),
	}
	if n == 0 {
		return nil, errors.New("empty schedule")
	}
	before, err := g.completedNow(nil)
	if err != nil {
		return nil, err
	}
	servers0, router0, gen0 := g.cpuNow()
	steal0, ticks0 := stealTicks()
	pids := append([]int(nil), g.cfg.ServerPIDs...)
	if g.cfg.RouterPID > 0 {
		pids = append(pids, g.cfg.RouterPID)
	}
	smp := startSampler(pids)
	var cmu sync.Mutex // guards pr's counters
	sends := make([]time.Duration, n)
	// The buffer holds every arrival of the phase, so the dispatcher never
	// blocks and its clock never slips behind a slow server.
	jobs := make(chan int, n)
	start := time.Now().Add(5 * time.Millisecond)
	var wg sync.WaitGroup
	for c := 0; c < g.cfg.Conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				g.session(i, sched[i], start, pr, sends, &cmu)
			}
		}()
	}
	for i, a := range sched {
		if d := time.Until(start.Add(a.due)); d > 0 {
			time.Sleep(d)
		}
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	wall := time.Since(start)
	rss, nearSteal := smp.finish()
	pr.RSSMB = rss
	for _, a := range sched {
		if nearSteal(start.Add(a.due)) {
			pr.NearSteal++
		}
	}
	servers1, router1, gen1 := g.cpuNow()
	if steal1, ticks1 := stealTicks(); ticks1 > ticks0 {
		pr.StealShare = (steal1 - steal0) / (ticks1 - ticks0)
	}
	for i := range servers0 {
		pr.ServerCPU = append(pr.ServerCPU, servers1[i]-servers0[i])
	}
	pr.RouterCPU = router1 - router0
	pr.GenCPU = gen1 - gen0
	pr.WallSeconds = wall.Seconds()
	lastDue, lastSend := sched[n-1].due, time.Duration(0)
	for _, s := range sends {
		if s > lastSend {
			lastSend = s
		}
	}
	pr.OfferedRate = float64(n) / lastDue.Seconds()
	pr.AchievedRate = float64(n) / math.Max(lastSend.Seconds(), lastDue.Seconds())
	after, err := g.completedNow(before)
	if err != nil {
		return nil, err
	}
	for id, c := range after {
		pr.TasksCompleted += c - before[id]
	}
	return pr, nil
}

// session is one arrival: assign, then answer from the worker's latent
// profile and submit at once.
func (g *generator) session(i int, a arrival, start time.Time, pr *phaseReport, sends []time.Duration, cmu *sync.Mutex) {
	w := g.workers[a.worker]
	w.mu.Lock()
	defer w.mu.Unlock()
	s := g.slots[a.slot]
	s.mu.Lock()
	p := s.project
	s.mu.Unlock()

	due := start.Add(a.due)
	sent := time.Now()
	sends[i] = sent.Sub(start)
	pr.LagMs[i] = msSince(due, sent)
	var ar platform.AssignResponse
	status, err := g.do(http.MethodGet, g.cfg.Target+"/v1/projects/"+p.ID+"/assign?workerId="+w.profile.ID, nil, &ar)
	pr.AssignMs[i] = msSince(due, time.Now())
	if !g.ok(status, err, pr, cmu) {
		pr.AssignMs[i] = failedSample
		pr.SubmitMs[i] = noSample
		return
	}
	pr.SubmitMs[i] = noSample
	if ar.Done {
		if g.replace(s, p) {
			cmu.Lock()
			pr.Replaced++
			cmu.Unlock()
		}
		return
	}
	if !ar.Assigned || ar.TaskID < 0 || ar.TaskID >= g.ds.Len() {
		return
	}
	pr.Assigned[i] = true
	ans := sim.Answer(w.profile, &g.ds.Tasks[ar.TaskID], answerRand(a.worker, ar.TaskID))
	body, _ := json.Marshal(platform.SubmitRequest{WorkerID: w.profile.ID, TaskID: ar.TaskID, Answer: ans.String()})
	var sr platform.SubmitResponse
	t0 := time.Now()
	status, err = g.do(http.MethodPost, g.cfg.Target+"/v1/projects/"+p.ID+"/submit", body, &sr)
	pr.SubmitMs[i] = msSince(t0, time.Now())
	if !g.ok(status, err, pr, cmu) {
		pr.SubmitMs[i] = failedSample
		return
	}
	// A duplicate acknowledges an earlier submit; it adds nothing to the
	// log, so it is not counted as accepted.
	if sr.Accepted && !sr.Duplicate {
		cmu.Lock()
		pr.Accepted++
		cmu.Unlock()
		g.pmu.Lock()
		p.Accepted++
		g.pmu.Unlock()
	}
}

// ok classifies a response, counting every failure class separately.
func (g *generator) ok(status int, err error, pr *phaseReport, cmu *sync.Mutex) bool {
	if err == nil && status >= 200 && status < 300 {
		return true
	}
	cmu.Lock()
	defer cmu.Unlock()
	var ne net.Error
	switch {
	case err != nil && errors.As(err, &ne) && ne.Timeout():
		pr.FailTimeout++
	case err != nil:
		pr.FailNet++
	case status == http.StatusTooManyRequests:
		pr.Fail429++
	case status >= 500:
		pr.Fail5xx++
	default:
		pr.Fail4xx++
	}
	return false
}

// replace refills a slot whose project reported done with a new project.
func (g *generator) replace(s *slot, old *projectRecord) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.project != old {
		return false // another session already replaced it
	}
	s.gen++
	rec := &projectRecord{ID: fmt.Sprintf("%s-r%d", old.ID, s.gen), Slot: s.index}
	if err := g.create(rec); err != nil {
		fmt.Fprintln(os.Stderr, "gen: replacing project:", err)
		return false
	}
	g.pmu.Lock()
	g.projects = append(g.projects, rec)
	g.pmu.Unlock()
	s.project = rec
	return true
}

// create PUTs a project and records its qualification microtasks (the
// tasks already completed the moment it exists).
func (g *generator) create(p *projectRecord) error {
	t0 := time.Now()
	status, err := g.do(http.MethodPut, g.cfg.Target+"/v1/projects/"+p.ID, nil, nil)
	if err != nil || (status != http.StatusCreated && status != http.StatusOK) {
		return fmt.Errorf("create project %s: status %d: %v", p.ID, status, err)
	}
	p.CreateMs = msSince(t0, time.Now())
	res, err := g.results(p.ID)
	if err != nil {
		return err
	}
	p.Qual = p.Qual[:0]
	for tid, a := range res {
		if a != "NONE" {
			p.Qual = append(p.Qual, tid)
		}
	}
	sort.Ints(p.Qual)
	return nil
}

func (g *generator) results(id string) (map[int]string, error) {
	var rr platform.ResultsResponse
	status, err := g.do(http.MethodGet, g.cfg.Target+"/v1/projects/"+id+"/results", nil, &rr)
	if err != nil || status != http.StatusOK {
		return nil, fmt.Errorf("results of %s: status %d: %v", id, status, err)
	}
	return rr.Results, nil
}

// completedNow reads every known project's completed-task count. A
// project missing from base (created during the phase) is based at its
// qualification count, which the server completes at creation.
func (g *generator) completedNow(base map[string]int) (map[string]int, error) {
	g.pmu.Lock()
	ps := append([]*projectRecord(nil), g.projects...)
	g.pmu.Unlock()
	out := map[string]int{}
	for _, p := range ps {
		var st platform.StatusResponse
		status, err := g.do(http.MethodGet, g.cfg.Target+"/v1/projects/"+p.ID+"/status", nil, &st)
		if err != nil || status != http.StatusOK {
			return nil, fmt.Errorf("status of %s: status %d: %v", p.ID, status, err)
		}
		out[p.ID] = st.Completed
		if base != nil {
			if _, ok := base[p.ID]; !ok {
				base[p.ID] = len(p.Qual)
			}
		}
	}
	return out, nil
}

// cpuNow samples the serving processes' and the generator's CPU seconds.
func (g *generator) cpuNow() (servers []float64, router, self float64) {
	for _, pid := range g.cfg.ServerPIDs {
		c, _ := procCPUSeconds(pid)
		servers = append(servers, c)
	}
	if g.cfg.RouterPID > 0 {
		router, _ = procCPUSeconds(g.cfg.RouterPID)
	}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		self = time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
	}
	return servers, router, self
}

// do sends one request and decodes a 2xx JSON body into out.
func (g *generator) do(method, url string, body []byte, out any) (int, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(context.Background(), method, url, rd)
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := g.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if out != nil && resp.StatusCode >= 200 && resp.StatusCode < 300 {
		if err := json.Unmarshal(b, out); err != nil {
			return resp.StatusCode, fmt.Errorf("decode %s: %w", url, err)
		}
	}
	return resp.StatusCode, nil
}

func msSince(from, to time.Time) float64 { return float64(to.Sub(from)) / float64(time.Millisecond) }

// splitMix is a tiny seeded rand.Source64, cheap enough to make one per
// session so every answer depends only on the seed and the arrival.
type splitMix struct{ s uint64 }

func newSplitMix(seed uint64) *splitMix { return &splitMix{s: seed} }

// answerRand is the randomness behind one worker's answer to one task.
// Answers belong to the fixed crowd, like its accuracies: a worker answers
// a given task the same way in every run and every project. Otherwise a
// run's numbers would hinge on whether a busy worker happened to pass
// qualification in that run.
func answerRand(worker, taskID int) *rand.Rand {
	return rand.New(newSplitMix(uint64(crowdSeed)<<40 ^ uint64(worker)<<20 ^ uint64(taskID)))
}

func (r *splitMix) Uint64() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *splitMix) Int63() int64    { return int64(r.Uint64() >> 1) }
func (r *splitMix) Seed(seed int64) { r.s = uint64(seed) }

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(b, v)
}

func writeJSON(path string, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
