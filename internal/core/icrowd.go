package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"icrowd/internal/aggregate"
	"icrowd/internal/assign"
	"icrowd/internal/bitset"
	"icrowd/internal/estimate"
	"icrowd/internal/obsv"
	"icrowd/internal/ppr"
	"icrowd/internal/qualify"
	"icrowd/internal/simgraph"
	"icrowd/internal/task"
)

// Mode selects the assignment behaviour of the framework — the three
// strategies compared in Section 6.3.2.
type Mode string

// Modes.
const (
	// ModeAdapt is full iCrowd: adaptive estimation plus optimal-greedy
	// assignment with worker performance testing.
	ModeAdapt Mode = "Adapt"
	// ModeQFOnly freezes accuracy estimation after qualification.
	ModeQFOnly Mode = "QF-Only"
	// ModeBestEffort updates estimation adaptively but assigns each
	// requesting worker their individually-best microtask.
	ModeBestEffort Mode = "BestEffort"
)

// ICrowd is the adaptive crowdsourcing framework (Figure 1). It implements
// Strategy and is safe for concurrent use: RequestTask, SubmitAnswer,
// WorkerInactive, Done, Results and Rejected may be called from any number
// of goroutines.
//
// Locking. Worker warm-up state lives behind each workerInfo's own mutex;
// the shared job/estimator state behind ic.mu; the published assignment
// scheme behind schemeMu. Scheme recomputation is serialized by recomputeMu
// and runs against ic.mu's read side, so request-path reads (pending checks,
// Done, Results) proceed while Algorithm 2 rebuilds stale top worker sets.
// Lock order: recomputeMu, then workerInfo.mu, then ic.mu, then schemeMu;
// wmu and the event log are leaves never held across another acquisition.
type ICrowd struct {
	cfg    Config
	ds     *task.Dataset
	job    *Job
	est    *estimate.Estimator
	warm   *qualify.WarmUp
	qual   []int      // qualification microtasks, in serving order
	isQual bitset.Set // the same set over task IDs

	// basis/lazyGraph back lazy-basis mode (WithLazyBasis): lazyGraph non-nil
	// means basis vectors are solved on first observation, under ic.mu.
	basis     *ppr.Basis
	lazyGraph *simgraph.Graph

	wmu     sync.Mutex // guards the workers map and list (not the infos)
	workers map[string]*workerInfo
	// order lists every worker in registration order. It is append-only,
	// so a copy of its header taken under wmu stays a valid snapshot.
	order []*workerInfo

	mu sync.RWMutex // guards job and est

	schemeMu sync.RWMutex
	scheme   map[string]int // worker -> task from the last Algorithm-2 run

	schemeDirty atomic.Bool
	recomputeMu sync.Mutex // serializes scheme recomputation
	events      eventLog
	sched       *scheduler
	active      []*workerInfo // recomputeScheme scratch, under recomputeMu

	// Hot-path instruments (nil when metrics are disabled via
	// WithMetrics(nil); every method on a nil instrument no-ops).
	// reqSample gates RequestTask latency sampling; see RequestTask.
	reqSample    atomic.Bool
	mReqLat      *obsv.Histogram // RequestTask latency (sampled)
	mSchemeLat   *obsv.Histogram // recomputeScheme latency (actual runs)
	mSchemeRuns  *obsv.Counter   // recomputeScheme actual runs
	mStaleTasks  *obsv.Gauge     // stale top-worker sets in the last run
	mPoolWorkers *obsv.Gauge     // pool fan-out of the last run
	schemeBeat   *obsv.Heartbeat // beaten by every completed recompute
}

type workerInfo struct {
	id string
	// ord is the worker's estimator ordinal. It is written before qualified
	// is set and read only after qualified is seen set.
	ord int

	mu          sync.Mutex // guards the warm-up fields below
	qualIdx     int
	pendingQual int // qualification task currently held, -1 none
	qualAnswers map[int]task.Answer

	qualified atomic.Bool
	rejected  atomic.Bool
}

// New builds the framework over a precomputed basis (share one basis across
// runs that use the same dataset, measure and alpha). By default
// qualification microtasks are selected per cfg.QualStrategy; pass
// WithQualification to supply an explicit set instead.
func New(ds *task.Dataset, basis *ppr.Basis, cfg Config, opts ...Option) (*ICrowd, error) {
	no := newOptions{schemeCache: true}
	for _, o := range opts {
		o(&no)
	}
	if basis.N() != ds.Len() {
		return nil, errors.New("core: basis does not match dataset")
	}
	if cfg.K < 1 {
		return nil, errors.New("core: K must be >= 1")
	}
	if cfg.Concurrency < 0 {
		return nil, errors.New("core: Concurrency must be >= 0")
	}
	switch cfg.Mode {
	case ModeAdapt, ModeQFOnly, ModeBestEffort:
	case "":
		cfg.Mode = ModeAdapt
	default:
		return nil, fmt.Errorf("core: unknown mode %q", cfg.Mode)
	}
	qual := no.qual
	if !no.qualSet {
		if cfg.Q < 1 {
			return nil, errors.New("core: Q must be >= 1")
		}
		if cfg.QualStrategy == "" {
			cfg.QualStrategy = qualify.InfQF
		}
		if no.lazyGraph != nil && cfg.QualStrategy == qualify.InfQF {
			// Influence maximization ranks every task by its basis support —
			// it needs the full basis a lazy run exists to avoid.
			return nil, errors.New("core: lazy basis requires WithQualification or QualStrategy RandomQF (InfQF reads the full basis)")
		}
		var err error
		qual, err = qualify.Select(cfg.QualStrategy, basis, cfg.Q, cfg.Seed)
		if err != nil {
			return nil, err
		}
	}
	if no.lazyGraph != nil {
		if no.lazyGraph.N() != ds.Len() {
			return nil, errors.New("core: lazy-basis graph does not match dataset")
		}
		// Qualification microtasks are observed for every worker during
		// warm-up; solve their vectors once up front.
		if _, err := basis.SolveMissing(no.lazyGraph, qual); err != nil {
			return nil, err
		}
	}
	warm, err := qualify.NewWarmUp(ds, qual, cfg.WarmupThreshold)
	if err != nil {
		return nil, err
	}
	job, err := NewJob(ds, cfg.K)
	if err != nil {
		return nil, err
	}
	ic := &ICrowd{
		cfg:       cfg,
		ds:        ds,
		job:       job,
		est:       estimate.New(basis, cfg.Lambda),
		warm:      warm,
		qual:      warm.Tasks(),
		basis:     basis,
		lazyGraph: no.lazyGraph,
		workers:   map[string]*workerInfo{},
		scheme:    map[string]int{},
		sched:     newScheduler(no.schemeCache, cfg.Concurrency),
	}
	reg := no.metrics
	if !no.metricsSet {
		reg = obsv.Default()
	}
	ic.mReqLat = reg.Histogram("icrowd_core_request_seconds",
		"RequestTask latency (scheme lookups and Step-3 tests included).",
		obsv.HotLatencyBuckets)
	ic.mSchemeLat = reg.Histogram("icrowd_core_scheme_recompute_seconds",
		"Latency of actual Algorithm-2 scheme recomputations.", nil)
	ic.mSchemeRuns = reg.Counter("icrowd_core_scheme_runs_total",
		"Algorithm-2 scheme recomputations that actually ran (dirty flag won).")
	ic.mStaleTasks = reg.Gauge("icrowd_core_scheme_stale_tasks",
		"Stale top-worker sets recomputed by the last Algorithm-2 run.")
	ic.mPoolWorkers = reg.Gauge("icrowd_core_scheme_pool_workers",
		"Solver-pool fan-out of the last Algorithm-2 run.")
	ic.schemeBeat = obsv.NewHeartbeat(reg.Gauge("icrowd_core_scheme_heartbeat_timestamp_seconds",
		"Unix time of the last completed Algorithm-2 scheme recomputation."))
	ic.schemeDirty.Store(true)
	// Qualification microtasks carry requester ground truth: the paper
	// treats them as globally completed from the start.
	for _, t := range qual {
		job.ForceComplete(t, ds.Tasks[t].Truth)
		ic.isQual.Add(t)
	}
	return ic, nil
}

// Name implements Strategy.
func (ic *ICrowd) Name() string {
	if ic.cfg.Mode == ModeAdapt {
		return "iCrowd"
	}
	return string(ic.cfg.Mode)
}

// ConcurrencySafe reports that the framework's Strategy methods may be
// called concurrently without external locking.
func (ic *ICrowd) ConcurrencySafe() bool { return true }

// Job exposes the underlying bookkeeping. Read-only use, and only while no
// Strategy call is in flight.
func (ic *ICrowd) Job() *Job { return ic.job }

// Estimator exposes the accuracy estimator. Read-only use, and only while
// no Strategy call is in flight.
func (ic *ICrowd) Estimator() *estimate.Estimator { return ic.est }

// QualificationTasks returns the selected qualification microtask IDs.
func (ic *ICrowd) QualificationTasks() []int { return append([]int(nil), ic.qual...) }

// Rejected reports whether the warm-up rejected the worker.
func (ic *ICrowd) Rejected(worker string) bool {
	info, ok := ic.worker(worker, false)
	return ok && info.rejected.Load()
}

// worker returns the info record for id, creating it when create is set.
// The boolean reports whether the record already existed.
func (ic *ICrowd) worker(id string, create bool) (*workerInfo, bool) {
	ic.wmu.Lock()
	defer ic.wmu.Unlock()
	info, ok := ic.workers[id]
	if !ok && create {
		info = &workerInfo{id: id, ord: -1, pendingQual: -1, qualAnswers: map[int]task.Answer{}}
		ic.workers[id] = info
		ic.order = append(ic.order, info)
	}
	return info, ok
}

// RequestTask implements Strategy. New workers first receive qualification
// microtasks (Warm-Up); qualified workers are served from the adaptive
// assignment scheme (Algorithm 2); workers the scheme skipped get a Step-3
// performance test.
// RequestTask latency is gate-sampled: every SubmitAnswer arms reqSample,
// and the next request to win the CAS is timed — at most one sample per
// submit, and it is the interesting request (the adaptive round after new
// evidence), not an idempotent redelivery read. The redelivery fast path
// pays a single atomic load (~2ns); timing every request would cost two
// clock reads (~130ns on this class of box), and even a shared sampling
// counter is an RMW (~10ns) — both beyond the <= 5% observability budget
// that BENCH_hotpath.json tracks. Pure redelivery storms still show up in
// the platform's per-endpoint HTTP histogram.
func (ic *ICrowd) RequestTask(worker string) (int, bool) {
	if ic.mReqLat == nil || !ic.reqSample.Load() {
		return ic.requestTask(worker)
	}
	if !ic.reqSample.CompareAndSwap(true, false) {
		return ic.requestTask(worker)
	}
	start := time.Now()
	t, ok := ic.requestTask(worker)
	ic.mReqLat.Observe(time.Since(start))
	return t, ok
}

func (ic *ICrowd) requestTask(worker string) (int, bool) {
	info, existed := ic.worker(worker, true)
	if !existed {
		ic.mu.Lock()
		ic.est.EnsureWorker(worker, estimate.DefaultBase)
		ic.mu.Unlock()
	}
	if info.rejected.Load() {
		return 0, false
	}
	if t, ok, served := ic.serveQualification(info); served {
		return t, ok
	}
	ic.mu.RLock()
	done := ic.job.Done()
	pending, busy := ic.job.Pending(worker)
	ic.mu.RUnlock()
	if done {
		return 0, false
	}
	if busy {
		return pending, true // idempotent re-request of the held task
	}
	if ic.cfg.Mode == ModeBestEffort {
		return ic.requestBestEffort(worker)
	}
	if ic.schemeDirty.Load() {
		ic.recomputeScheme()
	}
	if t, ok := ic.takeSchemeEntry(worker); ok {
		ic.mu.Lock()
		_, completed := ic.job.Completed(t)
		if !completed && !ic.job.Touched(worker, t) {
			if err := ic.job.Assign(worker, t); err == nil {
				ic.events.note(t)
				ic.mu.Unlock()
				return t, true
			}
		}
		ic.mu.Unlock()
	}
	// Step 3: performance testing for workers the scheme left out.
	return ic.performanceTest(worker)
}

// serveQualification hands out the worker's next qualification microtask.
// served is false once the warm-up phase is over.
func (ic *ICrowd) serveQualification(info *workerInfo) (taskID int, ok, served bool) {
	qual := ic.qual
	info.mu.Lock()
	defer info.mu.Unlock()
	if info.qualIdx >= len(qual) {
		return 0, false, false
	}
	if info.pendingQual < 0 {
		info.pendingQual = qual[info.qualIdx]
	}
	return info.pendingQual, true, true
}

// takeSchemeEntry pops the worker's entry from the published scheme.
func (ic *ICrowd) takeSchemeEntry(worker string) (int, bool) {
	ic.schemeMu.Lock()
	defer ic.schemeMu.Unlock()
	t, ok := ic.scheme[worker]
	if ok {
		delete(ic.scheme, worker)
	}
	return t, ok
}

// recomputeScheme rebuilds and publishes the assignment scheme if it is
// stale. Only one recomputation runs at a time; the dirty flag is cleared
// before reading state so a concurrent mutation re-marks it rather than
// being lost.
func (ic *ICrowd) recomputeScheme() {
	ic.recomputeMu.Lock()
	defer ic.recomputeMu.Unlock()
	if !ic.schemeDirty.Swap(false) {
		return // an earlier holder already recomputed
	}
	var start time.Time
	if ic.mSchemeLat != nil {
		start = time.Now()
	}

	ic.wmu.Lock()
	all := ic.order
	ic.wmu.Unlock()

	// Registration order is as good as any: the scheduler's result does not
	// depend on the order of the active workers.
	ic.mu.RLock()
	active := ic.active[:0]
	for _, info := range all {
		if !info.qualified.Load() || info.rejected.Load() {
			continue
		}
		if _, busy := ic.job.Pending(info.id); busy {
			continue
		}
		active = append(active, info)
	}
	ic.active = active
	scheme := ic.sched.compute(ic, active)
	ic.mu.RUnlock()

	ic.schemeMu.Lock()
	ic.scheme = scheme
	ic.schemeMu.Unlock()
	if ic.mSchemeLat != nil {
		ic.mSchemeLat.Observe(time.Since(start))
		ic.mSchemeRuns.Inc()
	}
	ic.schemeBeat.Beat()
}

// SchemeHeartbeat returns when the adaptive scheme was last recomputed
// (zero before the first run) — the liveness signal operators watch to
// spot a wedged adaptive loop, also exported as the
// icrowd_core_scheme_heartbeat_timestamp_seconds gauge.
func (ic *ICrowd) SchemeHeartbeat() time.Time { return ic.schemeBeat.Last() }

// ensureBasis lazily solves the basis vector of a task that is about to be
// observed (lazy-basis mode only; a no-op otherwise and for already-solved
// seeds). Caller holds ic.mu — the estimator reads basis vectors under the
// same lock, so the solve-before-observe ordering is race-free.
func (ic *ICrowd) ensureBasis(taskID int) error {
	if ic.lazyGraph == nil {
		return nil
	}
	_, err := ic.basis.SolveMissing(ic.lazyGraph, []int{taskID})
	return err
}

// eligible reports whether the worker may be assigned the task under the
// optional eligibility restriction.
func (ic *ICrowd) eligible(worker string, taskID int) bool {
	return ic.cfg.Eligible == nil || ic.cfg.Eligible(worker, taskID)
}

// requestBestEffort assigns the microtask with the worker's own highest
// estimated accuracy (the BestEffort ablation of Section 6.3.2).
func (ic *ICrowd) requestBestEffort(worker string) (int, bool) {
	ic.mu.Lock()
	best, bestAcc := -1, -1.0
	for _, t := range ic.job.Uncompleted() {
		if ic.job.Capacity(t) == 0 || ic.job.Touched(worker, t) || !ic.eligible(worker, t) {
			continue
		}
		if a := ic.est.Accuracy(worker, t); a > bestAcc {
			best, bestAcc = t, a
		}
	}
	if best >= 0 {
		err := ic.job.Assign(worker, best)
		if err == nil {
			ic.events.note(best)
		}
		ic.mu.Unlock()
		if err != nil {
			return 0, false
		}
		return best, true
	}
	ic.mu.Unlock()
	return ic.performanceTest(worker)
}

// performanceTest implements Step 3 of Section 4.1: a worker the scheme
// left out gets a *test* microtask. Globally completed microtasks are the
// preferred targets — their consensus grades the answer immediately and the
// extra vote never perturbs the k-vote consensus. If none is eligible the
// framework falls back to a regular assignment so the job cannot stall.
//
// Qualification microtasks are completed from the start but never test
// targets: a worker reaches Step 3 only after answering all of them.
func (ic *ICrowd) performanceTest(worker string) (int, bool) {
	ic.mu.Lock()
	defer ic.mu.Unlock()
	ord := ic.est.Ordinal(worker)
	pick := assign.NewTestPick()
	for t := range ic.job.tasks {
		s := &ic.job.tasks[t]
		if !s.done || ic.isQual.Has(t) || s.touched(worker) || !ic.eligible(worker, t) {
			continue
		}
		sum := ic.sumAccuracy(s.votes, nil, t)
		pick.Offer(t, ic.est.UncertaintyAt(ord, t), sum, len(s.votes))
	}
	if t, ok := pick.Best(); ok {
		if err := ic.job.AssignTest(worker, t); err == nil {
			ic.events.note(t)
			return t, true
		}
	}
	// Fallback: no completed microtask to test with — hand out a regular
	// assignment on an uncompleted microtask instead.
	pick = assign.NewTestPick()
	for t := range ic.job.tasks {
		s := &ic.job.tasks[t]
		if s.done || s.touched(worker) || !ic.eligible(worker, t) {
			continue
		}
		sum := ic.sumAccuracy(s.votes, s.holders, t)
		pick.Offer(t, ic.est.UncertaintyAt(ord, t), sum, len(s.votes)+len(s.holders))
	}
	t, ok := pick.Best()
	if !ok {
		return 0, false
	}
	if err := ic.job.Assign(worker, t); err != nil {
		return 0, false
	}
	ic.events.note(t)
	return t, true
}

// sumAccuracy adds up the estimated accuracies on taskID of the voters,
// then of the holders, in that order. Caller holds ic.mu.
func (ic *ICrowd) sumAccuracy(votes []aggregate.Vote, holders []string, taskID int) float64 {
	var sum float64
	for _, v := range votes {
		sum += ic.est.Accuracy(v.Worker, taskID)
	}
	for _, w := range holders {
		sum += ic.est.Accuracy(w, taskID)
	}
	return sum
}

// SubmitAnswer implements Strategy. Qualification answers are graded
// against ground truth; crowd answers feed the job bookkeeping, and when a
// microtask reaches consensus the estimator observes every voter via
// Eq. (5) (unless the mode is QF-Only).
func (ic *ICrowd) SubmitAnswer(worker string, taskID int, ans task.Answer) error {
	if ic.mReqLat != nil {
		ic.reqSample.Store(true) // arm latency sampling for the next request
	}
	info, ok := ic.worker(worker, false)
	if !ok {
		return fmt.Errorf("core: unknown worker %s", worker)
	}
	info.mu.Lock()
	if info.pendingQual == taskID && info.pendingQual >= 0 {
		err := ic.submitQualification(worker, info, taskID, ans)
		info.mu.Unlock()
		return err
	}
	info.mu.Unlock()

	ic.mu.Lock()
	defer ic.mu.Unlock()
	if ic.job.PendingTest(worker, taskID) {
		return ic.submitTest(worker, taskID, ans)
	}
	completedNow, consensus, err := ic.job.Submit(worker, taskID, ans)
	if err != nil {
		return err
	}
	ic.events.note(taskID)
	if ic.cfg.Mode != ModeQFOnly {
		// Observe (or re-observe) every voter against the consensus. Late
		// votes on already-completed tasks — e.g. from Step-3 performance
		// tests — refresh everyone's Eq. (5) observation with the larger
		// vote set and the newest accuracy estimates.
		if !completedNow {
			consensus, _ = ic.job.Completed(taskID)
		}
		if consensus == task.Yes || consensus == task.No {
			if err := ic.ensureBasis(taskID); err != nil {
				return err
			}
			if err := ic.est.ObserveConsensus(taskID, ic.job.Votes(taskID), consensus); err != nil {
				return err
			}
		}
	}
	ic.schemeDirty.Store(true)
	return nil
}

// submitTest grades a Step-3 test answer against the task's consensus: hard
// 0/1 when the task was qualification-seeded (requester ground truth, no
// crowd votes), Eq.-(5)-style soft otherwise. Caller holds ic.mu.
func (ic *ICrowd) submitTest(worker string, taskID int, ans task.Answer) error {
	if _, _, err := ic.job.Submit(worker, taskID, ans); err != nil {
		return err
	}
	ic.events.note(taskID)
	if ic.cfg.Mode == ModeQFOnly {
		return nil // estimation frozen after qualification
	}
	consensus, done := ic.job.Completed(taskID)
	if !done {
		return nil
	}
	votes := ic.job.Votes(taskID)
	var q float64
	if len(votes) == 0 {
		if ans == consensus {
			q = 1
		}
	} else {
		var pAgree, pDisagree []float64
		for _, v := range votes {
			p := ic.est.Accuracy(v.Worker, taskID)
			if v.Answer == consensus {
				pAgree = append(pAgree, p)
			} else {
				pDisagree = append(pDisagree, p)
			}
		}
		q = estimate.ObservedAccuracy(pAgree, pDisagree, ans == consensus)
	}
	if err := ic.ensureBasis(taskID); err != nil {
		return err
	}
	if err := ic.est.Observe(worker, taskID, q); err != nil {
		return err
	}
	ic.schemeDirty.Store(true)
	return nil
}

// submitQualification grades a warm-up answer. Caller holds info.mu; ic.mu
// is acquired inside (lock order: workerInfo.mu before ic.mu).
func (ic *ICrowd) submitQualification(worker string, info *workerInfo, taskID int, ans task.Answer) error {
	correct, ok := ic.warm.Grade(taskID, ans)
	if !ok {
		return fmt.Errorf("core: task %d is not a qualification microtask", taskID)
	}
	info.qualAnswers[taskID] = ans
	info.pendingQual = -1
	info.qualIdx++
	ic.mu.Lock()
	defer ic.mu.Unlock()
	if err := ic.ensureBasis(taskID); err != nil {
		return err
	}
	if err := ic.est.ObserveQualification(worker, taskID, correct); err != nil {
		return err
	}
	if info.qualIdx >= len(ic.qual) {
		avg, pass := ic.warm.Evaluate(info.qualAnswers)
		ic.est.SetBase(worker, avg)
		if pass {
			info.ord = ic.est.Ordinal(worker)
			info.qualified.Store(true)
		} else {
			info.rejected.Store(true)
		}
		ic.schemeDirty.Store(true)
	}
	return nil
}

// WorkerInactive implements Strategy.
func (ic *ICrowd) WorkerInactive(worker string) {
	info, ok := ic.worker(worker, false)
	ic.mu.Lock()
	if t, busy := ic.job.Pending(worker); busy {
		ic.events.note(t)
	}
	ic.job.Release(worker)
	ic.mu.Unlock()
	if ok {
		info.mu.Lock()
		info.pendingQual = -1
		info.mu.Unlock()
	}
	ic.schemeMu.Lock()
	delete(ic.scheme, worker)
	ic.schemeMu.Unlock()
	ic.schemeDirty.Store(true)
}

// Done implements Strategy.
func (ic *ICrowd) Done() bool {
	ic.mu.RLock()
	defer ic.mu.RUnlock()
	return ic.job.Done()
}

// Results implements Strategy: majority-vote consensus (Section 2.1).
func (ic *ICrowd) Results() map[int]task.Answer {
	ic.mu.RLock()
	defer ic.mu.RUnlock()
	return ic.job.MajorityResults()
}
