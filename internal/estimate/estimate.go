// Package estimate implements Section 3 of the paper: the observed-accuracy
// model of Eq. (5) and the graph-based similarity estimation of worker
// accuracies (Algorithm 1).
//
// Per Lemma 3, the estimator combines precomputed personalized-PageRank
// basis vectors p_{t_i} linearly with the observed accuracies q^w. On top of
// the paper's raw combination this implementation normalizes by the total
// observation mass reaching each task and shrinks toward the worker's
// warm-up base accuracy:
//
//	p_i^w = (sum_j q_j p_{t_j}(i) + lambda * base_w) / (sum_j p_{t_j}(i) + lambda)
//
// The normalization keeps estimates interpretable as probabilities in [0, 1]
// regardless of how many completed microtasks overlap a region, and the
// shrinkage realizes the paper's rule that "when estimating q^w for the
// first time, we use the average accuracy returned by the Warm-Up component
// as an estimate" — with zero graph evidence, p_i^w is exactly base_w. Both
// numerator and denominator are plain Lemma-3 linear combinations, so the
// O(|completed| * nnz) online cost and the support/influence semantics of
// Section 5 are unchanged. The raw combination remains available via
// RawCombine for verification against the closed form.
package estimate

import (
	"errors"
	"sort"

	"icrowd/internal/aggregate"
	"icrowd/internal/bitset"
	"icrowd/internal/obsv"
	"icrowd/internal/ppr"
	"icrowd/internal/stats"
	"icrowd/internal/task"
)

// DefaultLambda is the shrinkage weight toward the warm-up base accuracy.
const DefaultLambda = 0.5

// DefaultBase is the accuracy prior for workers with no warm-up information.
const DefaultBase = 0.5

// Estimator tracks per-worker observations and produces accuracy estimates.
//
// Every worker gets a dense ordinal at registration (Ordinal): 0, 1, 2, ...
// in registration order, never reused. Callers on the assignment hot path
// resolve a worker once and then query by ordinal (AccuracyAt, InSupportAt,
// PriorAt, UncertaintyAt), and EachSupport reports ordinals, so sets of
// workers can be bitsets instead of maps keyed by worker ID.
//
// The estimator also tracks on which tasks some worker's estimate changed
// since the last ResetDirty — the change feed the scheme scheduler (core)
// uses to recompute only the top worker sets that could have moved,
// instead of every set per event.
type Estimator struct {
	basis  *ppr.Basis
	lambda float64
	ws     map[string]*workerState
	byOrd  []*workerState // registered workers by ordinal
	// support[taskID] holds one evidence entry per worker with observation
	// mass on the task, in first-observation order: the index behind
	// instant top-worker computation (Section 4.1), scanned in place.
	support [][]evidence
	// inSupport[taskID] is the same set as a bitset over worker ordinals,
	// for membership tests that need no lookup in a worker's slot map.
	inSupport []bitset.Set

	// dirtyT are the tasks on which some worker's estimate changed since
	// the last reset (the union of the basis supports of the newly observed
	// tasks). dirtyWorkers counts the workers whose observations or base
	// changed, each once per feed generation gen. dirtyAll is set by
	// base-accuracy changes, which move a worker's estimate on every task
	// at once.
	dirtyT       bitset.List
	gen          uint64
	dirtyWorkers int
	dirtyAll     bool
}

type workerState struct {
	id       string
	ord      int // registration order, the worker's bit in inSupport
	base     float64
	dirtyGen uint64          // feed generation this worker was last counted dirty in
	observed map[int]float64 // task -> q_i^w
	slot     map[int]int32   // task -> index of this worker's entry in support[task]
}

// evidence holds both Lemma-3 combinations one worker's observations
// project onto one task, so an estimate costs one task lookup.
type evidence struct {
	w   *workerState
	num float64 // sum_j q_j p_{t_j}(i)
	den float64 // sum_j p_{t_j}(i)
}

// evidenceOn returns the worker's entry on taskID; the zero value (no mass)
// when no observation reaches it. The support bitset answers the common
// no-mass case without a lookup in the worker's slot map.
func (e *Estimator) evidenceOn(w *workerState, taskID int) evidence {
	if taskID < 0 || taskID >= len(e.inSupport) || !e.inSupport[taskID].Has(w.ord) {
		return evidence{}
	}
	return e.support[taskID][w.slot[taskID]]
}

// worker returns the state of the worker with ordinal ord; nil when no
// worker has it.
func (e *Estimator) worker(ord int) *workerState {
	if ord < 0 || ord >= len(e.byOrd) {
		return nil
	}
	return e.byOrd[ord]
}

// markWorkerDirty counts w in the dirty-worker gauge, once per feed
// generation.
func (e *Estimator) markWorkerDirty(w *workerState) {
	if w.dirtyGen != e.gen {
		w.dirtyGen = e.gen
		e.dirtyWorkers++
	}
}

// accuracy evaluates the shrunk estimate p_i^w from the worker's evidence
// on one task; zero evidence gives exactly the worker's prior estimate.
func (e *Estimator) accuracy(w *workerState, num, den float64) float64 {
	return stats.Clamp01((num + e.lambda*w.base) / (den + e.lambda))
}

// New creates an estimator over the precomputed basis. lambda <= 0 falls
// back to DefaultLambda.
func New(basis *ppr.Basis, lambda float64) *Estimator {
	if lambda <= 0 {
		lambda = DefaultLambda
	}
	return &Estimator{
		basis:     basis,
		lambda:    lambda,
		ws:        make(map[string]*workerState),
		support:   make([][]evidence, basis.N()),
		inSupport: make([]bitset.Set, basis.N()),
		gen:       1,
	}
}

// NumTasks returns the number of tasks covered by the basis.
func (e *Estimator) NumTasks() int { return e.basis.N() }

// EnsureWorker registers a worker with the given warm-up base accuracy if
// unknown; it returns whether the worker was newly added.
func (e *Estimator) EnsureWorker(id string, base float64) bool {
	if _, ok := e.ws[id]; ok {
		return false
	}
	w := &workerState{
		id:       id,
		ord:      len(e.byOrd),
		base:     stats.Clamp01(base),
		observed: map[int]float64{},
		slot:     map[int]int32{},
	}
	e.ws[id] = w
	e.byOrd = append(e.byOrd, w)
	e.markWorkerDirty(w)
	return true
}

// Ordinal returns the worker's registration ordinal, or -1 when the worker
// is unknown. Every ordinal-keyed query treats -1 as an unregistered worker.
func (e *Estimator) Ordinal(id string) int {
	if w, ok := e.ws[id]; ok {
		return w.ord
	}
	return -1
}

// SetBase updates a worker's warm-up base accuracy. A base change moves the
// worker's estimate on every task, so it marks the whole estimator dirty.
func (e *Estimator) SetBase(id string, base float64) {
	if e.EnsureWorker(id, base) {
		return
	}
	base = stats.Clamp01(base)
	if w := e.ws[id]; w.base != base {
		w.base = base
		e.markWorkerDirty(w)
		e.dirtyAll = true
	}
}

// Base returns the worker's warm-up base accuracy (DefaultBase if unknown).
func (e *Estimator) Base(id string) float64 {
	if w, ok := e.ws[id]; ok {
		return w.base
	}
	return DefaultBase
}

// Known reports whether the worker has been registered.
func (e *Estimator) Known(id string) bool {
	_, ok := e.ws[id]
	return ok
}

// Workers returns all registered worker IDs, sorted.
func (e *Estimator) Workers() []string {
	out := make([]string, 0, len(e.ws))
	for id := range e.ws {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// mUnconvergedReads counts observations folded in through a basis vector
// that never converged (or was never solved — a partial basis used without
// SolveMissing). Estimates built on such vectors carry the solver's
// truncation error; the counter is the online-path half of the convergence
// contract whose offline half is icrowd_ppr_unconverged_total.
var mUnconvergedReads = obsv.Default().Counter("icrowd_estimate_unconverged_basis_reads_total",
	"Observations combined through an unconverged or missing PPR basis vector.")

// Observe records observed accuracy q for worker id on a globally completed
// microtask, updating the cached combination incrementally. Re-observing a
// task replaces the previous value.
func (e *Estimator) Observe(id string, taskID int, q float64) error {
	if taskID < 0 || taskID >= e.basis.N() {
		return errors.New("estimate: task out of range")
	}
	if !e.basis.SolveResult(taskID).Converged {
		mUnconvergedReads.Inc()
	}
	if n := e.basis.N(); len(e.support) < n { // the basis was extended
		e.support = append(e.support, make([][]evidence, n-len(e.support))...)
		e.inSupport = append(e.inSupport, make([]bitset.Set, n-len(e.inSupport))...)
	}
	q = stats.Clamp01(q)
	e.EnsureWorker(id, DefaultBase)
	w := e.ws[id]
	vec := e.basis.Vec(taskID)
	if old, ok := w.observed[taskID]; ok {
		delta := q - old
		if delta != 0 {
			for t, p := range vec {
				e.support[t][w.slot[t]].num += delta * p
			}
			e.markDirty(w, vec)
		}
	} else {
		for t, p := range vec {
			i, ok := w.slot[t]
			if !ok {
				i = int32(len(e.support[t]))
				w.slot[t] = i
				e.support[t] = append(e.support[t], evidence{w: w})
				e.inSupport[t].Add(w.ord)
			}
			ev := &e.support[t][i]
			ev.num += q * p
			ev.den += p
		}
		e.markDirty(w, vec)
	}
	w.observed[taskID] = q
	return nil
}

// markDirty records that the worker's estimate moved on every task in the
// basis vector's support.
func (e *Estimator) markDirty(w *workerState, vec map[int]float64) {
	e.markWorkerDirty(w)
	for t := range vec {
		e.dirtyT.Add(t)
	}
}

// EachDirtyTask calls fn once, in no particular order, for every task on
// which at least one worker's estimate changed since the last ResetDirty.
// When DirtyAll reports true the set is not exhaustive — every task must be
// considered stale.
func (e *Estimator) EachDirtyTask(fn func(taskID int)) {
	for _, t := range e.dirtyT.Items() {
		fn(t)
	}
}

// DirtyAll reports whether a change invalidated every task at once (a
// worker's base accuracy moved after warm-up).
func (e *Estimator) DirtyAll() bool { return e.dirtyAll }

// Dirty-feed gauges on the process default registry, sampled whenever a
// consumer drains the feed: how much estimation churn each scheduler pass
// absorbed.
var (
	mDirtyWorkers = obsv.Default().Gauge("icrowd_estimate_dirty_workers",
		"Workers whose estimates changed in the drained dirty feed.")
	mDirtyTasks = obsv.Default().Gauge("icrowd_estimate_dirty_tasks",
		"Tasks invalidated in the drained dirty feed.")
)

// ResetDirty clears the change feed in place; the next EachDirtyTask
// reports changes relative to this point.
func (e *Estimator) ResetDirty() {
	mDirtyWorkers.Set(float64(e.dirtyWorkers))
	mDirtyTasks.Set(float64(e.dirtyT.Len()))
	e.gen++
	e.dirtyWorkers = 0
	e.dirtyT.Reset()
	e.dirtyAll = false
}

// ObserveQualification records a qualification outcome: q_i^w is 1 for a
// correct answer and 0 otherwise (Section 3.2, trivial case).
func (e *Estimator) ObserveQualification(id string, taskID int, correct bool) error {
	q := 0.0
	if correct {
		q = 1.0
	}
	return e.Observe(id, taskID, q)
}

// ObservedAccuracy evaluates Eq. (5): the probability that a worker's answer
// on a consensus-completed microtask is correct. pAgree are the current
// accuracy estimates of the workers who voted with the consensus (W1),
// pDisagree of those who voted against it (W2), and agrees tells whether the
// worker in question voted with the consensus.
func ObservedAccuracy(pAgree, pDisagree []float64, agrees bool) float64 {
	p1, p1bar := productPair(pAgree)
	p2, p2bar := productPair(pDisagree)
	num := p1 * p2bar // consensus correct
	alt := p1bar * p2 // consensus incorrect
	den := num + alt
	if den == 0 {
		return 0.5
	}
	if agrees {
		return num / den
	}
	return alt / den
}

func productPair(ps []float64) (prod, prodBar float64) {
	prod, prodBar = 1, 1
	for _, p := range ps {
		// Clamp away from {0,1}: a single certain worker must not zero out
		// the whole product (the paper's estimates never reach 0/1 either,
		// as they come from the smoothed graph model).
		const eps = 0.02
		if p < eps {
			p = eps
		}
		if p > 1-eps {
			p = 1 - eps
		}
		prod *= p
		prodBar *= 1 - p
	}
	return prod, prodBar
}

// ObserveConsensus applies Eq. (5) to every voter of a microtask that just
// reached the consensus answer, recording each voter's observed accuracy.
func (e *Estimator) ObserveConsensus(taskID int, votes []aggregate.Vote, consensus task.Answer) error {
	if consensus != task.Yes && consensus != task.No {
		return errors.New("estimate: consensus must be a binary answer")
	}
	var pAgree, pDisagree []float64
	for _, v := range votes {
		p := e.Accuracy(v.Worker, taskID)
		if v.Answer == consensus {
			pAgree = append(pAgree, p)
		} else {
			pDisagree = append(pDisagree, p)
		}
	}
	for _, v := range votes {
		q := ObservedAccuracy(pAgree, pDisagree, v.Answer == consensus)
		if err := e.Observe(v.Worker, taskID, q); err != nil {
			return err
		}
	}
	return nil
}

// Accuracy returns the estimated accuracy p_i^w of worker id on taskID.
// Unregistered workers estimate at DefaultBase.
func (e *Estimator) Accuracy(id string, taskID int) float64 {
	return e.AccuracyAt(e.Ordinal(id), taskID)
}

// AccuracyAt is Accuracy for the worker with ordinal ord.
func (e *Estimator) AccuracyAt(ord, taskID int) float64 {
	w := e.worker(ord)
	if w == nil {
		return DefaultBase
	}
	ev := e.evidenceOn(w, taskID)
	return e.accuracy(w, ev.num, ev.den)
}

// InSupportAt reports whether the worker with ordinal ord has observation
// mass on taskID, i.e. whether any graph evidence reaches the task.
func (e *Estimator) InSupportAt(ord, taskID int) bool {
	return taskID >= 0 && taskID < len(e.inSupport) && e.inSupport[taskID].Has(ord)
}

// PriorAt returns the estimate of the worker with ordinal ord on every task
// outside their support: AccuracyAt with zero graph evidence, a
// non-decreasing function of the base accuracy alone.
func (e *Estimator) PriorAt(ord int) float64 {
	w := e.worker(ord)
	if w == nil {
		return DefaultBase
	}
	return e.accuracy(w, 0, 0)
}

// EachSupport calls fn with every worker that has observation mass on
// taskID — their ordinal, ID and Accuracy there — in no particular order.
// It reads the support index in place: no copy, no sort, no lookup by
// worker ID.
func (e *Estimator) EachSupport(taskID int, fn func(ord int, id string, acc float64)) {
	if taskID < 0 || taskID >= len(e.support) {
		return
	}
	for _, ev := range e.support[taskID] {
		fn(ev.w.ord, ev.w.id, e.accuracy(ev.w, ev.num, ev.den))
	}
}

// Mass returns the total observation mass sum_j p_{t_j}(taskID) that worker
// id's completed microtasks project onto taskID — the graph-evidence weight
// behind the estimate.
func (e *Estimator) Mass(id string, taskID int) float64 {
	if w, ok := e.ws[id]; ok {
		return e.evidenceOn(w, taskID).den
	}
	return 0
}

// EffectiveCounts converts the observation mass on taskID into effective
// correct/incorrect counts (N1, N0) for the Step-3 Beta-variance test. The
// restart probability alpha/(1+alpha) is the mass one observation deposits
// on itself, so dividing by it calibrates "one completed microtask at the
// seed" to one effective count.
func (e *Estimator) EffectiveCounts(id string, taskID int) (n1, n0 float64) {
	return e.effectiveCounts(e.worker(e.Ordinal(id)), taskID)
}

func (e *Estimator) effectiveCounts(w *workerState, taskID int) (n1, n0 float64) {
	if w == nil {
		return 0, 0
	}
	o := e.basis.Options()
	restart := o.Alpha / (1 + o.Alpha)
	ev := e.evidenceOn(w, taskID)
	num := ev.num / restart
	den := ev.den / restart
	if num < 0 {
		num = 0
	}
	if num > den {
		num = den
	}
	return num, den - num
}

// Uncertainty returns the Step-3 estimation variance for worker id on
// taskID: the variance of Beta(N1+1, N0+1) over the effective counts.
func (e *Estimator) Uncertainty(id string, taskID int) float64 {
	return e.UncertaintyAt(e.Ordinal(id), taskID)
}

// UncertaintyAt is Uncertainty for the worker with ordinal ord.
func (e *Estimator) UncertaintyAt(ord, taskID int) float64 {
	n1, n0 := e.effectiveCounts(e.worker(ord), taskID)
	return stats.UncertaintyVariance(n1, n0)
}

// Observed returns a copy of the worker's observed accuracies q^w.
func (e *Estimator) Observed(id string) map[int]float64 {
	w, ok := e.ws[id]
	if !ok {
		return nil
	}
	out := make(map[int]float64, len(w.observed))
	for k, v := range w.observed {
		out[k] = v
	}
	return out
}

// HasObserved reports whether worker id has an observation on taskID.
func (e *Estimator) HasObserved(id string, taskID int) bool {
	w, ok := e.ws[id]
	if !ok {
		return false
	}
	_, ok = w.observed[taskID]
	return ok
}

// BasisResult exposes how the basis solve for taskID terminated, so
// consumers of estimates can tell a converged combination from one built on
// truncated vectors.
func (e *Estimator) BasisResult(taskID int) ppr.Result {
	return e.basis.SolveResult(taskID)
}

// RawCombine returns the paper's unnormalized Lemma-3 combination
// sum_j q_j p_{t_j} for worker id, for verification against ppr.DenseSolve.
func (e *Estimator) RawCombine(id string) map[int]float64 {
	w, ok := e.ws[id]
	if !ok {
		return nil
	}
	return e.basis.Combine(w.observed)
}
