package estimate

import (
	"maps"

	"icrowd/internal/ppr"
)

// Queries with no production caller, kept for the tests that inspect the
// estimator's state by worker ID.

// NumTasks returns the number of tasks covered by the basis.
func (e *Estimator) NumTasks() int { return e.basis.N() }

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

// Uncertainty returns the Step-3 estimation variance for worker id on
// taskID: the variance of Beta(N1+1, N0+1) over the effective counts.
func (e *Estimator) Uncertainty(id string, taskID int) float64 {
	return e.UncertaintyAt(e.Ordinal(id), taskID)
}

// Observed returns a copy of the worker's observed accuracies q^w.
func (e *Estimator) Observed(id string) map[int]float64 {
	w, ok := e.ws[id]
	if !ok {
		return nil
	}
	return maps.Clone(w.observed)
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
// sum_j q_j p_{t_j} for worker id, for verification against the closed
// form.
func (e *Estimator) RawCombine(id string) map[int]float64 {
	w, ok := e.ws[id]
	if !ok {
		return nil
	}
	out := map[int]float64{}
	for i, qi := range w.observed {
		r := e.basis.Vec(i)
		for k, j := range r.Idx {
			out[int(j)] += qi * r.Val[k]
		}
	}
	return out
}
