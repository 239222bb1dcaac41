// Package assign implements the adaptive task-assignment machinery of
// Section 4: top-worker-set computation (Definition 3), the greedy
// approximation of the NP-hard optimal microtask assignment (Algorithm 3),
// an exact optimal solver used to measure the greedy approximation error
// (Appendix D.4 / Table 5), and the Step-3 worker performance test.
package assign

import (
	"cmp"
	"errors"
	"math"
	"slices"
	"sort"

	"icrowd/internal/bitset"
	"icrowd/internal/estimate"
)

// Candidate is a worker with their estimated accuracy on some task.
type Candidate struct {
	// Worker identifies the worker.
	Worker string
	// Ord is the worker's ordinal in the estimator that scored them
	// (estimate.Estimator.Ordinal; -1 when unregistered). TopWorkers and
	// Index.TopWorkers fill it; hand-built candidates may leave it zero.
	Ord int
	// Accuracy is the estimated p_i^w.
	Accuracy float64
}

// CandidateAssignment pairs a microtask with its top worker set
// (an element of the candidate set A^c in Algorithm 3).
type CandidateAssignment struct {
	// Task is the microtask ID.
	Task int
	// Workers is the top worker set, ordered by descending accuracy.
	Workers []Candidate
}

// SumAccuracy returns the Definition-4 objective contribution
// sum_{w in W(t)} p_t^w.
func (a CandidateAssignment) SumAccuracy() float64 {
	var s float64
	for _, c := range a.Workers {
		s += c.Accuracy
	}
	return s
}

// AvgAccuracy returns the Algorithm-3 selection score
// sum_{w in W(t)} p_t^w / |W(t)|; 0 for an empty set.
func (a CandidateAssignment) AvgAccuracy() float64 {
	if len(a.Workers) == 0 {
		return 0
	}
	return a.SumAccuracy() / float64(len(a.Workers))
}

// TopWorkers computes the top worker set of Definition 3: the k workers
// among eligible with the highest estimated accuracy on taskID. Ties break
// by worker ID for determinism. It is the O(|W|) reference used by
// Algorithm 2 Step 1.
func TopWorkers(e *estimate.Estimator, taskID, k int, eligible []string) []Candidate {
	if k <= 0 {
		return nil
	}
	cands := make([]Candidate, 0, len(eligible))
	for _, w := range eligible {
		ord := e.Ordinal(w)
		cands = append(cands, Candidate{Worker: w, Ord: ord, Accuracy: e.AccuracyAt(ord, taskID)})
	}
	sortCandidates(cands)
	if k < len(cands) {
		cands = cands[:k]
	}
	return cands
}

func sortCandidates(cs []Candidate) {
	sort.Slice(cs, func(i, j int) bool { return ranksBefore(cs[i], cs[j]) })
}

// ranksBefore is the total order of top worker sets: accuracy descending,
// then worker ID ascending. Worker IDs are distinct, so no two candidates
// compare equal and the top k of any set is unique.
func ranksBefore(a, b Candidate) bool {
	if a.Accuracy != b.Accuracy {
		return a.Accuracy > b.Accuracy
	}
	return a.Worker < b.Worker
}

// Index accelerates top-worker computation ("effective index structures",
// Section 4.1). A worker outside a task's support (no graph evidence
// reaches it) estimates exactly at their prior, the same on every such
// task, so the index ranks the active workers by prior once. Per task it
// then scores only the estimator's support plus a prefix of that ranking,
// keeping the best k in a bounded buffer. Worker identity on that path is
// the estimator's ordinal: active membership of a support entry and
// support membership of a ranked worker are bit tests, with no lookup by
// worker ID. The result equals the reference TopWorkers over the same
// active set for any estimates.
type Index struct {
	est     *estimate.Estimator
	byPrior []Candidate // active workers at their prior, in ranksBefore order
	member  bitset.Set  // ordinals of the registered active workers
}

// NewIndex builds an index over the given active workers. The order of
// active does not matter: the ranking is the total order ranksBefore.
func NewIndex(e *estimate.Estimator, active []string) *Index {
	ix := &Index{est: e, byPrior: make([]Candidate, len(active))}
	for i, w := range active {
		ord := e.Ordinal(w)
		ix.byPrior[i] = Candidate{Worker: w, Ord: ord, Accuracy: e.PriorAt(ord)}
		if ord >= 0 { // an unregistered worker has no support to be found in
			ix.member.Add(ord)
		}
	}
	sortCandidates(ix.byPrior)
	return ix
}

// NumActive returns the number of workers in the index.
func (ix *Index) NumActive() int { return len(ix.byPrior) }

// TopWorkers returns the top-k active workers for taskID that exclude does
// not reject (exclude is the already-assigned set W^d(t_i); nil excludes
// nobody), ordered as the reference TopWorkers orders them. It sorts
// nothing and allocates only the result: candidates are inserted into a
// k-slot buffer, and exclude is checked only for a candidate that would
// enter it.
func (ix *Index) TopWorkers(taskID, k int, exclude func(string) bool) []Candidate {
	if k <= 0 {
		return nil
	}
	top := make([]Candidate, 0, k)
	offer := func(c Candidate) {
		if len(top) == k && !ranksBefore(c, top[k-1]) {
			return
		}
		if exclude != nil && exclude(c.Worker) {
			return
		}
		i := len(top)
		if i < k {
			top = append(top, c)
		} else {
			i--
		}
		for ; i > 0 && ranksBefore(c, top[i-1]); i-- {
			top[i] = top[i-1]
		}
		top[i] = c
	}
	ix.est.EachSupport(taskID, func(ord int, id string, acc float64) {
		if ix.member.Has(ord) {
			offer(Candidate{Worker: id, Ord: ord, Accuracy: acc})
		}
	})
	// The support has been scored; everyone else sits at their prior. The
	// ranking is sorted, so once the buffer is full the first worker who
	// cannot enter it ends the walk.
	for _, c := range ix.byPrior {
		if len(top) == k && !ranksBefore(c, top[k-1]) {
			break
		}
		if !ix.est.InSupportAt(c.Ord, taskID) {
			offer(c)
		}
	}
	return top
}

// Greedy implements Algorithm 3: repeatedly pick the candidate assignment
// with the highest average worker accuracy, then drop every candidate
// sharing a worker with it. Runs in O(|A^c| log |A^c|) and produces exactly
// the scheme of the paper's O(|T|^2) formulation (verified against
// GreedyReference in tests).
func Greedy(cands []CandidateAssignment) []CandidateAssignment {
	ranked := make([]scoredAssignment, 0, len(cands))
	for _, c := range cands {
		if len(c.Workers) > 0 {
			ranked = append(ranked, scoredAssignment{score: c.AvgAccuracy(), a: c})
		}
	}
	return pickDisjoint(ranked)
}

type scoredAssignment struct {
	score float64
	a     CandidateAssignment
}

// pickDisjoint is the selection loop of Algorithm 3. A pick never changes
// another candidate's score, so ranking the candidates once by (score desc,
// task asc) and taking each one still disjoint from the picks so far yields
// the same picks in the same order as repeatedly taking the best remaining.
func pickDisjoint(ranked []scoredAssignment) []CandidateAssignment {
	slices.SortFunc(ranked, func(x, y scoredAssignment) int {
		if x.score != y.score {
			if x.score > y.score {
				return -1
			}
			return 1
		}
		return cmp.Compare(x.a.Task, y.a.Task) // deterministic tie-break
	})
	used := map[string]bool{}
	var out []CandidateAssignment
	for _, r := range ranked {
		conflict := false
		for _, c := range r.a.Workers {
			if used[c.Worker] {
				conflict = true
				break
			}
		}
		if conflict {
			continue
		}
		for _, c := range r.a.Workers {
			used[c.Worker] = true
		}
		out = append(out, r.a)
	}
	return out
}

// GreedyReference is the paper's literal O(|T|^2) Algorithm 3, kept as the
// oracle the fast Greedy is tested against.
func GreedyReference(cands []CandidateAssignment) []CandidateAssignment {
	remaining := make([]CandidateAssignment, 0, len(cands))
	for _, c := range cands {
		if len(c.Workers) > 0 {
			remaining = append(remaining, c)
		}
	}
	var out []CandidateAssignment
	for len(remaining) > 0 {
		best := 0
		for i := 1; i < len(remaining); i++ {
			si, sb := remaining[i].AvgAccuracy(), remaining[best].AvgAccuracy()
			if si > sb || (si == sb && remaining[i].Task < remaining[best].Task) {
				best = i
			}
		}
		chosen := remaining[best]
		out = append(out, chosen)
		usedW := map[string]bool{}
		for _, c := range chosen.Workers {
			usedW[c.Worker] = true
		}
		next := remaining[:0]
		for _, c := range remaining {
			overlap := false
			for _, w := range c.Workers {
				if usedW[w.Worker] {
					overlap = true
					break
				}
			}
			if !overlap {
				next = append(next, c)
			}
		}
		remaining = next
	}
	return out
}

// TotalValue returns the Definition-4 objective of a scheme: the sum over
// chosen assignments of their worker-accuracy sums.
func TotalValue(scheme []CandidateAssignment) float64 {
	var s float64
	for _, a := range scheme {
		s += a.SumAccuracy()
	}
	return s
}

// ErrTooManyWorkers reports that the exact solver's bitmask capacity is
// exceeded.
var ErrTooManyWorkers = errors.New("assign: exact solver supports at most 30 distinct workers")

// Optimal solves optimal microtask assignment exactly by dynamic programming
// over worker subsets (weighted set packing). The paper's enumeration could
// not finish beyond 7 active workers within 30 minutes; the DP is
// O(|T| * 2^|W|) and exact for |W| <= 30. Used for Table 5.
func Optimal(cands []CandidateAssignment) (float64, []CandidateAssignment, error) {
	workerID := map[string]int{}
	for _, c := range cands {
		for _, w := range c.Workers {
			if _, ok := workerID[w.Worker]; !ok {
				workerID[w.Worker] = len(workerID)
			}
		}
	}
	nw := len(workerID)
	if nw > 30 {
		return 0, nil, ErrTooManyWorkers
	}
	type entry struct {
		mask  uint32
		value float64
	}
	items := make([]entry, 0, len(cands))
	kept := make([]CandidateAssignment, 0, len(cands))
	for _, c := range cands {
		if len(c.Workers) == 0 {
			continue
		}
		var m uint32
		for _, w := range c.Workers {
			m |= 1 << uint(workerID[w.Worker])
		}
		items = append(items, entry{mask: m, value: c.SumAccuracy()})
		kept = append(kept, c)
	}
	size := 1 << uint(nw)
	best := make([]float64, size)
	choice := make([]int, size) // item index that achieved best[mask], -1 none
	from := make([]uint32, size)
	for i := range choice {
		choice[i] = -1
	}
	for i, it := range items {
		// Iterate masks descending so each item is used at most once.
		for m := size - 1; m >= 0; m-- {
			um := uint32(m)
			if um&it.mask != 0 {
				continue
			}
			nm := um | it.mask
			if v := best[m] + it.value; v > best[nm]+1e-15 {
				best[nm] = v
				choice[nm] = i
				from[nm] = um
			}
		}
	}
	// Find the best mask and reconstruct.
	bestMask := 0
	for m := 1; m < size; m++ {
		if best[m] > best[bestMask] {
			bestMask = m
		}
	}
	var chosen []CandidateAssignment
	for m := uint32(bestMask); choice[m] >= 0; m = from[m] {
		chosen = append(chosen, kept[choice[m]])
	}
	sort.Slice(chosen, func(i, j int) bool { return chosen[i].Task < chosen[j].Task })
	return best[bestMask], chosen, nil
}

// OptimalEnumerate is the naive exponential enumeration of all feasible
// schemes (the algorithm the paper timed out beyond 7 workers). It
// cross-checks Optimal in tests; do not call it with many candidates.
func OptimalEnumerate(cands []CandidateAssignment) float64 {
	var rec func(i int, used map[string]bool) float64
	rec = func(i int, used map[string]bool) float64 {
		if i == len(cands) {
			return 0
		}
		// Skip candidate i.
		best := rec(i+1, used)
		// Take candidate i if disjoint.
		c := cands[i]
		if len(c.Workers) == 0 {
			return best
		}
		for _, w := range c.Workers {
			if used[w.Worker] {
				return best
			}
		}
		for _, w := range c.Workers {
			used[w.Worker] = true
		}
		if v := c.SumAccuracy() + rec(i+1, used); v > best {
			best = v
		}
		for _, w := range c.Workers {
			delete(used, w.Worker)
		}
		return best
	}
	return rec(0, map[string]bool{})
}

// TestPick is the Step-3 worker performance test: it selects the test
// microtask for a worker left without an assignment, taking candidate
// microtasks one at a time so a caller can score them as it finds them.
// It maximizes
//
//	uncertainty(w, t) * quality(W^d(t)),
//
// preferring tasks whose region the estimator knows least about for this
// worker (Beta-distribution variance over effective counts) and whose
// existing worker set is accurate enough to make the test reliable. Ties
// go to the smaller task ID.
type TestPick struct {
	task  int
	score float64
}

// NewTestPick returns a selection with no candidate yet.
func NewTestPick() TestPick { return TestPick{task: -1, score: math.Inf(-1)} }

// Offer scores task t. uncertainty is the worker's Uncertainty on t;
// accSum is the sum, in assignment order, of the estimated accuracies of
// the n workers already assigned to t. quality is their mean, 0.5 when
// n is 0.
func (p *TestPick) Offer(t int, uncertainty, accSum float64, n int) {
	quality := 0.5
	if n > 0 {
		quality = accSum / float64(n)
	}
	score := uncertainty * quality
	if score > p.score || (score == p.score && t < p.task) {
		p.score, p.task = score, t
	}
}

// Best returns the selected task; ok is false when nothing was offered.
func (p TestPick) Best() (task int, ok bool) { return p.task, p.task >= 0 }
