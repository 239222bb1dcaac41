package core

import (
	"runtime"
	"sync"
	"sync/atomic"

	"icrowd/internal/assign"
	"icrowd/internal/bitset"
)

// eventLog collects the IDs of microtasks whose job state (capacity, votes,
// touched set) changed since the scheduler last consumed the feed. It is a
// leaf lock: never held across another acquisition.
type eventLog struct {
	mu    sync.Mutex
	tasks bitset.List
}

func (l *eventLog) note(t int) {
	l.mu.Lock()
	l.tasks.Add(t)
	l.mu.Unlock()
}

// drain moves the collected tasks into dst, emptied first, and keeps dst's
// storage for the next round, so a steady state allocates nothing.
func (l *eventLog) drain(dst *bitset.List) {
	dst.Reset()
	l.mu.Lock()
	*dst, l.tasks = l.tasks, *dst
	l.mu.Unlock()
}

// scheduler runs Algorithm 2 incrementally. It caches each microtask's top
// worker set (Definition 3) together with the capacity it was computed for
// and the active worker set it was computed over, and on the next run only
// recomputes the sets that a change since then could have altered:
//
//   - tasks on which some worker's estimate moved (the estimator's dirty
//     feed; a base-accuracy change invalidates everything),
//   - tasks whose job state changed (assignment, vote, release — these move
//     capacity or the excluded W^d set),
//   - tasks whose cached set contains a worker who left the active set,
//   - tasks a newly active worker could break into (their accuracy reaches
//     the set's minimum, or the set is not full).
//
// The rules are conservative: a cached set is reused only when the fresh
// computation would provably return the same candidates, so the incremental
// scheme is identical to a from-scratch run (verified in tests). Stale sets
// are recomputed across a bounded worker pool (Config.Concurrency) and
// merged in task order, keeping the result deterministic.
//
// All state is dense: the cache is indexed by task, and worker sets are
// bitsets over the estimator's worker ordinals (workerInfo.ord).
type scheduler struct {
	cacheEnabled bool
	concurrency  int

	entries    []schemeEntry // task -> cached top worker set; kPrime 0 when none
	active     bitset.Set    // active set the entries were computed over
	activeOrds []int         // the same set as a list

	// Per-run scratch, reused because runs are serialized by
	// ic.recomputeMu. spare and spareOrds are the previous run's active
	// set, cleared and refilled as the next one; pool goroutines write only
	// their own results slot.
	spare     bitset.Set
	spareOrds []int
	removed   bitset.Set
	events    bitset.List
	ids       []string
	target    []int
	stale     []staleTask
	results   [][]assign.Candidate
	cands     []assign.CandidateAssignment
}

// staleTask is a microtask whose top worker set must be recomputed for
// capacity kp.
type staleTask struct{ t, kp int }

// schemeEntry is one microtask's cached Algorithm-2 Step-1 result.
type schemeEntry struct {
	top    []assign.Candidate // unfiltered top worker set
	kPrime int                // capacity top was computed for
	// floored is top after the Definition-3 MinAccuracy floor: the workers
	// that clear it, or all of top when none does so the microtask still
	// progresses. top is sorted by accuracy, so this is a prefix of it and
	// costs no copy.
	floored []assign.Candidate
}

func newSchemeEntry(top []assign.Candidate, kPrime int, minAccuracy float64) schemeEntry {
	n := 0
	for n < len(top) && top[n].Accuracy >= minAccuracy {
		n++
	}
	floored := top
	if n > 0 {
		floored = top[:n]
	}
	return schemeEntry{top: top, kPrime: kPrime, floored: floored}
}

func newScheduler(cacheEnabled bool, concurrency int) *scheduler {
	return &scheduler{cacheEnabled: cacheEnabled, concurrency: concurrency}
}

func (s *scheduler) invalidate(t int) { s.entries[t] = schemeEntry{} }

// schemeChunk is how many stale tasks a pool worker claims at a time.
const schemeChunk = 8

// compute runs Algorithm 2 steps 1-2 over the given active workers, in any
// order, and returns the worker -> task scheme. The caller holds
// ic.recomputeMu and at least the read side of ic.mu. compute drains
// ic.events, the change feed of job mutations since the previous run.
func (s *scheduler) compute(ic *ICrowd, active []*workerInfo) map[string]int {
	est, job := ic.est, ic.job
	ic.events.drain(&s.events)
	if n := job.Dataset().Len(); len(s.entries) != n {
		s.entries = make([]schemeEntry, n)
		s.active.Reset()
		s.activeOrds = s.activeOrds[:0]
	}

	activeSet, ords, ids := s.spare, s.spareOrds[:0], s.ids[:0]
	activeSet.Reset()
	for _, w := range active {
		activeSet.Add(w.ord)
		ords = append(ords, w.ord)
		ids = append(ids, w.id)
	}

	if !s.cacheEnabled || est.DirtyAll() || len(active) == 0 {
		// An empty active set keeps nothing worth keeping: entries would
		// have to be revalidated against it anyway.
		clear(s.entries)
	} else {
		est.EachDirtyTask(s.invalidate)
		for _, t := range s.events.Items() {
			s.invalidate(t)
		}
		s.removed.Reset()
		anyRemoved := false
		for _, o := range s.activeOrds {
			if !activeSet.Has(o) {
				s.removed.Add(o)
				anyRemoved = true
			}
		}
		if anyRemoved {
			for t := range s.entries {
				for _, c := range s.entries[t].top {
					if s.removed.Has(c.Ord) {
						s.invalidate(t)
						break
					}
				}
			}
		}
		for _, w := range active {
			if s.active.Has(w.ord) {
				continue
			}
			for t := range s.entries {
				// A joined worker enters the set when it is not full or when
				// their accuracy reaches its minimum (>= because ties break
				// by worker ID).
				e := &s.entries[t]
				if e.kPrime > 0 && (len(e.top) < e.kPrime || est.AccuracyAt(w.ord, t) >= e.top[len(e.top)-1].Accuracy) {
					s.invalidate(t)
				}
			}
		}
	}
	est.ResetDirty()
	s.spare, s.active = s.active, activeSet
	s.spareOrds, s.activeOrds = s.activeOrds, ords
	s.ids = ids
	if len(active) == 0 {
		return map[string]int{}
	}

	target, stale := s.target[:0], s.stale[:0]
	for t := range s.entries {
		kp := job.Capacity(t) // 0 for a completed task
		if kp == 0 {
			s.invalidate(t)
			continue
		}
		target = append(target, t)
		if s.entries[t].kPrime != kp {
			stale = append(stale, staleTask{t, kp})
		}
	}

	ic.mStaleTasks.Set(float64(len(stale)))
	if len(stale) > 0 {
		ix := assign.NewIndex(est, ids)
		if cap(s.results) < len(stale) {
			s.results = make([][]assign.Candidate, len(stale))
		}
		results := s.results[:len(stale)]
		solve := func(k int) {
			t := stale[k].t
			results[k] = ix.TopWorkers(t, stale[k].kp, func(w string) bool {
				return job.Touched(w, t) || !ic.eligible(w, t)
			})
		}
		workers := s.workerCount(len(stale))
		ic.mPoolWorkers.Set(float64(workers))
		if workers == 1 {
			for k := range stale {
				solve(k)
			}
		} else {
			var cursor atomic.Int64
			var wg sync.WaitGroup
			for i := 0; i < workers; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						start := int(cursor.Add(schemeChunk)) - schemeChunk
						if start >= len(stale) {
							return
						}
						end := start + schemeChunk
						if end > len(stale) {
							end = len(stale)
						}
						for k := start; k < end; k++ {
							solve(k)
						}
					}
				}()
			}
			wg.Wait()
		}
		for k, st := range stale {
			s.entries[st.t] = newSchemeEntry(results[k], st.kp, ic.cfg.MinAccuracy)
		}
	}

	s.target, s.stale = target, stale
	cands := s.cands[:0]
	for _, t := range target {
		if top := s.entries[t].floored; len(top) > 0 {
			cands = append(cands, assign.CandidateAssignment{Task: t, Workers: top})
		}
	}
	s.cands = cands
	scheme := make(map[string]int)
	for _, a := range assign.Greedy(cands) {
		for _, c := range a.Workers {
			scheme[c.Worker] = a.Task
		}
	}
	return scheme
}

// workerCount resolves the concurrency knob against the number of stale
// tasks: 0 uses GOMAXPROCS, 1 forces the sequential path.
func (s *scheduler) workerCount(n int) int {
	w := s.concurrency
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}
