package core

import (
	"runtime"
	"sync"
	"sync/atomic"

	"icrowd/internal/assign"
)

// eventLog collects the IDs of microtasks whose job state (capacity, votes,
// touched set) changed since the scheduler last consumed the feed. It is a
// leaf lock: never held across another acquisition.
type eventLog struct {
	mu    sync.Mutex
	tasks map[int]bool
}

func (l *eventLog) note(t int) {
	l.mu.Lock()
	if l.tasks == nil {
		l.tasks = map[int]bool{}
	}
	l.tasks[t] = true
	l.mu.Unlock()
}

func (l *eventLog) drain() map[int]bool {
	l.mu.Lock()
	out := l.tasks
	l.tasks = nil
	l.mu.Unlock()
	return out
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
type scheduler struct {
	cacheEnabled bool
	concurrency  int

	entries map[int]schemeEntry // task -> cached top worker set
	active  map[string]bool     // active set the entries were computed over

	// Per-run scratch, reused because runs are serialized by
	// ic.recomputeMu. spare is the previous run's active set, cleared and
	// refilled as the next one; pool goroutines write only their own
	// results slot.
	spare   map[string]bool
	target  []int
	stale   []staleTask
	results [][]assign.Candidate
	cands   []assign.CandidateAssignment
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

func (s *scheduler) invalidate(t int) { delete(s.entries, t) }

// schemeChunk is how many stale tasks a pool worker claims at a time.
const schemeChunk = 8

// compute runs Algorithm 2 steps 1-2 over the given active workers and
// returns the worker -> task scheme. The caller holds ic.recomputeMu and at
// least the read side of ic.mu; events is the drained change feed of job
// mutations since the previous run.
func (s *scheduler) compute(ic *ICrowd, active []string, events map[int]bool) map[string]int {
	est, job := ic.est, ic.job

	if len(active) == 0 {
		// Nothing to assign and nothing worth keeping: entries would have to
		// be revalidated against an empty active set anyway.
		s.entries, s.active = map[int]schemeEntry{}, nil
		est.ResetDirty()
		return map[string]int{}
	}

	activeSet := s.spare
	if activeSet == nil {
		activeSet = make(map[string]bool, len(active))
	}
	clear(activeSet)
	for _, w := range active {
		activeSet[w] = true
	}

	if !s.cacheEnabled || s.entries == nil || est.DirtyAll() {
		s.entries = map[int]schemeEntry{}
	} else {
		est.EachDirtyTask(s.invalidate)
		for t := range events {
			s.invalidate(t)
		}
		removed := map[string]bool{}
		for w := range s.active {
			if !activeSet[w] {
				removed[w] = true
			}
		}
		if len(removed) > 0 {
			for t, e := range s.entries {
				for _, c := range e.top {
					if removed[c.Worker] {
						s.invalidate(t)
						break
					}
				}
			}
		}
		for _, w := range active {
			if s.active[w] {
				continue
			}
			for t, e := range s.entries {
				// A joined worker enters the set when it is not full or when
				// their accuracy reaches its minimum (>= because ties break
				// by worker ID).
				if len(e.top) < e.kPrime || est.Accuracy(w, t) >= e.top[len(e.top)-1].Accuracy {
					s.invalidate(t)
				}
			}
		}
	}
	est.ResetDirty()
	s.spare, s.active = s.active, activeSet

	target, stale := s.target[:0], s.stale[:0]
	for _, t := range job.Uncompleted() {
		kp := job.Capacity(t)
		if kp == 0 {
			s.invalidate(t)
			continue
		}
		target = append(target, t)
		if e, ok := s.entries[t]; !ok || e.kPrime != kp {
			stale = append(stale, staleTask{t, kp})
		}
	}

	ic.mStaleTasks.Set(float64(len(stale)))
	if len(stale) > 0 {
		ix := assign.NewIndex(est, active)
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
