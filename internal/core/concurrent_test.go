package core

import (
	"fmt"
	"hash/fnv"
	"maps"
	"math/rand"
	"sync"
	"testing"

	"icrowd/internal/task"
)

// parityWorkers builds a deterministic crowd: worker w answers task t
// correctly with probability acc(w), decided by a hash of (w, t) so the
// same (worker, task) pair always answers the same way regardless of
// request order.
func parityWorkers(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("w%02d", i)
	}
	return out
}

func parityAnswer(ds *task.Dataset, worker string, tid int, accPct uint32) task.Answer {
	h := fnv.New32a()
	fmt.Fprintf(h, "%s/%d", worker, tid)
	truth := ds.Tasks[tid].Truth
	if h.Sum32()%100 < accPct {
		return truth
	}
	if truth == task.Yes {
		return task.No
	}
	return task.Yes
}

func parityAcc(i int) uint32 { return uint32(70 + (i*7)%28) } // 70..97

func parityBasis(t *testing.T, ds *task.Dataset) (*ICrowd, *ICrowd) {
	t.Helper()
	basis, err := BuildBasis(ds, DefaultBasisConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cached, err := New(ds, basis, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := New(ds, basis, cfg, WithSchemeCache(false))
	if err != nil {
		t.Fatal(err)
	}
	return cached, fresh
}

// TestSchemeCacheParity drives two identically-configured frameworks — one
// with the incremental scheme cache, one recomputing every top worker set
// from scratch — through the same deterministic request/submit sequence and
// asserts they hand out identical assignments at every step and reach
// identical results. This is the conservative-invalidation guarantee of the
// scheduler: incremental == fresh, always.
//
// The yahooqa case is small, so a task's support rarely outgrows its top
// set; it runs the job to completion. The itemcompare case is the served
// regime: 200 workers on 360 tasks, where supports hold up to the whole
// crowd and the bounded top-k selection decides every set. Each of its
// steps rebuilds the fresh scheme over all open tasks, so it stops after
// 4000 steps: qualification plus about 2000 adaptive steps, 20 departures
// and some 140 completed tasks.
func TestSchemeCacheParity(t *testing.T) {
	for _, tc := range []struct {
		name     string
		ds       *task.Dataset
		workers  int
		maxSteps int // 0 runs until the job is done
	}{
		{"yahooqa/workers=10", task.GenerateYahooQA(3), 10, 0},
		{"itemcompare/workers=200", task.GenerateItemCompare(1), 200, 4000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.maxSteps > 0 && testing.Short() {
				t.Skip("long parity run; skipped under -short")
			}
			cached, fresh := parityBasis(t, tc.ds)
			runSchemeParity(t, tc.ds, cached, fresh, parityWorkers(tc.workers), tc.maxSteps)
		})
	}
	t.Run("rejoin-at-minimum-tie", testRejoinTieParity)
	t.Run("release-then-vote", testReleaseVoteParity)
	t.Run("active-set-churn", testActiveChurnParity)
}

// testActiveChurnParity pins the scheduler's active-set rules on their own:
// between two runs only the set of active workers changes, so only the
// removed-worker and joined-worker rules can make a cached set stale. The
// crowd passes qualification at three levels with identical answers within
// a level, so workers of a level estimate identically everywhere and exact
// ties at a set's minimum are the rule. Each run's scheme over a random
// active subset must equal that of a scheduler recomputing every set.
func testActiveChurnParity(t *testing.T) {
	ds := task.GenerateYahooQA(3)
	basis, err := BuildBasis(ds, DefaultBasisConfig())
	if err != nil {
		t.Fatal(err)
	}
	ic, err := New(ds, basis, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range parityWorkers(30) {
		for q := range ic.QualificationTasks() {
			tid, ok := ic.RequestTask(w)
			if !ok {
				t.Fatalf("%s got no qualification microtask", w)
			}
			ans := ds.Tasks[tid].Truth
			if q < i%3 {
				ans = ans.Flip()
			}
			if err := ic.SubmitAnswer(w, tid, ans); err != nil {
				t.Fatal(err)
			}
		}
	}
	cached, fresh := newScheduler(true, 1), newScheduler(false, 1)
	rng := rand.New(rand.NewSource(5))
	for run := 0; run < 300; run++ {
		var active []*workerInfo
		for _, info := range ic.order {
			if rng.Intn(3) > 0 {
				active = append(active, info)
			}
		}
		ic.mu.RLock()
		got := cached.compute(ic, active)
		want := fresh.compute(ic, active)
		ic.mu.RUnlock()
		if !maps.Equal(got, want) {
			t.Fatalf("run %d over %d workers: cached scheme %v != fresh %v", run, len(active), got, want)
		}
	}
}

// isolatedDataset has n microtasks that share no token, so the similarity
// graph has no edge and an observation moves a worker's estimate on the
// observed microtask alone: everywhere else each worker sits at their prior.
func isolatedDataset(n int) *task.Dataset {
	ds := &task.Dataset{Name: "isolated", Domains: []string{"d"}}
	for i := 0; i < n; i++ {
		tok := fmt.Sprintf("tok%d", i)
		ds.Tasks = append(ds.Tasks, task.Task{ID: i, Domain: "d", Text: tok, Tokens: []string{tok}, Truth: task.Yes})
	}
	return ds
}

// lockstep drives a framework with the incremental scheme cache and one
// recomputing every top worker set from scratch through the same calls on
// isolated microtasks (qualification 4-7). Every request must return the
// same on both and leave both within the capacity invariant.
type lockstep struct {
	t             *testing.T
	cached, fresh *ICrowd
}

func newLockstep(t *testing.T, k int) *lockstep {
	t.Helper()
	ds := isolatedDataset(8)
	basis, err := BuildBasis(ds, DefaultBasisConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.K = k
	qual := WithQualification([]int{4, 5, 6, 7})
	cached, err := New(ds, basis, cfg, qual)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := New(ds, basis, cfg, qual, WithSchemeCache(false))
	if err != nil {
		t.Fatal(err)
	}
	return &lockstep{t: t, cached: cached, fresh: fresh}
}

func (l *lockstep) request(w string) (int, bool) {
	l.t.Helper()
	ct, cok := l.cached.RequestTask(w)
	ft, fok := l.fresh.RequestTask(w)
	if ct != ft || cok != fok {
		l.t.Fatalf("request by %s: cached (%d,%v) != fresh (%d,%v)", w, ct, cok, ft, fok)
	}
	checkCapacity(l.t, l.cached)
	checkCapacity(l.t, l.fresh)
	return ct, cok
}

func (l *lockstep) submit(w string, tid int, ans task.Answer) {
	l.t.Helper()
	for _, ic := range []*ICrowd{l.cached, l.fresh} {
		if err := ic.SubmitAnswer(w, tid, ans); err != nil {
			l.t.Fatalf("submit by %s on %d: %v", w, tid, err)
		}
	}
}

// qualify answers n qualification microtasks for w, the first wrong of
// them incorrectly.
func (l *lockstep) qualify(w string, n, wrong int) {
	l.t.Helper()
	for i := 0; i < n; i++ {
		tid, ok := l.request(w)
		if !ok {
			l.t.Fatalf("%s got no qualification microtask", w)
		}
		ans := task.Yes
		if i < wrong {
			ans = task.No
		}
		l.submit(w, tid, ans)
	}
}

// expect requests for w and fails unless w gets microtask want.
func (l *lockstep) expect(w string, want int) {
	l.t.Helper()
	if tid, ok := l.request(w); !ok || tid != want {
		l.t.Fatalf("%s got (%d,%v), want t%d", w, tid, ok, want)
	}
}

// checkCapacity fails the test when an open microtask holds more regular
// assignments and votes than k: the Step-2 constraint every regular
// assignment, the Step-3 fallback's included, must keep.
func checkCapacity(t *testing.T, ic *ICrowd) {
	t.Helper()
	j := ic.Job()
	for tid := range j.tasks {
		s := &j.tasks[tid]
		if !s.done && len(s.holders)+len(s.votes) > j.K() {
			t.Fatalf("open task %d has holders %v and %d votes, over k = %d", tid, s.holders, len(s.votes), j.K())
		}
	}
}

// testRejoinTieParity pins the joined-worker rule of the scheduler at an
// exact tie. Workers a and b pass qualification with the same base, so
// they estimate identically on every microtask neither has answered; c
// passes with a lower base. With k = 1 every top worker set is one worker.
//
//  1. a takes the first open microtask (t0) from a scheme over {a, b}.
//  2. c finishes qualification. c's request runs the scheme over {b, c}:
//     every cached set is {b}, and c is sent to Step 3, whose fallback
//     hands them t1 (no completed microtask to test with yet, and t0 is
//     full).
//  3. a answers t0, which moves a's estimate on t0 only.
//  4. b's request runs the scheme over {a, b}: a rejoins the active set at
//     exactly the minimum accuracy of the cached sets {b} on t2 and t3, and
//     a's ID is the smaller, so those sets must become {a}. A cache that
//     kept {b} would give b t2 instead of sending b to a Step-3 test on t0.
func testRejoinTieParity(t *testing.T) {
	l := newLockstep(t, 1)
	l.qualify("a", 4, 0)
	l.qualify("b", 4, 0)
	l.qualify("c", 3, 1) // c passes at 3/4, below a and b
	l.expect("a", 0)
	l.qualify("c", 1, 0)
	l.expect("c", 1) // the Step-3 fallback
	l.submit("a", 0, task.Yes)
	if !l.cached.Job().Touched("c", 1) {
		t.Fatal("c should still hold t1")
	}
	l.expect("b", 0)
	if !l.cached.Job().PendingTest("b", 0) {
		t.Fatal("b's t0 should be a Step-3 test")
	}
}

// TestStep3FallbackRespectsCapacity pins the capacity check of Step 3's
// fallback. With k = 1, a holds t0 when c, left out of the scheme with no
// completed microtask to test with, falls back to a regular assignment: it
// must be an open microtask with a free slot, never t0. Once every open
// microtask is held, later workers get nothing rather than an assignment
// over k.
func TestStep3FallbackRespectsCapacity(t *testing.T) {
	l := newLockstep(t, 1)
	l.qualify("a", 4, 0)
	l.qualify("b", 4, 0)
	l.qualify("c", 4, 1)
	l.expect("a", 0)
	if tid, ok := l.request("c"); !ok || tid == 0 {
		t.Fatalf("c got (%d,%v), want a free microtask, not the full t0", tid, ok)
	}
	l.qualify("d", 4, 0)
	l.qualify("e", 4, 0)
	for _, w := range []string{"b", "d"} {
		if _, ok := l.request(w); !ok {
			t.Fatalf("%s got nothing with a free microtask left", w)
		}
	}
	if tid, ok := l.request("e"); ok {
		t.Fatalf("e got t%d with every open microtask full", tid)
	}
}

// TestStaleSchemeEntryRespectsCapacity pins the capacity check on the
// scheme path. With k = 1, c's request runs the scheme over {a, c}, which
// reserves t0 for a and leaves c out; c's Step-3 fallback then takes t0,
// the first free microtask, before a asks. a's entry is stale: a must get
// another microtask, not a second regular assignment on t0.
func TestStaleSchemeEntryRespectsCapacity(t *testing.T) {
	l := newLockstep(t, 1)
	l.qualify("a", 4, 0)
	l.qualify("c", 4, 1)
	l.expect("c", 0)
	if tid, ok := l.request("a"); !ok || tid == 0 {
		t.Fatalf("a got (%d,%v), want a free microtask, not the full t0", tid, ok)
	}
}

// testReleaseVoteParity pins the scheduler's job-event feed. Between two
// scheme runs a task's capacity can come back to the value its cached top
// set was computed for while W^d, the workers excluded from it, changed.
// With k = 2 on isolated microtasks, a (base 1) and c (base 0.75):
//
//  1. c holds t0, and the scheme runs over {a}: t0 has one slot left and
//     its cached top set is {a}.
//  2. a takes t0, c releases it and a answers it. t0 is back at one slot,
//     but a has now voted on it. One vote completes nothing, and c rejoins
//     below a's accuracy, so neither the estimator's dirty feed nor an
//     active-set rule invalidates t0.
//  3. The scheme runs over {a, c}. Only the job events of step 2 make t0
//     stale: a cache that kept {a} would offer a the microtask they
//     already answered, where a fresh scheme sends a and c to t1.
//
// The job is driven directly, noting each mutation in the feed as the
// framework does, so the case does not lean on whatever else the
// framework's submit path happens to mark dirty.
func testReleaseVoteParity(t *testing.T) {
	l := newLockstep(t, 2)
	l.qualify("a", 4, 0)
	l.qualify("c", 4, 1)
	ic := l.cached
	cached, fresh := newScheduler(true, 1), newScheduler(false, 1)
	run := func(workers ...string) map[string]int {
		t.Helper()
		var active []*workerInfo
		for _, w := range workers {
			info, _ := ic.worker(w, false)
			active = append(active, info)
		}
		ic.mu.RLock()
		defer ic.mu.RUnlock()
		got := cached.compute(ic, active)
		if want := fresh.compute(ic, active); !maps.Equal(got, want) {
			t.Fatalf("scheme over %v: cached %v != fresh %v", workers, got, want)
		}
		return got
	}
	job := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		ic.events.note(0)
	}
	job(ic.job.Assign("c", 0))
	if got := run("a"); got["a"] != 0 {
		t.Fatalf("scheme over {a} = %v, want a on t0", got)
	}
	job(ic.job.Assign("a", 0))
	ic.job.Release("c")
	job(nil)
	_, _, err := ic.job.Submit("a", 0, task.Yes)
	job(err)
	if got := run("a", "c"); got["a"] != 1 || got["c"] != 1 {
		t.Fatalf("scheme over {a, c} = %v, want both on t1", got)
	}
}

// runSchemeParity drives both frameworks in lockstep. With maxSteps 0 it
// runs until the job is done and requires that it finishes.
func runSchemeParity(t *testing.T, ds *task.Dataset, cached, fresh *ICrowd, workers []string, maxSteps int) {
	finish := maxSteps == 0
	if finish {
		maxSteps = 400 * ds.Len()
	}
	for step := 0; step < maxSteps; step++ {
		if cached.Done() {
			break
		}
		w := workers[step%len(workers)]
		ct, cok := cached.RequestTask(w)
		ft, fok := fresh.RequestTask(w)
		if ct != ft || cok != fok {
			t.Fatalf("step %d worker %s: cached (%d,%v) != fresh (%d,%v)",
				step, w, ct, cok, ft, fok)
		}
		checkCapacity(t, cached)
		if !cok {
			continue
		}
		ans := parityAnswer(ds, w, ct, parityAcc(step%len(workers)))
		if err := cached.SubmitAnswer(w, ct, ans); err != nil {
			t.Fatalf("cached submit: %v", err)
		}
		if err := fresh.SubmitAnswer(w, ct, ans); err != nil {
			t.Fatalf("fresh submit: %v", err)
		}
		// Periodic churn: a worker leaves and their held task is released,
		// exercising the active-set diff invalidation.
		if step%97 == 96 {
			leaver := workers[(step/97)%len(workers)]
			cached.WorkerInactive(leaver)
			fresh.WorkerInactive(leaver)
		}
	}
	if finish && (!cached.Done() || !fresh.Done()) {
		t.Fatalf("parity run did not complete: cached=%v fresh=%v", cached.Done(), fresh.Done())
	}
	if cached.Job().NumCompleted() != fresh.Job().NumCompleted() {
		t.Fatalf("completed tasks: cached %d != fresh %d", cached.Job().NumCompleted(), fresh.Job().NumCompleted())
	}
	cres, fres := cached.Results(), fresh.Results()
	for tid, a := range cres {
		if fres[tid] != a {
			t.Fatalf("task %d: cached result %v != fresh %v", tid, a, fres[tid])
		}
	}
}

// TestConcurrentWorkers hammers one framework from many goroutines — the
// access pattern of the HTTP platform — and checks the job completes. Run
// under -race this is the lock-architecture soak for the sharded ICrowd.
func TestConcurrentWorkers(t *testing.T) {
	ds := task.GenerateYahooQA(5)
	basis, err := BuildBasis(ds, DefaultBasisConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	ic, err := New(ds, basis, cfg)
	if err != nil {
		t.Fatal(err)
	}

	const nWorkers = 16
	var wg sync.WaitGroup
	for i := 0; i < nWorkers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := fmt.Sprintf("w%02d", i)
			acc := uint32(80 + (i*5)%18)
			for step := 0; step < 200*ds.Len(); step++ {
				tid, ok := ic.RequestTask(w)
				if !ok {
					if ic.Done() || ic.Rejected(w) {
						return
					}
					continue
				}
				if err := ic.SubmitAnswer(w, tid, parityAnswer(ds, w, tid, acc)); err != nil {
					t.Errorf("worker %s submit(%d): %v", w, tid, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	if !ic.Done() {
		t.Fatalf("concurrent run did not complete: %d/%d tasks", ic.Job().NumCompleted(), ds.Len())
	}
	// Post-run sanity on the Strategy surface.
	if got := len(ic.Results()); got != ds.Len() {
		t.Fatalf("results cover %d tasks, want %d", got, ds.Len())
	}
}

// TestConcurrencyValidation rejects a negative fan-out knob.
func TestConcurrencyValidation(t *testing.T) {
	ds := task.ProductMatching()
	basis, err := BuildBasis(ds, DefaultBasisConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Concurrency = -1
	if _, err := New(ds, basis, cfg); err == nil {
		t.Fatal("expected Concurrency validation error")
	}
}

// TestConcurrencySafeMarker pins the marker the platform server keys its
// locking strategy on.
func TestConcurrencySafeMarker(t *testing.T) {
	ds := task.ProductMatching()
	basis, err := BuildBasis(ds, DefaultBasisConfig())
	if err != nil {
		t.Fatal(err)
	}
	ic, err := New(ds, basis, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var st Strategy = ic
	cs, ok := st.(interface{ ConcurrencySafe() bool })
	if !ok || !cs.ConcurrencySafe() {
		t.Fatal("ICrowd must advertise ConcurrencySafe() == true")
	}
}
