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

// testRejoinTieParity pins the joined-worker rule of the scheduler at an
// exact tie. Workers a and b pass qualification with the same base, so
// they estimate identically on every microtask neither has answered; c
// passes with a lower base. With k = 1 every top worker set is one worker.
//
//  1. a takes the first open microtask (t0) from a scheme over {a, b}.
//  2. c finishes qualification. c's request runs the scheme over {b, c}:
//     every cached set is {b}, and c is sent to Step 3, whose fallback
//     hands them t0 (no completed microtask to test with yet).
//  3. a answers t0, which moves a's estimate on t0 only.
//  4. b's request runs the scheme over {a, b}: a rejoins the active set at
//     exactly the minimum accuracy of every cached set {b}, and a's ID is
//     the smaller, so every set must become {a}. A cache that kept {b}
//     would give b t1 instead of sending b to a Step-3 test on t0.
func testRejoinTieParity(t *testing.T) {
	ds := isolatedDataset(8)
	basis, err := BuildBasis(ds, DefaultBasisConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.K = 1
	qual := []int{4, 5, 6, 7}
	cached, err := New(ds, basis, cfg, WithQualification(qual))
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := New(ds, basis, cfg, WithQualification(qual), WithSchemeCache(false))
	if err != nil {
		t.Fatal(err)
	}
	request := func(w string) (int, bool) {
		t.Helper()
		ct, cok := cached.RequestTask(w)
		ft, fok := fresh.RequestTask(w)
		if ct != ft || cok != fok {
			t.Fatalf("request by %s: cached (%d,%v) != fresh (%d,%v)", w, ct, cok, ft, fok)
		}
		return ct, cok
	}
	submit := func(w string, tid int, ans task.Answer) {
		t.Helper()
		for _, ic := range []*ICrowd{cached, fresh} {
			if err := ic.SubmitAnswer(w, tid, ans); err != nil {
				t.Fatalf("submit by %s on %d: %v", w, tid, err)
			}
		}
	}
	qualifyAll := func(w string, n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			tid, ok := request(w)
			if !ok {
				t.Fatalf("%s got no qualification microtask", w)
			}
			ans := task.Yes
			if w == "c" && i == 0 {
				ans = task.No // c passes at 3/4, below a and b
			}
			submit(w, tid, ans)
		}
	}
	qualifyAll("a", len(qual))
	qualifyAll("b", len(qual))
	qualifyAll("c", len(qual)-1)
	if tid, ok := request("a"); !ok || tid != 0 {
		t.Fatalf("a got (%d,%v), want t0", tid, ok)
	}
	tid, ok := request("c")
	if !ok {
		t.Fatal("c got no last qualification microtask")
	}
	submit("c", tid, task.Yes)
	if tid, ok := request("c"); !ok || tid != 0 {
		t.Fatalf("c got (%d,%v), want the Step-3 fallback t0", tid, ok)
	}
	submit("a", 0, task.Yes)
	if !cached.Job().Touched("c", 0) {
		t.Fatal("c should still hold t0")
	}
	if tid, ok := request("b"); !ok || tid != 0 || !cached.Job().PendingTest("b", 0) {
		t.Fatalf("b got (%d,%v), want a Step-3 test on t0", tid, ok)
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
