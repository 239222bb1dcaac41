package core

import (
	"fmt"
	"hash/fnv"
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
