package estimate

import (
	"reflect"
	"testing"

	"icrowd/internal/ppr"
	"icrowd/internal/simgraph"
	"icrowd/internal/task"
)

func dirtyBasis(t *testing.T) (*task.Dataset, *ppr.Basis) {
	t.Helper()
	ds := task.ProductMatching()
	g, err := simgraph.Build(ds.Len(), simgraph.JaccardMetric(ds), 0.5, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ppr.Precompute(g, ppr.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return ds, b
}

// drainFeed empties the change feed and returns what it held: the
// icrowd_estimate_dirty_workers gauge ResetDirty publishes, and the dirty
// tasks, each of which EachDirtyTask must report once.
func drainFeed(t *testing.T, e *Estimator) (workers int, tasks map[int]bool) {
	t.Helper()
	tasks = map[int]bool{}
	e.EachDirtyTask(func(tid int) {
		if tasks[tid] {
			t.Fatalf("task %d reported dirty twice", tid)
		}
		tasks[tid] = true
	})
	e.ResetDirty()
	if got := mDirtyTasks.Value(); got != float64(len(tasks)) {
		t.Fatalf("dirty-tasks gauge = %v, want %d", got, len(tasks))
	}
	return int(mDirtyWorkers.Value()), tasks
}

func TestDirtyTrackingObserve(t *testing.T) {
	_, b := dirtyBasis(t)
	e := New(b, DefaultLambda)
	e.EnsureWorker("w", 0.7)
	if n, _ := drainFeed(t, e); n != 1 {
		t.Fatalf("registration: %d dirty workers, want 1", n)
	}
	if n, tasks := drainFeed(t, e); n != 0 || len(tasks) != 0 {
		t.Fatalf("clean estimator reports %d dirty workers, tasks %v", n, tasks)
	}
	if err := e.Observe("w", 0, 1); err != nil {
		t.Fatal(err)
	}
	// Observing one more task in the same generation counts w once.
	if err := e.Observe("w", 1, 1); err != nil {
		t.Fatal(err)
	}
	// The dirty tasks are exactly the supports of the observed tasks' basis
	// vectors: the tasks where w's estimate actually moved.
	want := map[int]bool{}
	for _, seed := range []int{0, 1} {
		for tid := range b.Vec(seed) {
			want[tid] = true
		}
	}
	n, got := drainFeed(t, e)
	if n != 1 {
		t.Fatalf("%d dirty workers, want 1", n)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("dirty tasks = %v, want support of vec(0) and vec(1) %v", got, want)
	}

	// Re-observing with the same value is a no-op: nothing moves.
	if err := e.Observe("w", 0, 1); err != nil {
		t.Fatal(err)
	}
	if n, tasks := drainFeed(t, e); n != 0 || len(tasks) != 0 {
		t.Fatalf("no-op re-observe marked %d workers, tasks %v dirty", n, tasks)
	}
	// Re-observing with a different value moves estimates again.
	if err := e.Observe("w", 0, 0); err != nil {
		t.Fatal(err)
	}
	want = map[int]bool{}
	for tid := range b.Vec(0) {
		want[tid] = true
	}
	if n, tasks := drainFeed(t, e); n != 1 || !reflect.DeepEqual(tasks, want) {
		t.Fatalf("changed re-observe: %d dirty workers, tasks %v; want 1, %v", n, tasks, want)
	}
}

func TestDirtyTrackingSetBase(t *testing.T) {
	_, b := dirtyBasis(t)
	e := New(b, DefaultLambda)
	e.EnsureWorker("w", 0.7)
	e.ResetDirty()

	e.SetBase("w", 0.7) // unchanged: no dirt
	if n, _ := drainFeed(t, e); e.DirtyAll() || n != 0 {
		t.Fatal("unchanged SetBase marked dirty")
	}
	e.SetBase("w", 0.9)
	if !e.DirtyAll() {
		t.Fatal("base change must set DirtyAll")
	}
	if n, _ := drainFeed(t, e); n != 1 {
		t.Fatalf("base change: %d dirty workers, want 1", n)
	}
	if e.DirtyAll() {
		t.Fatal("ResetDirty did not clear DirtyAll")
	}

	// SetBase on an unknown worker registers it without DirtyAll (a brand
	// new worker cannot have been part of any cached scheme state).
	e.SetBase("new", 0.8)
	if e.DirtyAll() {
		t.Fatal("new-worker SetBase must not set DirtyAll")
	}
	if n, _ := drainFeed(t, e); n != 1 {
		t.Fatalf("new-worker SetBase: %d dirty workers, want 1", n)
	}
}
