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

func TestDirtyTrackingObserve(t *testing.T) {
	_, b := dirtyBasis(t)
	e := New(b, DefaultLambda)
	e.EnsureWorker("w", 0.7)
	e.ResetDirty()

	if got := e.DirtyWorkers(); len(got) != 0 {
		t.Fatalf("clean estimator reports dirty workers %v", got)
	}
	if err := e.Observe("w", 0, 1); err != nil {
		t.Fatal(err)
	}
	if got := e.DirtyWorkers(); !reflect.DeepEqual(got, []string{"w"}) {
		t.Fatalf("DirtyWorkers = %v, want [w]", got)
	}
	// The dirty tasks are exactly the support of the observed task's basis
	// vector: the tasks where w's estimate actually moved.
	want := map[int]bool{}
	for tid := range b.Vec(0) {
		want[tid] = true
	}
	got := map[int]bool{}
	e.EachDirtyTask(func(tid int) {
		if got[tid] {
			t.Fatalf("task %d reported dirty twice", tid)
		}
		got[tid] = true
	})
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("dirty tasks = %v, want support of vec(0) %v", got, want)
	}

	e.ResetDirty()
	// Re-observing with the same value is a no-op: nothing moves.
	if err := e.Observe("w", 0, 1); err != nil {
		t.Fatal(err)
	}
	if got := e.DirtyWorkers(); len(got) != 0 {
		t.Fatalf("no-op re-observe marked dirty: %v", got)
	}
	// Re-observing with a different value moves estimates again.
	if err := e.Observe("w", 0, 0); err != nil {
		t.Fatal(err)
	}
	if got := e.DirtyWorkers(); !reflect.DeepEqual(got, []string{"w"}) {
		t.Fatalf("changed re-observe: DirtyWorkers = %v", got)
	}
}

func TestDirtyTrackingSetBase(t *testing.T) {
	_, b := dirtyBasis(t)
	e := New(b, DefaultLambda)
	e.EnsureWorker("w", 0.7)
	e.ResetDirty()

	e.SetBase("w", 0.7) // unchanged: no dirt
	if e.DirtyAll() || len(e.DirtyWorkers()) != 0 {
		t.Fatal("unchanged SetBase marked dirty")
	}
	e.SetBase("w", 0.9)
	if !e.DirtyAll() {
		t.Fatal("base change must set DirtyAll")
	}
	e.ResetDirty()
	if e.DirtyAll() {
		t.Fatal("ResetDirty did not clear DirtyAll")
	}

	// SetBase on an unknown worker registers it without DirtyAll (a brand
	// new worker cannot have been part of any cached scheme state).
	e.SetBase("new", 0.8)
	if e.DirtyAll() {
		t.Fatal("new-worker SetBase must not set DirtyAll")
	}
	if got := e.DirtyWorkers(); !reflect.DeepEqual(got, []string{"new"}) {
		t.Fatalf("DirtyWorkers = %v, want [new]", got)
	}
}
