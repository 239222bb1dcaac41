package ppr

import (
	"maps"
	"math"
	"testing"

	"icrowd/internal/simgraph"
	"icrowd/internal/task"
)

// parityGraph builds a moderately sized graph whose basis vectors have
// nontrivial support, for parallel/sequential comparisons.
func parityGraph(t testing.TB, seed int64) *simgraph.Graph {
	t.Helper()
	ds := task.GenerateItemCompare(seed)
	g, err := simgraph.Build(ds.Len(), simgraph.JaccardMetric(ds), 0.25, 0)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// identicalRows asserts two rows are bit-identical: the same indices in the
// same order and the same float64 bits, not merely close values.
func identicalRows(t *testing.T, taskID int, a, b Row) {
	t.Helper()
	if a.Len() != b.Len() || len(a.Val) != len(b.Val) {
		t.Fatalf("task %d: nnz mismatch %d vs %d", taskID, a.Len(), b.Len())
	}
	for k := range a.Idx {
		if a.Idx[k] != b.Idx[k] {
			t.Fatalf("task %d position %d: index %d != %d", taskID, k, a.Idx[k], b.Idx[k])
		}
		if math.Float64bits(a.Val[k]) != math.Float64bits(b.Val[k]) {
			t.Fatalf("task %d entry %d: %v != %v (bit mismatch)", taskID, a.Idx[k], a.Val[k], b.Val[k])
		}
	}
}

// rowMatchesMap asserts row r is the sparse vector want, bit for bit, laid
// out in strictly ascending index order.
func rowMatchesMap(t *testing.T, taskID int, want map[int]float64, r Row) {
	t.Helper()
	if r.Len() != len(want) || len(r.Val) != len(want) {
		t.Fatalf("task %d: row has %d indices and %d values, want %d entries", taskID, r.Len(), len(r.Val), len(want))
	}
	for k, j := range r.Idx {
		if k > 0 && j <= r.Idx[k-1] {
			t.Fatalf("task %d: row indices not ascending at position %d (%d after %d)", taskID, k, j, r.Idx[k-1])
		}
		x, ok := want[int(j)]
		if !ok {
			t.Fatalf("task %d: row holds entry %d the reference lacks", taskID, j)
		}
		if math.Float64bits(x) != math.Float64bits(r.Val[k]) {
			t.Fatalf("task %d entry %d: reference %v != row %v (bit mismatch)", taskID, j, x, r.Val[k])
		}
	}
}

// TestPrecomputeParallelParity is the tentpole guarantee: the parallel
// precompute path is byte-identical to the sequential path, for several
// dataset seeds and pool sizes.
func TestPrecomputeParallelParity(t *testing.T) {
	for _, seed := range []int64{1, 2, 7} {
		g := parityGraph(t, seed)
		seq := DefaultOptions()
		seq.Workers = 1
		want, err := Precompute(g, seq)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{0, 2, 4, 8} {
			par := DefaultOptions()
			par.Workers = workers
			got, err := Precompute(g, par)
			if err != nil {
				t.Fatal(err)
			}
			if got.N() != want.N() {
				t.Fatalf("seed %d workers %d: N %d != %d", seed, workers, got.N(), want.N())
			}
			for i := 0; i < got.N(); i++ {
				identicalRows(t, i, want.Vec(i), got.Vec(i))
			}
		}
	}
}

// TestSparseSolveDeterministic asserts repeated solves of the same seed
// produce bit-identical vectors (the solver fixes its accumulation order).
func TestSparseSolveDeterministic(t *testing.T) {
	g := parityGraph(t, 3)
	o := DefaultOptions()
	for seed := 0; seed < g.N(); seed += 17 {
		a, _, err := SparseSolve(g, seed, o)
		if err != nil {
			t.Fatal(err)
		}
		b, _, err := SparseSolve(g, seed, o)
		if err != nil {
			t.Fatal(err)
		}
		if !maps.Equal(a, b) {
			t.Fatalf("seed %d: repeated solves differ", seed)
		}
	}
}

// TestPrecomputePartialParallelParity covers the partial path, including
// duplicate seeds (which must not race or double-solve).
func TestPrecomputePartialParallelParity(t *testing.T) {
	g := parityGraph(t, 5)
	seeds := []int{0, 3, 3, 9, 41, 9, 120, 0, 77}
	seq := DefaultOptions()
	seq.Workers = 1
	want, err := PrecomputePartial(g, seq, seeds)
	if err != nil {
		t.Fatal(err)
	}
	par := DefaultOptions()
	par.Workers = 4
	got, err := PrecomputePartial(g, par, seeds)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < g.N(); i++ {
		identicalRows(t, i, want.Vec(i), got.Vec(i))
	}
}

// TestPrecomputePartialRejectsBadSeed keeps the validation behaviour.
func TestPrecomputePartialRejectsBadSeed(t *testing.T) {
	g := parityGraph(t, 1)
	if _, err := PrecomputePartial(g, DefaultOptions(), []int{0, g.N()}); err == nil {
		t.Fatal("expected out-of-range seed error")
	}
}

// TestOptionsWorkersValidation rejects a negative pool size.
func TestOptionsWorkersValidation(t *testing.T) {
	o := DefaultOptions()
	o.Workers = -1
	if _, err := Precompute(parityGraph(t, 1), o); err == nil {
		t.Fatal("expected Workers validation error")
	}
}
