package ppr

import (
	"math"
	"testing"

	"icrowd/internal/simgraph"
	"icrowd/internal/task"
)

// table1Graph builds the Figure-3 similarity graph: Jaccard >= 0.5 over the
// Table-1 microtasks.
func table1Graph(t testing.TB) *simgraph.Graph {
	t.Helper()
	ds := task.ProductMatching()
	g, err := simgraph.Build(ds.Len(), simgraph.JaccardMetric(ds), 0.5, 0)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestOptionsValidation(t *testing.T) {
	g := table1Graph(t)
	q := make([]float64, g.N())
	bad := []Options{
		{Alpha: 0, Tol: 1e-9, MaxIter: 10},
		{Alpha: -1, Tol: 1e-9, MaxIter: 10},
		{Alpha: 1, Tol: 1e-9, MaxIter: 0},
		{Alpha: 1, Tol: -1, MaxIter: 10},
		{Alpha: 1, Tol: 1e-9, MaxIter: 10, DropTol: -1},
	}
	for i, o := range bad {
		if _, _, err := DenseSolve(g, q, o); err == nil {
			t.Fatalf("case %d: DenseSolve accepted bad options", i)
		}
		if _, _, err := SparseSolve(g, 0, o); err == nil {
			t.Fatalf("case %d: SparseSolve accepted bad options", i)
		}
	}
	if _, _, err := DenseSolve(g, q[:3], DefaultOptions()); err == nil {
		t.Fatal("length mismatch should error")
	}
	if _, _, err := SparseSolve(g, -1, DefaultOptions()); err == nil {
		t.Fatal("seed out of range should error")
	}
	if _, err := ClosedForm(g, q[:2], 1); err == nil {
		t.Fatal("ClosedForm length mismatch should error")
	}
	if _, err := ClosedForm(g, q, 0); err == nil {
		t.Fatal("ClosedForm alpha=0 should error")
	}
}

func TestDenseMatchesClosedForm(t *testing.T) {
	// Lemma 2: the Eq.-(4) iteration converges to the Lemma-1 closed form.
	g := table1Graph(t)
	q := make([]float64, g.N())
	q[0] = 1 // worker answered t1 correctly
	q[1] = 0 // t2 incorrectly
	q[2] = 0 // t3 incorrectly
	for _, alpha := range []float64{0.1, 0.5, 1, 2, 10} {
		o := DefaultOptions()
		o.Alpha = alpha
		iter, _, err := DenseSolve(g, q, o)
		if err != nil {
			t.Fatal(err)
		}
		exact, err := ClosedForm(g, q, alpha)
		if err != nil {
			t.Fatal(err)
		}
		for i := range iter {
			if math.Abs(iter[i]-exact[i]) > 1e-6 {
				t.Fatalf("alpha=%v task %d: iterative %v vs closed form %v",
					alpha, i, iter[i], exact[i])
			}
		}
	}
}

func TestSparseMatchesDense(t *testing.T) {
	g := table1Graph(t)
	o := DefaultOptions()
	o.DropTol = 0 // exact comparison
	for seed := 0; seed < g.N(); seed++ {
		sp, _, err := SparseSolve(g, seed, o)
		if err != nil {
			t.Fatal(err)
		}
		q := make([]float64, g.N())
		q[seed] = 1
		dn, _, err := DenseSolve(g, q, o)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < g.N(); i++ {
			if math.Abs(sp[i]-dn[i]) > 1e-6 {
				t.Fatalf("seed %d task %d: sparse %v vs dense %v", seed, i, sp[i], dn[i])
			}
		}
	}
}

func TestLinearity(t *testing.T) {
	// Lemma 3: p*(q) = sum_i q_i p_{t_i}.
	g := table1Graph(t)
	o := DefaultOptions()
	o.DropTol = 0
	basis, err := Precompute(g, o)
	if err != nil {
		t.Fatal(err)
	}
	q := map[int]float64{0: 1, 3: 0.8, 5: 0.3}
	combined := basis.Combine(q)
	qd := make([]float64, g.N())
	for i, v := range q {
		qd[i] = v
	}
	dense, _, err := DenseSolve(g, qd, o)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < g.N(); i++ {
		if math.Abs(combined[i]-dense[i]) > 1e-6 {
			t.Fatalf("task %d: combined %v vs dense %v", i, combined[i], dense[i])
		}
	}
}

func TestCombineInto(t *testing.T) {
	g := table1Graph(t)
	basis, err := Precompute(g, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	q := map[int]float64{0: 1, 1: 0.5}
	want := basis.Combine(q)
	out := map[int]float64{99: 42} // stale content must be cleared
	basis.CombineInto(q, out)
	if _, ok := out[99]; ok {
		t.Fatal("CombineInto did not clear stale entries")
	}
	if len(out) != len(want) {
		t.Fatalf("CombineInto size %d, want %d", len(out), len(want))
	}
	for k, v := range want {
		if math.Abs(out[k]-v) > 1e-12 {
			t.Fatalf("CombineInto[%d] = %v, want %v", k, out[k], v)
		}
	}
	// Zero weights are skipped entirely.
	basis.CombineInto(map[int]float64{0: 0}, out)
	if len(out) != 0 {
		t.Fatal("zero-weight combine should be empty")
	}
}

func TestEstimatesRespectClusters(t *testing.T) {
	// The paper's running example: a worker answers t1 (iPhone) correctly
	// and t2 (iPod), t3 (iPad) incorrectly. Estimated accuracies should be
	// higher on the other iPhone tasks than on iPod/iPad tasks.
	ds := task.ProductMatching()
	g := table1Graph(t)
	q := make([]float64, g.N())
	q[0] = 1
	p, _, err := DenseSolve(g, q, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var iphone, other []float64
	for i := 3; i < ds.Len(); i++ {
		if ds.Tasks[i].Domain == "iPhone" {
			iphone = append(iphone, p[i])
		} else {
			other = append(other, p[i])
		}
	}
	meanA, meanB := mean(iphone), mean(other)
	if meanA <= meanB {
		t.Fatalf("iPhone estimates %v not above others %v", meanA, meanB)
	}
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	if len(xs) == 0 {
		return 0
	}
	return s / float64(len(xs))
}

func TestBasisProperties(t *testing.T) {
	g := table1Graph(t)
	basis, err := Precompute(g, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if basis.N() != g.N() {
		t.Fatalf("basis covers %d tasks, want %d", basis.N(), g.N())
	}
	if basis.NNZ() == 0 {
		t.Fatal("basis has no nonzeros")
	}
	for i := 0; i < g.N(); i++ {
		v := rowMap(basis.Vec(i))
		// Seed mass: p_{t_i}(i) >= restart = alpha/(1+alpha).
		if v[i] < 0.5-1e-9 {
			t.Fatalf("seed %d self-mass %v < 0.5", i, v[i])
		}
		for j, x := range v {
			if x < 0 || x > 1+1e-9 {
				t.Fatalf("basis[%d][%d] = %v out of [0,1]", i, j, x)
			}
		}
		sup := basis.Support(i)
		if len(sup) != len(v) {
			t.Fatalf("support size mismatch at %d", i)
		}
		for k := 1; k < len(sup); k++ {
			if sup[k-1] >= sup[k] {
				t.Fatal("support not sorted")
			}
		}
	}
	// Vec and Support are views of the stored row: no copy, no allocation.
	if &basis.Support(0)[0] != &basis.Vec(0).Idx[0] {
		t.Fatal("Support does not alias the row")
	}
	if n := testing.AllocsPerRun(10, func() { _ = basis.Vec(1); _ = basis.Support(2) }); n != 0 {
		t.Fatalf("Vec/Support allocate %v times per call", n)
	}
}

func TestSupportStaysWithinComponent(t *testing.T) {
	// Basis vectors must not leak across connected components: influence in
	// the paper's Section 5 is exactly this support.
	g := table1Graph(t)
	comp := map[int]int{}
	for ci, c := range g.Components() {
		for _, v := range c {
			comp[v] = ci
		}
	}
	basis, err := Precompute(g, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < g.N(); i++ {
		for _, j := range basis.Support(i) {
			if comp[i] != comp[int(j)] {
				t.Fatalf("support of %d leaks into foreign component via %d", i, j)
			}
		}
	}
}

func TestDropTolSparsifies(t *testing.T) {
	ds := task.GenerateItemCompare(1)
	g, err := simgraph.Build(ds.Len(), simgraph.JaccardMetric(ds), 0.2, 0)
	if err != nil {
		t.Fatal(err)
	}
	exact := DefaultOptions()
	exact.DropTol = 0
	loose := DefaultOptions()
	loose.DropTol = 1e-3
	be, err := Precompute(g, exact)
	if err != nil {
		t.Fatal(err)
	}
	bl, err := Precompute(g, loose)
	if err != nil {
		t.Fatal(err)
	}
	if bl.NNZ() >= be.NNZ() {
		t.Fatalf("DropTol did not sparsify: %d vs %d", bl.NNZ(), be.NNZ())
	}
	// Loose vectors still approximate the exact ones.
	for i := 0; i < g.N(); i += 17 {
		ve, vl := rowMap(be.Vec(i)), rowMap(bl.Vec(i))
		for j, x := range ve {
			if math.Abs(x-vl[j]) > 5e-3 {
				t.Fatalf("seed %d entry %d: %v vs %v", i, j, x, vl[j])
			}
		}
	}
}

func TestAlphaExtremes(t *testing.T) {
	// Large alpha pins p to q; small alpha diffuses mass to neighbors
	// (Appendix D.2 discussion).
	g := table1Graph(t)
	q := make([]float64, g.N())
	q[0] = 1
	big := DefaultOptions()
	big.Alpha = 100
	p, _, err := DenseSolve(g, q, big)
	if err != nil {
		t.Fatal(err)
	}
	if p[0] < 0.97 {
		t.Fatalf("alpha=100 should pin p[0] near 1, got %v", p[0])
	}
	small := DefaultOptions()
	small.Alpha = 0.05
	ps, _, err := DenseSolve(g, q, small)
	if err != nil {
		t.Fatal(err)
	}
	// With small alpha, more mass leaks to neighbors than with large alpha.
	if ps[3] <= p[3] {
		t.Fatalf("small alpha should diffuse more: %v <= %v", ps[3], p[3])
	}
}
