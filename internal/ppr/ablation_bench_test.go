package ppr

import "testing"

// Ablation benchmarks for DESIGN.md §4 item 1 on the ItemCompare graph:
// the sparse push solver against dense power iteration of Eq. (4), and the
// Lemma-3 combination of basis rows against re-solving Eq. (4) for the
// same observed vector.

// BenchmarkAblationPPRSparsePush measures one basis vector with the
// production push solver.
func BenchmarkAblationPPRSparsePush(b *testing.B) {
	g := parityGraph(b, 1)
	sv := NewSolver(g)
	o := DefaultOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := sv.Solve(i%g.N(), o); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationPPRDenseIteration measures the dense Eq.-(4) power
// iteration the sparse push replaces.
func BenchmarkAblationPPRDenseIteration(b *testing.B) {
	g := parityGraph(b, 1)
	o := DefaultOptions()
	q := make([]float64, g.N())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q[i%len(q)] = 1
		if _, _, err := DenseSolve(g, q, o); err != nil {
			b.Fatal(err)
		}
		q[i%len(q)] = 0
	}
}

// BenchmarkAblationCombineLinearity measures the Lemma-3 linear combination
// of basis rows — the paper's core efficiency claim for online estimation.
func BenchmarkAblationCombineLinearity(b *testing.B) {
	g := parityGraph(b, 1)
	basis, err := Precompute(g, DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	q := map[int]float64{0: 1, 50: 0.4, 100: 0.9, 200: 0.2}
	out := map[int]float64{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if basis.CombineInto(q, out); len(out) == 0 {
			b.Fatal("empty combine")
		}
	}
}

// BenchmarkAblationResolveFromScratch is the baseline for
// BenchmarkAblationCombineLinearity: solving Eq. (4) densely for the same
// observed vector.
func BenchmarkAblationResolveFromScratch(b *testing.B) {
	g := parityGraph(b, 1)
	o := DefaultOptions()
	q := make([]float64, g.N())
	q[0], q[50], q[100], q[200] = 1, 0.4, 0.9, 0.2
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := DenseSolve(g, q, o); err != nil {
			b.Fatal(err)
		}
	}
}
