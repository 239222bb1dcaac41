package ppr

import (
	"math"
	"testing"

	"icrowd/internal/simgraph"
)

// identicalResults asserts two solves terminated identically, including the
// bit pattern of the residual.
func identicalResults(t *testing.T, taskID int, a, b Result) {
	t.Helper()
	if a.Converged != b.Converged || a.Iters != b.Iters ||
		math.Float64bits(a.Residual) != math.Float64bits(b.Residual) {
		t.Fatalf("task %d: Result mismatch %+v vs %+v", taskID, a, b)
	}
}

// TestPushMatchesSparseFuzz is the parity pin of the push solver: the rows
// it emits must be bit-exact against the reference map-based SparseSolve,
// in strictly ascending index order, across random graphs and solver
// configurations. Any accumulation-order drift between the two shows up
// here as a float64 bit mismatch.
func TestPushMatchesSparseFuzz(t *testing.T) {
	type cfg struct {
		alpha, dropTol float64
	}
	cfgs := []cfg{
		{1.0, 1e-7},
		{0.3, 1e-7},
		{2.5, 0},
		{1.0, 1e-3},
		{0.1, 1e-5},
	}
	for _, gseed := range []int64{1, 2, 3, 11} {
		g, err := simgraph.BuildRandom(240, 16, gseed)
		if err != nil {
			t.Fatal(err)
		}
		sv := NewSolver(g)
		for _, c := range cfgs {
			o := DefaultOptions()
			o.Alpha = c.alpha
			o.DropTol = c.dropTol
			for seed := 0; seed < g.N(); seed += 13 {
				want, wantRes, err := SparseSolve(g, seed, o)
				if err != nil {
					t.Fatal(err)
				}
				got, gotRes, err := sv.Solve(seed, o)
				if err != nil {
					t.Fatal(err)
				}
				rowMatchesMap(t, seed, want, got)
				identicalResults(t, seed, wantRes, gotRes)
			}
		}
	}
}

// TestSolverScratchReuse pins the visited-stack reset: a solver reused
// across many seeds (and across option changes) must produce exactly what a
// fresh solver produces — any residue left in the dense scratch would break
// this.
func TestSolverScratchReuse(t *testing.T) {
	g, err := simgraph.BuildRandom(300, 20, 7)
	if err != nil {
		t.Fatal(err)
	}
	reused := NewSolver(g)
	o := DefaultOptions()
	// Interleave a deliberately truncated solve so leftover frontier mass
	// from an unconverged exit gets a chance to leak into the next solve.
	trunc := DefaultOptions()
	trunc.MaxIter = 1
	for seed := 0; seed < g.N(); seed += 7 {
		if _, _, err := reused.Solve((seed+11)%g.N(), trunc); err != nil {
			t.Fatal(err)
		}
		got, gotRes, err := reused.Solve(seed, o)
		if err != nil {
			t.Fatal(err)
		}
		want, wantRes, err := NewSolver(g).Solve(seed, o)
		if err != nil {
			t.Fatal(err)
		}
		identicalRows(t, seed, want, got)
		identicalResults(t, seed, wantRes, gotRes)
	}
}

// TestSolverValidation keeps the push solver's input checking aligned with
// the reference solver's.
func TestSolverValidation(t *testing.T) {
	g := table1Graph(t)
	sv := NewSolver(g)
	if _, _, err := sv.Solve(-1, DefaultOptions()); err == nil {
		t.Fatal("seed -1 should error")
	}
	if _, _, err := sv.Solve(g.N(), DefaultOptions()); err == nil {
		t.Fatal("seed N should error")
	}
	bad := DefaultOptions()
	bad.Alpha = 0
	if _, _, err := sv.Solve(0, bad); err == nil {
		t.Fatal("bad options should error")
	}
}

// TestUnconvergedSurfaced is the regression test for the silent-truncation
// bug: a solve that exhausts MaxIter must say so via Result.Converged and
// increment icrowd_ppr_unconverged_total, instead of returning the truncated
// vector as if it were the fixed point.
func TestUnconvergedSurfaced(t *testing.T) {
	g := table1Graph(t)
	o := DefaultOptions()
	o.MaxIter = 1 // one push of the seed's mass cannot drain the residual

	before := mUnconverged.Value()
	got, res, err := NewSolver(g).Solve(0, o)
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged {
		t.Fatal("MaxIter=1 solve reported Converged")
	}
	if res.Iters != 1 {
		t.Fatalf("Iters = %d, want 1", res.Iters)
	}
	if res.Residual <= o.Tol {
		t.Fatalf("Residual = %v, want > Tol on an unconverged exit", res.Residual)
	}
	if got.Len() == 0 {
		t.Fatal("unconverged solve should still return the best iterate")
	}
	if mUnconverged.Value() != before+1 {
		t.Fatalf("unconverged counter %d, want %d", mUnconverged.Value(), before+1)
	}

	// The reference solver and the dense solver honor the same contract.
	_, sres, err := SparseSolve(g, 0, o)
	if err != nil {
		t.Fatal(err)
	}
	if sres.Converged {
		t.Fatal("SparseSolve with MaxIter=1 reported Converged")
	}
	q := make([]float64, g.N())
	q[0] = 1
	_, dres, err := DenseSolve(g, q, o)
	if err != nil {
		t.Fatal(err)
	}
	if dres.Converged {
		t.Fatal("DenseSolve with MaxIter=1 reported Converged")
	}
	if mUnconverged.Value() != before+3 {
		t.Fatalf("unconverged counter %d, want %d", mUnconverged.Value(), before+3)
	}

	// A converged basis reports the truncation through the Basis accessors.
	basis, err := PrecomputePartial(g, o, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	if basis.Converged() {
		t.Fatal("basis with a truncated vector reported Converged")
	}
	if un := basis.Unconverged(); len(un) != 1 || un[0] != 0 {
		t.Fatalf("Unconverged() = %v, want [0]", un)
	}
	if r := basis.SolveResult(0); r.Converged {
		t.Fatal("SolveResult(0).Converged = true for a truncated solve")
	}
}

// TestConvergedRun pins the happy path: default options on the Table-1
// graph converge, and the whole basis says so.
func TestConvergedRun(t *testing.T) {
	g := table1Graph(t)
	basis, err := Precompute(g, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !basis.Converged() {
		t.Fatalf("default-options basis not converged: %v", basis.Unconverged())
	}
	for i := 0; i < g.N(); i++ {
		r := basis.SolveResult(i)
		if !r.Converged || r.Iters < 1 || r.Residual > DefaultOptions().Tol {
			t.Fatalf("seed %d: suspicious Result %+v", i, r)
		}
	}
}

// TestSolveSeedsEmptyNoInstruments is the regression test for instrument
// pollution: batch instruments must not move when there is nothing to
// solve (nil seed list, or SolveMissing with every seed already solved).
func TestSolveSeedsEmptyNoInstruments(t *testing.T) {
	g := table1Graph(t)
	basis, err := Precompute(g, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	solved := mSeedsSolved.Value()
	batches := mSolveLat.Count()

	if _, err := PrecomputePartial(g, DefaultOptions(), nil); err != nil {
		t.Fatal(err)
	}
	all := make([]int, g.N())
	for i := range all {
		all[i] = i
	}
	n, err := basis.SolveMissing(g, all)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("SolveMissing solved %d seeds on a full basis", n)
	}

	if got := mSeedsSolved.Value(); got != solved {
		t.Fatalf("seeds-solved counter moved %d -> %d on empty batches", solved, got)
	}
	if got := mSolveLat.Count(); got != batches {
		t.Fatalf("batch-latency histogram moved %d -> %d on empty batches", batches, got)
	}
}

// TestSolveMissingMatchesPrecompute pins the delta path: a basis grown
// lazily seed-by-seed through SolveMissing must be bit-identical to a full
// Precompute, and already-solved seeds and duplicates must be skipped.
func TestSolveMissingMatchesPrecompute(t *testing.T) {
	g, err := simgraph.BuildRandom(200, 12, 5)
	if err != nil {
		t.Fatal(err)
	}
	o := DefaultOptions()
	want, err := Precompute(g, o)
	if err != nil {
		t.Fatal(err)
	}

	lazy, err := PrecomputePartial(g, o, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m := lazy.Missing(); len(m) != g.N() {
		t.Fatalf("empty basis missing %d, want %d", len(m), g.N())
	}
	// Feed seeds one at a time with duplicates, as the lazy scheduler would.
	for seed := 0; seed < g.N(); seed++ {
		n, err := lazy.SolveMissing(g, []int{seed, seed})
		if err != nil {
			t.Fatal(err)
		}
		if n != 1 {
			t.Fatalf("seed %d: SolveMissing solved %d, want 1", seed, n)
		}
	}
	if n, err := lazy.SolveMissing(g, []int{0, 1, 2}); err != nil || n != 0 {
		t.Fatalf("re-solving solved seeds: n=%d err=%v", n, err)
	}
	if m := lazy.Missing(); len(m) != 0 {
		t.Fatalf("lazy basis still missing %v", m)
	}
	for i := 0; i < g.N(); i++ {
		identicalRows(t, i, want.Vec(i), lazy.Vec(i))
		identicalResults(t, i, want.SolveResult(i), lazy.SolveResult(i))
	}
}

// TestSolveMissingValidation covers the graph/seed checks of the delta path.
func TestSolveMissingValidation(t *testing.T) {
	g := table1Graph(t)
	basis, err := PrecomputePartial(g, DefaultOptions(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := basis.SolveMissing(g, []int{-1}); err == nil {
		t.Fatal("negative seed should error")
	}
	if _, err := basis.SolveMissing(g, []int{g.N()}); err == nil {
		t.Fatal("out-of-range seed should error")
	}
	bigger, err := simgraph.BuildRandom(g.N()+5, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := basis.SolveMissing(bigger, []int{0}); err == nil {
		t.Fatal("mismatched graph should error")
	}
}

// TestExtendAndInvalidate covers incremental growth: Extend adds unsolved
// slots for appended tasks, Invalidate queues a re-solve, and SolveMissing
// fills both.
func TestExtendAndInvalidate(t *testing.T) {
	small, err := simgraph.BuildRandom(60, 8, 9)
	if err != nil {
		t.Fatal(err)
	}
	o := DefaultOptions()
	basis, err := Precompute(small, o)
	if err != nil {
		t.Fatal(err)
	}

	// The graph gains tasks; IDs 0..59 keep their meaning.
	big, err := simgraph.BuildRandom(75, 8, 9)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := basis.SolveMissing(big, []int{60}); err == nil {
		t.Fatal("SolveMissing before Extend should reject the bigger graph")
	}
	added, err := basis.Extend(big)
	if err != nil {
		t.Fatal(err)
	}
	if added != 15 {
		t.Fatalf("Extend added %d, want 15", added)
	}
	if basis.N() != 75 {
		t.Fatalf("basis.N() = %d, want 75", basis.N())
	}
	if m := basis.Missing(); len(m) != 15 || m[0] != 60 {
		t.Fatalf("Missing() = %v, want [60..74]", m)
	}
	if _, err := basis.Extend(small); err == nil {
		t.Fatal("shrinking Extend should error")
	}

	basis.Invalidate(3)
	if basis.Vec(3).Len() != 0 || basis.SolveResult(3).Converged {
		t.Fatal("Invalidate left vector or result behind")
	}
	n, err := basis.SolveMissing(big, []int{3, 60, 61})
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("SolveMissing solved %d, want 3", n)
	}
	// Re-solved and newly solved vectors match a from-scratch precompute of
	// the bigger graph.
	want, err := Precompute(big, o)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{3, 60, 61} {
		identicalRows(t, i, want.Vec(i), basis.Vec(i))
	}
}
