package ppr

import (
	"math"
	"testing"

	"icrowd/internal/simgraph"
)

func TestPrecomputePartial(t *testing.T) {
	g := table1Graph(t)
	o := DefaultOptions()
	seeds := []int{0, 5, 5, 11} // duplicates must be tolerated
	partial, err := PrecomputePartial(g, o, seeds)
	if err != nil {
		t.Fatal(err)
	}
	full, err := Precompute(g, o)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []int{0, 5, 11} {
		pv, fv := rowMap(partial.Vec(s)), rowMap(full.Vec(s))
		if len(pv) != len(fv) {
			t.Fatalf("seed %d: nnz %d vs %d", s, len(pv), len(fv))
		}
		for j, x := range fv {
			if math.Abs(pv[j]-x) > 1e-12 {
				t.Fatalf("seed %d entry %d differs", s, j)
			}
		}
	}
	// Non-seed vectors stay unsolved.
	if partial.Vec(3).Len() != 0 {
		t.Fatal("non-seed vector should be unsolved")
	}
	// Combine over the seeded entries still works.
	got := partial.Combine(map[int]float64{0: 1, 5: 0.5})
	want := full.Combine(map[int]float64{0: 1, 5: 0.5})
	for j, x := range want {
		if math.Abs(got[j]-x) > 1e-12 {
			t.Fatalf("combine entry %d differs", j)
		}
	}
	// Options validation still applies.
	bad := o
	bad.Alpha = 0
	if _, err := PrecomputePartial(g, bad, seeds); err == nil {
		t.Fatal("bad options should error")
	}
	if _, err := PrecomputePartial(g, o, []int{-1}); err == nil {
		t.Fatal("out-of-range seed should error")
	}
}

func TestPrecomputePartialOnLargeRandomGraph(t *testing.T) {
	g, err := simgraph.BuildRandom(5000, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	o := DefaultOptions()
	o.DropTol = 1e-4
	b, err := PrecomputePartial(g, o, []int{0, 100, 4999})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []int{0, 100, 4999} {
		v := rowMap(b.Vec(s))
		if v == nil || v[s] < 0.49 {
			t.Fatalf("seed %d basis missing or malformed", s)
		}
	}
}
