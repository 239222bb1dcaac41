package core

import (
	"slices"
	"testing"

	"icrowd/internal/task"
)

// TestInfQFGoldenItemCompare pins Algorithm 4's picks on ItemCompare
// (dataset seed 1, default basis, q = 10). InfQF decides which microtasks
// every worker is graded on, so any drift in the basis rows' order or
// values, or in the greedy's accumulation order, changes every run after
// it: the picks must stay exactly these.
func TestInfQFGoldenItemCompare(t *testing.T) {
	ds := task.GenerateItemCompare(1)
	basis, err := BuildBasis(ds, DefaultBasisConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Q = 10
	ic, err := New(ds, basis, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{8, 29, 40, 119, 129, 222, 248, 261, 286, 292}
	if got := ic.QualificationTasks(); !slices.Equal(got, want) {
		t.Fatalf("InfQF picks %v, want %v", got, want)
	}
}
