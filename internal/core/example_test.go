package core_test

import (
	"fmt"

	"icrowd/internal/core"
	"icrowd/internal/task"
)

// Example runs the full adaptive framework on the paper's Table-1
// microtasks with a single perfect worker: warm-up qualification first,
// then adaptive assignments until the worker has touched everything it can.
func Example() {
	ds := task.ProductMatching()
	bc := core.DefaultBasisConfig()
	bc.Threshold = 0.5
	basis, err := core.BuildBasis(ds, bc)
	if err != nil {
		panic(err)
	}
	cfg := core.DefaultConfig()
	cfg.Q = 3
	ic, err := core.New(ds, basis, cfg)
	if err != nil {
		panic(err)
	}
	answered := 0
	for {
		tid, ok := ic.RequestTask("oracle")
		if !ok {
			break
		}
		if err := ic.SubmitAnswer("oracle", tid, ds.Tasks[tid].Truth); err != nil {
			panic(err)
		}
		answered++
	}
	fmt.Printf("oracle answered %d microtasks\n", answered)
	fmt.Printf("oracle qualified: %v\n", !ic.Rejected("oracle"))
	est := ic.Estimator()
	fmt.Printf("oracle base accuracy: %.1f\n", est.PriorAt(est.Ordinal("oracle")))
	// Output:
	// oracle answered 12 microtasks
	// oracle qualified: true
	// oracle base accuracy: 1.0
}
