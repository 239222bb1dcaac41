// Benchmarks for the estimation/assignment hot path, backing the
// BENCH_hotpath.json report (`make bench`, cmd/icrowd-bench). The bodies
// live in internal/hotbench so the report and these benchmarks can never
// drift apart.
package icrowd

import (
	"fmt"
	"testing"

	"icrowd/internal/core"
	"icrowd/internal/hotbench"
)

// BenchmarkPrecompute measures the offline PPR basis precomputation,
// sequential vs the 8-way solver pool (the two produce bit-identical
// bases; see ppr.TestPrecomputeParallelParity).
func BenchmarkPrecompute(b *testing.B) {
	for _, w := range []int{1, hotbench.ParallelWorkers} {
		b.Run(fmt.Sprintf("workers=%d", w), hotbench.Precompute(w))
	}
}

// BenchmarkPrecomputeDelta measures the incremental-maintenance path: a
// basis covering all but one task invalidates and re-solves that single
// seed via Basis.SolveMissing each iteration. The benchdiff gate holds it
// >= 10x cheaper than the sequential full precompute.
func BenchmarkPrecomputeDelta(b *testing.B) {
	hotbench.PrecomputeDelta()(b)
}

// BenchmarkComputeScheme measures one adaptive round mid-job: a submitted
// answer dirties the worker's top-set entries and the following request
// forces the incremental scheme recomputation. The concurrency=N rows run a
// 24-worker crowd; crowd=200 runs the serving benchmark's crowd size
// sequentially, where a task's support far outgrows its top set.
func BenchmarkComputeScheme(b *testing.B) {
	for _, c := range []int{1, hotbench.ParallelWorkers} {
		b.Run(fmt.Sprintf("concurrency=%d", c), hotbench.ComputeScheme(c, hotbench.SchemeCrowd))
	}
	b.Run(fmt.Sprintf("crowd=%d", hotbench.AdaptiveCrowd), hotbench.ComputeScheme(1, hotbench.AdaptiveCrowd))
}

// BenchmarkPerformanceTest measures Step 3 of Algorithm 2: a worker the
// scheme left out requests and gets a test microtask, scored over every
// completed task, in the serving benchmark's 200-worker crowd.
func BenchmarkPerformanceTest(b *testing.B) {
	b.Run(fmt.Sprintf("crowd=%d", hotbench.AdaptiveCrowd), hotbench.PerformanceTest(hotbench.AdaptiveCrowd))
}

// BenchmarkAssignThroughput measures the /assign fast path: concurrent
// idempotent redelivery reads served under the framework's read lock. The
// metrics=off variant disables the observability layer to expose its
// overhead (budget: <= 5%, tracked in BENCH_hotpath.json).
func BenchmarkAssignThroughput(b *testing.B) {
	b.Run(fmt.Sprintf("workers=%d", hotbench.ParallelWorkers),
		hotbench.AssignThroughput(hotbench.ParallelWorkers))
	b.Run(fmt.Sprintf("workers=%d/metrics=off", hotbench.ParallelWorkers),
		hotbench.AssignThroughput(hotbench.ParallelWorkers, core.WithMetrics(nil)))
}
