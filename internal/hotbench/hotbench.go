// Package hotbench defines the shared benchmark bodies for the
// estimation/assignment hot path. They are run two ways: as ordinary
// `go test -bench` benchmarks (hotpath_bench_test.go at the repo root,
// Benchmark{Precompute,ComputeScheme,PerformanceTest,AssignThroughput}) and via
// testing.Benchmark by the icrowd-bench command, which writes the
// machine-readable BENCH_hotpath.json report. Keeping one copy of each
// body guarantees the report measures exactly what the named benchmarks
// measure.
package hotbench

import (
	"fmt"
	"sync/atomic"
	"testing"

	"icrowd/internal/core"
	"icrowd/internal/ppr"
	"icrowd/internal/simgraph"
	"icrowd/internal/task"
)

// ParallelWorkers is the fan-out of the parallel benchmark variants. It is
// pinned at 8 — the core count the paper's scalability figures (and this
// repo's speedup target) are quoted at — rather than GOMAXPROCS, so the
// configuration is identical across machines and reports differ only in
// how much hardware was available to back it.
const ParallelWorkers = 8

// Graph builds the ItemCompare similarity graph the PPR benchmarks solve
// over (360 microtasks, Jaccard threshold 0.25).
func Graph() (*task.Dataset, *simgraph.Graph, error) {
	ds := task.GenerateItemCompare(1)
	g, err := simgraph.Build(ds.Len(), simgraph.JaccardMetric(ds), 0.25, 0)
	return ds, g, err
}

// Precompute returns the BenchmarkPrecompute body: the full offline phase
// of Algorithm 1 (one sparse PPR solve per microtask) with the given
// solver fan-out. workers=1 is the sequential baseline the parallel
// variants are compared against.
func Precompute(workers int) func(*testing.B) {
	return func(b *testing.B) {
		_, g, err := Graph()
		if err != nil {
			b.Fatal(err)
		}
		o := ppr.DefaultOptions()
		o.Workers = workers
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := ppr.Precompute(g, o); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// PrecomputeDelta returns the BenchmarkPrecomputeDelta body: the delta
// path of incremental basis maintenance. With a basis already covering all
// but one task, each iteration invalidates and re-solves that single seed
// via Basis.SolveMissing — exactly what lazy-basis mode (core.WithLazyBasis)
// pays when one newly observed task needs its vector, instead of a full
// Precompute. The committed gate requires this to be >= 10x cheaper than
// BenchmarkPrecompute/workers=1 on the same graph.
func PrecomputeDelta() func(*testing.B) {
	return func(b *testing.B) {
		_, g, err := Graph()
		if err != nil {
			b.Fatal(err)
		}
		o := ppr.DefaultOptions()
		missing := g.N() - 1
		seeds := make([]int, missing)
		for i := range seeds {
			seeds[i] = i
		}
		basis, err := ppr.PrecomputePartial(g, o, seeds)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			basis.Invalidate(missing)
			if _, err := basis.SolveMissing(g, []int{missing}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// pool returns n deterministic worker IDs.
func pool(n int) []string {
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("w%03d", i)
	}
	return ids
}

// qualified builds an ICrowd job on ds/basis and walks every worker in
// ids through qualification (answering ground truth), leaving the job at
// the start of its adaptive phase.
func qualified(b *testing.B, ds *task.Dataset, basis *ppr.Basis, cfg core.Config, ids []string, opts ...core.Option) *core.ICrowd {
	b.Helper()
	ic, err := core.New(ds, basis, cfg, opts...)
	if err != nil {
		b.Fatal(err)
	}
	for _, w := range ids {
		qualify(b, ic, ds, w, 0)
	}
	return ic
}

// qualify walks worker w through qualification, answering the first wrong
// microtasks wrongly and the rest with the ground truth.
func qualify(b *testing.B, ic *core.ICrowd, ds *task.Dataset, w string, wrong int) {
	b.Helper()
	for i := range ic.QualificationTasks() {
		tid, ok := ic.RequestTask(w)
		if !ok {
			b.Fatal("no qualification task")
		}
		ans := ds.Tasks[tid].Truth
		if i < wrong {
			ans = ans.Flip()
		}
		if err := ic.SubmitAnswer(w, tid, ans); err != nil {
			b.Fatal(err)
		}
	}
}

// SchemeCrowd is the crowd size of the concurrency=N ComputeScheme rows.
const SchemeCrowd = 24

// AdaptiveCrowd is the crowd size the serving benchmark's adaptive workload
// runs (icbench): at this size a task's support holds up to the whole crowd,
// far more than its top set.
const AdaptiveCrowd = 200

// ComputeScheme returns the BenchmarkComputeScheme body: each iteration
// submits one answer (dirtying the submitting worker's top-set entries)
// and requests the next microtask, which forces the incremental scheme
// recomputation — the dominant cost of a mid-job adaptive round. The
// concurrency knob is core.Config.Concurrency; 1 forces the sequential
// recompute path. crowd is the number of qualified workers taking turns.
func ComputeScheme(concurrency, crowd int) func(*testing.B) {
	return func(b *testing.B) {
		ds, g, err := Graph()
		if err != nil {
			b.Fatal(err)
		}
		basis, err := ppr.Precompute(g, ppr.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		cfg := core.DefaultConfig()
		cfg.Concurrency = concurrency
		ids := pool(crowd)
		ic := qualified(b, ds, basis, cfg, ids)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			w := ids[i%len(ids)]
			tid, ok := ic.RequestTask(w)
			if !ok {
				// Job finished: start a fresh one off the clock.
				b.StopTimer()
				ic = qualified(b, ds, basis, cfg, ids)
				b.StartTimer()
				continue
			}
			if err := ic.SubmitAnswer(w, tid, ds.Tasks[tid].Truth); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// PerformanceTest returns the BenchmarkPerformanceTest body: RequestTask
// for a qualified worker the scheme left out, which gets a Step-3 test
// microtask (Section 4.1) chosen over every completed task. Half the crowd
// passes qualification with full marks and takes the top worker sets; the
// other half passes at 7/10, is never in a set, and is served by Step 3.
// The strong half first completes half the job, so the test has some 180
// completed candidates with their voters to score. Each timed request is
// one weak worker's; between batches, off the clock, the weak workers are
// released and the scheme is recomputed, so the job stays where it is and
// no timed request runs Algorithm 2.
func PerformanceTest(crowd int) func(*testing.B) {
	return func(b *testing.B) {
		ds, g, err := Graph()
		if err != nil {
			b.Fatal(err)
		}
		basis, err := ppr.Precompute(g, ppr.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		ic, err := core.New(ds, basis, core.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		ids := pool(crowd)
		strong, weak := ids[:crowd/2], ids[crowd/2:]
		for _, w := range strong {
			qualify(b, ic, ds, w, 0)
		}
		for _, w := range weak {
			qualify(b, ic, ds, w, 3)
		}
		for round := 0; ic.Job().NumCompleted() < ds.Len()/2; round++ {
			if round == 100 {
				b.Fatalf("job stuck at %d completed tasks", ic.Job().NumCompleted())
			}
			for _, w := range strong {
				if tid, ok := ic.RequestTask(w); ok {
					if err := ic.SubmitAnswer(w, tid, ds.Tasks[tid].Truth); err != nil {
						b.Fatal(err)
					}
				}
			}
		}
		trigger := strong[0]
		b.ResetTimer()
		for i := 0; i < b.N; {
			b.StopTimer()
			for _, w := range weak {
				ic.WorkerInactive(w)
			}
			ic.WorkerInactive(trigger)
			ic.RequestTask(trigger) // runs the scheme, leaving it clean
			b.StartTimer()
			n := min(len(weak), b.N-i)
			for _, w := range weak[:n] {
				ic.RequestTask(w)
			}
			i += n
			b.StopTimer()
			for _, w := range weak[:n] {
				if tid, ok := ic.Job().Pending(w); !ok || !ic.Job().PendingTest(w, tid) {
					b.Fatalf("worker %s got no Step-3 test", w)
				}
			}
			b.StartTimer()
		}
	}
}

// AssignThroughput returns the BenchmarkAssignThroughput body: nWorkers
// qualified workers each hold an open assignment, and the benchmark's
// goroutines hammer RequestTask, exercising the idempotent-redelivery
// read path — the /assign fast path that the sharded lock scheme serves
// from a read lock without blocking behind scheme recomputation.
//
// opts pass through to core.New; the bench tooling uses
// core.WithMetrics(nil) to measure the metrics-off variant and report the
// observability layer's hot-path overhead.
func AssignThroughput(nWorkers int, opts ...core.Option) func(*testing.B) {
	return func(b *testing.B) {
		ds, g, err := Graph()
		if err != nil {
			b.Fatal(err)
		}
		basis, err := ppr.Precompute(g, ppr.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		cfg := core.DefaultConfig()
		ids := pool(nWorkers)
		ic := qualified(b, ds, basis, cfg, ids, opts...)
		for _, w := range ids {
			if _, ok := ic.RequestTask(w); !ok {
				b.Fatalf("worker %s got no assignment", w)
			}
		}
		var next atomic.Int64
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			w := ids[int(next.Add(1)-1)%len(ids)]
			for pb.Next() {
				if _, ok := ic.RequestTask(w); !ok {
					b.Errorf("worker %s lost its assignment", w)
					return
				}
			}
		})
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "assigns/s")
	}
}
