// Package ppr implements the personalized-PageRank machinery of Section 3.1:
// Eq. (4),
//
//	p = 1/(1+alpha) * S' p + alpha/(1+alpha) * q,
//
// whose fixed point is the closed form of Lemma 1, solved per task by a
// sparse localized push solver into the basis vectors p_{t_i}. A Basis
// stores each vector as a sorted sparse row, the form both readers walk:
// the Lemma-3 combination behind online estimation (internal/estimate) and
// the influence maximization of qualification selection (internal/qualify).
package ppr

import (
	"errors"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"icrowd/internal/obsv"
	"icrowd/internal/simgraph"
)

// Solver-pool instruments on the process default registry: Precompute and
// PrecomputePartial are offline batch work, so the per-process view is the
// useful one and no registry needs threading through the API.
var (
	mSeedsSolved = obsv.Default().Counter("icrowd_ppr_seeds_solved_total",
		"PPR basis vectors solved (Precompute, PrecomputePartial and SolveMissing).")
	mPoolWorkers = obsv.Default().Gauge("icrowd_ppr_pool_workers",
		"Solver-pool fan-out of the last basis precomputation.")
	mSolveLat = obsv.Default().Histogram("icrowd_ppr_solve_batch_seconds",
		"Wall time of whole basis solve batches.", nil)
	mUnconverged = obsv.Default().Counter("icrowd_ppr_unconverged_total",
		"PPR solves that exhausted MaxIter before draining the residual to Tol.")
)

// Result reports how a solve terminated. A false Converged means MaxIter
// was exhausted while residual mass above Tol was still undistributed: the
// returned vector is a truncation, not the fixed point, and the solver has
// incremented icrowd_ppr_unconverged_total. Residual is the L1 mass still
// in flight at exit (for the dense solver, the last iteration's L1 step
// size), Iters the number of iterations performed.
type Result struct {
	Converged bool
	Residual  float64
	Iters     int
}

// Options tunes the solvers.
type Options struct {
	// Alpha is the balance parameter of Eq. (2); must be > 0.
	Alpha float64
	// Tol is the L1 convergence tolerance of the iterative solvers.
	Tol float64
	// MaxIter caps the number of iterations.
	MaxIter int
	// DropTol truncates sparse-solver entries below this magnitude to keep
	// the basis vectors local; 0 keeps everything the iteration touched.
	DropTol float64
	// Workers bounds the seed-solve fan-out of Precompute and
	// PrecomputePartial: 0 uses GOMAXPROCS, 1 forces the sequential path.
	// Every seed is solved independently and merged at its own index, so the
	// result is bit-identical for any worker count.
	Workers int
}

// DefaultOptions returns the solver configuration used across experiments:
// the paper's default alpha = 1.0 (Appendix D.2) with tight tolerances.
func DefaultOptions() Options {
	return Options{Alpha: 1.0, Tol: 1e-9, MaxIter: 200, DropTol: 1e-7}
}

func (o Options) validate() error {
	if o.Alpha <= 0 {
		return errors.New("ppr: alpha must be positive")
	}
	if o.MaxIter < 1 {
		return errors.New("ppr: MaxIter must be >= 1")
	}
	if o.Tol < 0 || o.DropTol < 0 {
		return errors.New("ppr: negative tolerance")
	}
	if o.Workers < 0 {
		return errors.New("ppr: Workers must be >= 0")
	}
	return nil
}

// workerCount resolves Options.Workers against the job size.
func (o Options) workerCount(n int) int {
	w := o.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Row is one basis vector p_{t_i} in sparse form: the task indices it
// reaches in ascending order, with the aligned values. Rows handed out by a
// Basis are read-only views of its storage. The zero Row is an unsolved
// seed; a solved one always holds at least the seed's own entry.
type Row struct {
	Idx []int32
	Val []float64
}

// Len returns the number of stored entries.
func (r Row) Len() int { return len(r.Idx) }

// Basis holds the precomputed vectors p_{t_i} for every task (the offline
// phase of Algorithm 1), together with each solve's termination Result.
// It may be partial (empty rows for never-solved seeds) and grown
// incrementally with SolveMissing/Extend.
type Basis struct {
	opts Options
	rows []Row
	res  []Result

	// solver is the cached scratch for incremental SolveMissing calls, so
	// the steady-state delta path (one newly observed seed at a time)
	// allocates only its result row. Valid only for solverGraph.
	solver      *Solver
	solverGraph *simgraph.Graph
}

// Precompute solves the basis vector of every task across a bounded worker
// pool (offline step of Algorithm 1 / Algorithm 4 line 2-3). Options.Workers
// sizes the pool; the output is bit-identical for any pool size.
func Precompute(g *simgraph.Graph, o Options) (*Basis, error) {
	if err := o.validate(); err != nil {
		return nil, err
	}
	b := &Basis{opts: o, rows: make([]Row, g.N()), res: make([]Result, g.N())}
	seeds := make([]int, g.N())
	for i := range seeds {
		seeds[i] = i
	}
	if err := solveSeeds(g, o, seeds, b.rows, b.res, nil); err != nil {
		return nil, err
	}
	return b, nil
}

// PrecomputePartial computes basis vectors only for the given seed tasks
// (others stay unsolved). The Figure-10 scalability experiment uses it:
// online estimation and assignment only ever read the vectors of *observed*
// tasks, so precomputing all N vectors of a million-task graph is
// unnecessary. Like Precompute it fans out across Options.Workers solvers
// with deterministic merge order.
func PrecomputePartial(g *simgraph.Graph, o Options, seeds []int) (*Basis, error) {
	if err := o.validate(); err != nil {
		return nil, err
	}
	b := &Basis{opts: o, rows: make([]Row, g.N()), res: make([]Result, g.N())}
	// Deduplicate up front so no two pool workers ever write the same index.
	uniq := make([]int, 0, len(seeds))
	seen := make(map[int]bool, len(seeds))
	for _, s := range seeds {
		if s < 0 || s >= g.N() {
			return nil, errors.New("ppr: seed out of range")
		}
		if !seen[s] {
			seen[s] = true
			uniq = append(uniq, s)
		}
	}
	if err := solveSeeds(g, o, uniq, b.rows, b.res, nil); err != nil {
		return nil, err
	}
	return b, nil
}

// SolveMissing solves the basis vectors of the given seeds that do not have
// one yet — the delta path of incremental basis maintenance. Seeds already
// solved (and duplicates) are skipped, so callers can feed it every newly
// observed task without bookkeeping; it returns how many vectors were
// actually solved. The scratch solver is cached across calls, making the
// steady-state cost of one new seed its graph neighborhood plus its row
// (BenchmarkPrecomputeDelta pins it >= 10x cheaper than a full
// Precompute). Solved vectors are bit-identical to what Precompute would
// produce. Not safe for concurrent use with readers of the basis.
func (b *Basis) SolveMissing(g *simgraph.Graph, seeds []int) (int, error) {
	if g.N() != len(b.rows) {
		return 0, errors.New("ppr: graph does not match basis size")
	}
	uniq := make([]int, 0, len(seeds))
	for _, s := range seeds {
		if s < 0 || s >= len(b.rows) {
			return 0, errors.New("ppr: seed out of range")
		}
		if b.rows[s].Len() > 0 || slices.Contains(uniq, s) {
			continue
		}
		uniq = append(uniq, s)
	}
	if len(uniq) == 0 {
		return 0, nil
	}
	if b.solver == nil || b.solverGraph != g {
		b.solver = NewSolver(g)
		b.solverGraph = g
	}
	if err := solveSeeds(g, b.opts, uniq, b.rows, b.res, b.solver); err != nil {
		return 0, err
	}
	return len(uniq), nil
}

// Extend grows the basis to cover a graph that gained tasks (appended IDs:
// existing task IDs must be unchanged). New slots start unsolved — pair
// with SolveMissing to fill the ones that get observed. It returns the
// number of slots added; shrinking is an error.
func (b *Basis) Extend(g *simgraph.Graph) (int, error) {
	if g.N() < len(b.rows) {
		return 0, errors.New("ppr: graph smaller than basis")
	}
	added := g.N() - len(b.rows)
	b.rows = append(b.rows, make([]Row, added)...)
	b.res = append(b.res, make([]Result, added)...)
	return added, nil
}

// Invalidate drops task i's basis vector (after a graph change around i,
// re-Extend with the new graph and Invalidate the affected neighborhoods)
// so the next SolveMissing recomputes it.
func (b *Basis) Invalidate(i int) {
	b.rows[i] = Row{}
	b.res[i] = Result{}
}

// solveChunk is how many seeds a pool worker claims at a time: large enough
// to amortize the atomic fetch, small enough to keep the pool balanced.
const solveChunk = 16

// solveSeeds solves every seed in the list (assumed valid and distinct)
// with the push solver and stores rows[seed]/res[seed]. Empty batches
// return before touching any instrument, so no-op calls (all-duplicate
// PrecomputePartial input, SolveMissing with nothing missing) cannot
// pollute the batch-latency histogram. With one worker it runs inline on
// the shared scratch solver (allocated here when the caller has none);
// otherwise a bounded pool claims contiguous chunks off an atomic cursor,
// each pool worker reusing its own scratch across all its seeds. Each
// result lands at its own index and errors are reported for the lowest
// failing seed position, so the outcome is independent of goroutine
// scheduling — and the push solver's fixed accumulation order makes it
// bit-identical for any worker count.
func solveSeeds(g *simgraph.Graph, o Options, seeds []int, rows []Row, res []Result, shared *Solver) error {
	if len(seeds) == 0 {
		return nil
	}
	workers := o.workerCount(len(seeds))
	mPoolWorkers.Set(float64(workers))
	defer func(start time.Time) {
		mSolveLat.Observe(time.Since(start))
		mSeedsSolved.Add(int64(len(seeds)))
	}(time.Now())
	if workers == 1 {
		sv := shared
		if sv == nil {
			sv = NewSolver(g)
		}
		for _, s := range seeds {
			r, rr, err := sv.Solve(s, o)
			if err != nil {
				return err
			}
			rows[s] = r
			res[s] = rr
		}
		return nil
	}
	errs := make([]error, len(seeds))
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sv := NewSolver(g) // per-pool-worker scratch, reused across its chunks
			for {
				start := int(cursor.Add(solveChunk)) - solveChunk
				if start >= len(seeds) {
					return
				}
				end := start + solveChunk
				if end > len(seeds) {
					end = len(seeds)
				}
				for k := start; k < end; k++ {
					r, rr, err := sv.Solve(seeds[k], o)
					if err != nil {
						errs[k] = err
						continue
					}
					rows[seeds[k]] = r
					res[seeds[k]] = rr
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// N returns the number of tasks the basis covers.
func (b *Basis) N() int { return len(b.rows) }

// Options returns the solver options the basis was built with.
func (b *Basis) Options() Options { return b.opts }

// Vec returns the basis vector p_{t_i} as a sorted sparse row (the zero Row
// when seed i is unsolved). It aliases the basis: callers must not mutate
// it.
func (b *Basis) Vec(i int) Row { return b.rows[i] }

// Support returns the task IDs reachable (nonzero) from seed i's basis
// vector, ascending: Vec(i).Idx, with the same aliasing rule. Used by the
// qualification influence function (Section 5).
func (b *Basis) Support(i int) []int32 { return b.rows[i].Idx }

// SolveResult returns how task i's basis solve terminated. Never-solved
// seeds (empty Vec) report the zero Result, i.e. not converged.
func (b *Basis) SolveResult(i int) Result { return b.res[i] }

// Converged reports whether every *solved* basis vector reached Tol.
// Anything combined through an unconverged vector inherits its truncation
// error, so callers gating on basis quality should check this (the server's
// readiness probe does).
func (b *Basis) Converged() bool {
	for i, r := range b.rows {
		if r.Len() > 0 && !b.res[i].Converged {
			return false
		}
	}
	return true
}

// Unconverged returns the IDs of solved-but-unconverged basis vectors, in
// ascending order.
func (b *Basis) Unconverged() []int {
	var out []int
	for i, r := range b.rows {
		if r.Len() > 0 && !b.res[i].Converged {
			out = append(out, i)
		}
	}
	return out
}

// Missing returns the IDs with no solved basis vector, in ascending order —
// the complement SolveMissing would fill.
func (b *Basis) Missing() []int {
	var out []int
	for i, r := range b.rows {
		if r.Len() == 0 {
			out = append(out, i)
		}
	}
	return out
}
