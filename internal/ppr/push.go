package ppr

import (
	"errors"
	"slices"

	"icrowd/internal/simgraph"
)

// Solver is a reusable push-style sparse PPR solver over a CSR snapshot of
// the similarity graph. It computes the basis vector p_{t_seed}, the fixed
// point of Eq. (4) for q = e_seed, by expanding the truncated Neumann
// series restart * sum_k (c S')^k e_seed with per-iteration DropTol
// truncation, so the cost is proportional to the seed's graph neighborhood
// rather than to N. The estimate and the two frontier generations live in
// dense scratch arrays with a visited-stack reset, so a solve allocates
// nothing beyond its result row. Frontier nodes are pushed in ascending ID
// order, fixing the floating-point accumulation order: results are
// bit-exact against the map-based reference solver kept in the tests
// (TestPushMatchesSparseFuzz) and therefore bit-identical across runs and
// worker counts.
//
// A Solver is not safe for concurrent use; the precompute pool gives each
// worker its own.
type Solver struct {
	csr simgraph.CSR

	est []float64 // dense estimate p, nonzero only at estIDs
	cur []float64 // current frontier (residual) values, zeroed as consumed
	nxt []float64 // next frontier values, nonzero only at nxtIDs mid-iteration

	estIDs []int  // visited stack: indices with est mass
	curIDs []int  // sorted indices with cur mass
	nxtIDs []int  // indices touched by the current push pass
	inEst  []bool // membership marker for estIDs
	inNxt  []bool // membership marker for nxtIDs
}

// NewSolver builds a solver over g's CSR snapshot. The dense scratch costs
// O(N) memory once and is reused across every subsequent Solve.
func NewSolver(g *simgraph.Graph) *Solver {
	n := g.N()
	return &Solver{
		csr:   g.CSR(),
		est:   make([]float64, n),
		cur:   make([]float64, n),
		nxt:   make([]float64, n),
		inEst: make([]bool, n),
		inNxt: make([]bool, n),
	}
}

// Solve computes the basis vector p_{t_seed}, returning it as a sorted
// sparse row together with how the solve terminated. Callers that need the
// true fixed point must check Result.Converged: with MaxIter exhausted the
// row is only the best iterate reached. The only allocations on the steady
// path are the row's two slices.
func (s *Solver) Solve(seed int, o Options) (Row, Result, error) {
	if err := o.validate(); err != nil {
		return Row{}, Result{}, err
	}
	if seed < 0 || seed >= s.csr.N {
		return Row{}, Result{}, errors.New("ppr: seed out of range")
	}
	c := 1 / (1 + o.Alpha)
	restart := o.Alpha / (1 + o.Alpha)

	s.est[seed] = restart
	s.inEst[seed] = true
	s.estIDs = append(s.estIDs[:0], seed)
	s.cur[seed] = restart
	s.curIDs = append(s.curIDs[:0], seed)

	res := Result{Residual: restart}
	for res.Iters < o.MaxIter && len(s.curIDs) > 0 {
		res.Iters++
		// Push pass: distribute every frontier node's mass to its CSR row,
		// ascending i then ascending j.
		s.nxtIDs = s.nxtIDs[:0]
		for _, i := range s.curIDs {
			x := s.cur[i]
			s.cur[i] = 0
			for k := s.csr.RowPtr[i]; k < s.csr.RowPtr[i+1]; k++ {
				j := int(s.csr.Cols[k])
				if !s.inNxt[j] {
					s.inNxt[j] = true
					s.nxtIDs = append(s.nxtIDs, j)
				}
				s.nxt[j] += c * s.csr.Norm[k] * x
			}
		}
		slices.Sort(s.nxtIDs)
		// Absorb pass in ascending j: drop sub-DropTol entries (their
		// residual mass is what Result.Residual accounts for on an
		// unconverged exit), fold the rest into the estimate, and keep them
		// as the next frontier.
		var mass float64
		kept := s.nxtIDs[:0]
		for _, j := range s.nxtIDs {
			s.inNxt[j] = false
			x := s.nxt[j]
			if x < o.DropTol && -x < o.DropTol {
				s.nxt[j] = 0
				continue
			}
			if !s.inEst[j] {
				s.inEst[j] = true
				s.estIDs = append(s.estIDs, j)
			}
			s.est[j] += x
			if x < 0 {
				mass -= x
			} else {
				mass += x
			}
			kept = append(kept, j)
		}
		res.Residual = mass
		if mass <= o.Tol {
			res.Converged = true
			for _, j := range kept {
				s.nxt[j] = 0
			}
			s.curIDs = s.curIDs[:0]
			break
		}
		// Advance a generation: cur (fully zeroed above) becomes the blank
		// next-pass scratch, kept becomes the frontier.
		s.cur, s.nxt = s.nxt, s.cur
		s.curIDs, s.nxtIDs = kept, s.curIDs
	}
	if !res.Converged {
		// MaxIter exhausted with frontier mass undistributed: reset the
		// leftover residuals so the scratch stays clean for the next seed.
		for _, i := range s.curIDs {
			s.cur[i] = 0
		}
		s.curIDs = s.curIDs[:0]
		mUnconverged.Inc()
	}
	// Emit the row straight from the visited stack, sorted, resetting the
	// scratch it names as it goes.
	slices.Sort(s.estIDs)
	out := Row{Idx: make([]int32, len(s.estIDs)), Val: make([]float64, len(s.estIDs))}
	for k, j := range s.estIDs {
		out.Idx[k] = int32(j)
		out.Val[k] = s.est[j]
		s.est[j] = 0
		s.inEst[j] = false
	}
	s.estIDs = s.estIDs[:0]
	return out, res, nil
}
