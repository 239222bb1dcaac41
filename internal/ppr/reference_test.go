package ppr

import (
	"errors"
	"sort"

	"icrowd/internal/simgraph"
)

// Reference solvers and combinations the production code is verified
// against. None of them has a production caller: the push solver builds
// every basis row, and the estimator applies Lemma 3 incrementally.

// DenseSolve iterates Eq. (4) for an arbitrary observed vector q (length
// g.N()) and returns the estimated accuracy vector p together with how the
// iteration terminated. Callers that need the true fixed point must check
// Result.Converged: with MaxIter exhausted the vector is only the best
// iterate reached.
func DenseSolve(g *simgraph.Graph, q []float64, o Options) ([]float64, Result, error) {
	if err := o.validate(); err != nil {
		return nil, Result{}, err
	}
	if len(q) != g.N() {
		return nil, Result{}, errors.New("ppr: q length mismatch")
	}
	c := 1 / (1 + o.Alpha)
	restart := o.Alpha / (1 + o.Alpha)
	p := make([]float64, g.N())
	copy(p, q) // paper: "we set vector p as the observed one q initially"
	next := make([]float64, g.N())
	var res Result
	for res.Iters < o.MaxIter {
		res.Iters++
		var delta float64
		for i := 0; i < g.N(); i++ {
			var acc float64
			g.Neighbors(i, func(j int, _, norm float64) {
				acc += norm * p[j]
			})
			v := c*acc + restart*q[i]
			d := v - p[i]
			if d < 0 {
				d = -d
			}
			delta += d
			next[i] = v
		}
		p, next = next, p
		res.Residual = delta
		if delta <= o.Tol {
			res.Converged = true
			break
		}
	}
	if !res.Converged {
		mUnconverged.Inc()
	}
	return p, res, nil
}

// SparseSolve computes the basis vector p_{t_seed}: the fixed point of
// Eq. (4) when q = e_seed. It expands the truncated Neumann series
// restart * sum_k (c S')^k e_seed with a sparse frontier, so the cost is
// proportional to the seed's graph neighborhood rather than to N.
//
// Frontier nodes are expanded in ascending ID order, fixing the
// floating-point accumulation order: the result is bit-identical across
// runs. SparseSolve is the map-based reference the allocation-lean push
// solver (Solver.Solve) is pinned bit-exact against.
func SparseSolve(g *simgraph.Graph, seed int, o Options) (map[int]float64, Result, error) {
	if err := o.validate(); err != nil {
		return nil, Result{}, err
	}
	if seed < 0 || seed >= g.N() {
		return nil, Result{}, errors.New("ppr: seed out of range")
	}
	c := 1 / (1 + o.Alpha)
	restart := o.Alpha / (1 + o.Alpha)

	p := map[int]float64{seed: restart}
	frontier := map[int]float64{seed: restart}
	var order []int
	res := Result{Residual: restart}
	for res.Iters < o.MaxIter && len(frontier) > 0 {
		res.Iters++
		next := make(map[int]float64, len(frontier)*2)
		order = order[:0]
		for i := range frontier {
			order = append(order, i)
		}
		sort.Ints(order)
		for _, i := range order {
			x := frontier[i]
			g.Neighbors(i, func(j int, _, norm float64) {
				next[j] += c * norm * x
			})
		}
		order = order[:0]
		for j := range next {
			order = append(order, j)
		}
		sort.Ints(order)
		var mass float64
		for _, j := range order {
			x := next[j]
			if x < o.DropTol && -x < o.DropTol {
				delete(next, j)
				continue
			}
			p[j] += x
			if x < 0 {
				mass -= x
			} else {
				mass += x
			}
		}
		res.Residual = mass
		if mass <= o.Tol {
			res.Converged = true
			break
		}
		frontier = next
	}
	if !res.Converged {
		mUnconverged.Inc()
	}
	return p, res, nil
}

// NNZ returns the number of stored nonzeros across all basis vectors.
func (b *Basis) NNZ() int {
	var n int
	for _, r := range b.rows {
		n += r.Len()
	}
	return n
}

// Combine applies Lemma 3: given sparse observed accuracies q (task -> q_i),
// it returns p* = sum_i q_i * p_{t_i} as a sparse map.
func (b *Basis) Combine(q map[int]float64) map[int]float64 {
	out := make(map[int]float64, 4*len(q))
	b.CombineInto(q, out)
	return out
}

// CombineInto is Combine writing into a caller-provided map (cleared first).
func (b *Basis) CombineInto(q map[int]float64, out map[int]float64) {
	clear(out)
	for i, qi := range q {
		if qi == 0 {
			continue
		}
		r := b.rows[i]
		for k, j := range r.Idx {
			out[int(j)] += qi * r.Val[k]
		}
	}
}

// rowMap returns r as a task -> value map, nil for the zero Row.
func rowMap(r Row) map[int]float64 {
	if r.Len() == 0 {
		return nil
	}
	m := make(map[int]float64, r.Len())
	for k, j := range r.Idx {
		m[int(j)] = r.Val[k]
	}
	return m
}
