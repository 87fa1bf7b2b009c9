package ilp

import (
	"context"
	"fmt"
	"math"
)

// MaxNodes bounds the branch-and-bound search; path-analysis problems solve
// at the root, so hitting this indicates a malformed problem.
const MaxNodes = 200000

// Solve optimizes the problem. For Integer problems it runs branch and
// bound over LP relaxations; otherwise it is a single simplex solve.
func Solve(p *Problem) (*Solution, error) {
	return SolveCtx(context.Background(), p)
}

// SolveOptions tunes SolveCtxOpts beyond the plain Solve behavior.
type SolveOptions struct {
	// Cutoff, together with UseCutoff, gives the solver an incumbent bound
	// from a sibling problem: once a relaxation proves the optimum is
	// strictly worse than Cutoff (below it for Maximize, above it for
	// Minimize), the solve stops with Status Dominated instead of
	// computing the exact value. Branch-and-bound additionally prunes
	// every node whose LP bound is worse than Cutoff.
	Cutoff    float64
	UseCutoff bool
	// WantCert asks the solve to attach the root relaxation's optimal-basis
	// certificate to the Solution (Solution.Cert) when the root already
	// answers the problem, so a certifying caller can re-verify the result
	// in exact arithmetic.
	WantCert bool
}

// SolveCtx is Solve with cancellation: the context is checked before the
// root relaxation and between branch-and-bound nodes, so a concurrent
// caller (the parallel constraint-set fan-out of package ipet) can abandon
// in-flight solves once a sibling job has failed. Returns ctx.Err() when
// cancelled.
func SolveCtx(ctx context.Context, p *Problem) (*Solution, error) {
	return SolveCtxOpts(ctx, p, SolveOptions{})
}

// SolveCtxOpts is SolveCtx with incumbent-cutoff support (SolveOptions).
func SolveCtxOpts(ctx context.Context, p *Problem, opts SolveOptions) (*Solution, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sol := &Solution{}
	worseThanCutoff := func(v float64) bool {
		if !opts.UseCutoff {
			return false
		}
		if p.Sense == Maximize {
			return v < opts.Cutoff-eps
		}
		return v > opts.Cutoff+eps
	}

	addKernelStats := func(r *lpResult) {
		sol.Stats.LPSolves++
		sol.Stats.Pivots += r.pivots
		sol.Stats.SuspectPivots += r.suspect
		sol.Stats.RevisedPivots += r.revisedPivots
		sol.Stats.Refactorizations += r.refactors
	}

	root := simplexFull(p, opts.WantCert)
	status, obj, x := root.status, root.obj, root.x
	addKernelStats(&root)
	if status != Optimal {
		sol.Status = status
		return sol, nil
	}
	if worseThanCutoff(obj) {
		// The relaxation bounds the integer optimum, so the whole problem
		// is strictly worse than the caller's incumbent.
		sol.Status = Dominated
		return sol, nil
	}
	if !p.Integer || isIntegral(x) {
		sol.Stats.RootIntegral = isIntegral(x)
		sol.Status = Optimal
		sol.Objective = obj
		sol.Values = roundIfIntegral(x, p.Integer)
		sol.Cert = root.cert
		return sol, nil
	}

	// Branch and bound, depth-first with best-bound pruning.
	type node struct {
		extra []Constraint
		bound float64
	}
	better := func(a, b float64) bool {
		if p.Sense == Maximize {
			return a > b+eps
		}
		return a < b-eps
	}

	var best *Solution
	prunedByCutoff := false
	stack := []node{{bound: obj}}
	nodes := 0
	for len(stack) > 0 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		nd := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if best != nil && !better(nd.bound, best.Objective) {
			continue
		}
		if worseThanCutoff(nd.bound) {
			prunedByCutoff = true
			continue
		}
		nodes++
		if nodes > MaxNodes {
			return nil, fmt.Errorf("ilp: branch-and-bound node limit exceeded (%d)", MaxNodes)
		}
		sub := &Problem{
			Sense:       p.Sense,
			NumVars:     p.NumVars,
			Objective:   p.Objective,
			Prefix:      p.Prefix,
			Constraints: append(append([]Constraint{}, p.Constraints...), nd.extra...),
		}
		sub2 := simplexFull(sub, false)
		status, obj, x := sub2.status, sub2.obj, sub2.x
		addKernelStats(&sub2)
		if nodes > 1 || len(nd.extra) > 0 {
			sol.Stats.Branches++
		}
		if status == Unbounded {
			// An unbounded subproblem means the original is unbounded in
			// the integer sense too (rational polyhedra).
			sol.Status = Unbounded
			return sol, nil
		}
		if status != Optimal {
			continue
		}
		if worseThanCutoff(obj) {
			prunedByCutoff = true
			continue
		}
		if best != nil && !better(obj, best.Objective) {
			continue
		}
		if bi := mostFractional(x); bi < 0 {
			cand := &Solution{Status: Optimal, Objective: obj, Values: roundIfIntegral(x, true)}
			if best == nil || better(obj, best.Objective) {
				best = cand
			}
			continue
		} else {
			floor := math.Floor(x[bi])
			left := append(append([]Constraint{}, nd.extra...),
				Constraint{Coeffs: map[int]float64{bi: 1}, Rel: LE, RHS: floor})
			right := append(append([]Constraint{}, nd.extra...),
				Constraint{Coeffs: map[int]float64{bi: 1}, Rel: GE, RHS: floor + 1})
			stack = append(stack, node{extra: left, bound: obj}, node{extra: right, bound: obj})
		}
	}
	if best == nil {
		if prunedByCutoff {
			sol.Status = Dominated
		} else {
			sol.Status = Infeasible
		}
		return sol, nil
	}
	sol.Status = Optimal
	sol.Objective = best.Objective
	sol.Values = best.Values
	return sol, nil
}

func isIntegral(x []float64) bool {
	for _, v := range x {
		if math.Abs(v-math.Round(v)) > intTol {
			return false
		}
	}
	return true
}

// mostFractional returns the index of the variable farthest from an
// integer, or -1 when all are integral.
func mostFractional(x []float64) int {
	best := -1
	bestFrac := intTol
	for i, v := range x {
		f := math.Abs(v - math.Round(v))
		if f > bestFrac {
			bestFrac = f
			best = i
		}
	}
	return best
}

func roundIfIntegral(x []float64, round bool) []float64 {
	out := make([]float64, len(x))
	copy(out, x)
	if round {
		for i, v := range out {
			out[i] = math.Round(v)
		}
	}
	return out
}
