package ilp

import "math"

// feasible reports whether x satisfies every row of p within tol.
func (p *Problem) feasible(x []float64, tol float64) bool {
	if len(x) != p.NumVars {
		return false
	}
	for _, v := range x {
		if v < -tol {
			return false
		}
	}
	holds := func(lhs float64, rel Relation, rhs float64) bool {
		switch rel {
		case LE:
			return lhs <= rhs+tol
		case GE:
			return lhs >= rhs-tol
		default:
			return math.Abs(lhs-rhs) <= tol
		}
	}
	for _, r := range p.Prefix {
		lhs := 0.0
		for k, col := range r.Cols {
			lhs += r.Vals[k] * x[col]
		}
		if !holds(lhs, r.Rel, r.RHS) {
			return false
		}
	}
	for _, c := range p.Constraints {
		lhs := 0.0
		for i, coef := range c.Coeffs {
			lhs += coef * x[i]
		}
		if !holds(lhs, c.Rel, c.RHS) {
			return false
		}
	}
	return true
}

// evalObjective computes the objective value at x.
func (p *Problem) evalObjective(x []float64) float64 {
	v := 0.0
	for i, coef := range p.Objective {
		v += coef * x[i]
	}
	return v
}

// solveSet lowers every row of set for this one solve and runs SolveRows.
func (w *WarmStart) solveSet(set []Constraint, opts SetSolveOptions) SetSolution {
	rows := make([]*WarmRow, len(set))
	for i := range set {
		rows[i] = w.LowerRow(&set[i])
	}
	return w.SolveRows(rows, opts)
}
