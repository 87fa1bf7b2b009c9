package certify

import (
	"fmt"

	"cinderella/internal/ilp"
)

// verifyFlow checks a network-kernel certificate (ilp.Certificate.Flow) in
// exact rational arithmetic. The flow kernel works on a transformed
// min-cost-flow network, but its certificate is expressed against the
// original rows exactly as stored — a primal assignment X over the real
// variables and one dual multiplier per row (Prefix first, then
// Constraints), in the solver's internal maximization sense. That makes
// the check pure LP duality, with no reference to the network transform:
//
//   - X >= 0 and X satisfies every original row (primal feasibility);
//   - each Y_i has the sign its row's relation admits for a maximization
//     dual — y >= 0 for <=, y <= 0 for >=, free for = — so yᵀ·(Ax) is
//     bounded by yᵀ·b at any feasible point;
//   - Aᵀ·Y >= c componentwise over the real columns (dual feasibility
//     against the internal-sense objective), so yᵀb bounds cᵀx from above
//     for every feasible x;
//   - Yᵀ·b == cᵀ·X (strong duality), pinning X as optimal, not merely
//     feasible;
//   - for an Integer problem, X is integral, lifting the LP proof to the
//     ILP.
func verifyFlow(p *ilp.Problem, cert *ilp.Certificate) (*Result, error) {
	n := p.NumVars
	m := len(p.Prefix) + len(p.Constraints)
	if m == 0 {
		return nil, fmt.Errorf("certify: problem has no rows; nothing for a flow certificate to prove")
	}
	if len(cert.X) != n {
		return nil, fmt.Errorf("certify: flow certificate has %d primal values, problem has %d variables", len(cert.X), n)
	}
	if len(cert.Y) != m {
		return nil, fmt.Errorf("certify: flow certificate has %d duals, problem has %d rows", len(cert.Y), m)
	}

	x := make([]num, n)
	for j, v := range cert.X {
		x[j] = numFloat(v)
	}
	if err := checkOriginalRows(p, x); err != nil {
		return nil, err
	}
	if p.Integer {
		if err := checkIntegral(x); err != nil {
			return nil, err
		}
	}

	// Row views as stored: relation, rhs, and coefficient walk.
	y := make([]num, m)
	for i, v := range cert.Y {
		y[i] = numFloat(v)
	}
	rel := func(i int) ilp.Relation {
		if i < len(p.Prefix) {
			return p.Prefix[i].Rel
		}
		return p.Constraints[i-len(p.Prefix)].Rel
	}
	rhs := func(i int) num {
		if i < len(p.Prefix) {
			return numFloat(p.Prefix[i].RHS)
		}
		return numFloat(p.Constraints[i-len(p.Prefix)].RHS)
	}
	for i := 0; i < m; i++ {
		switch rel(i) {
		case ilp.LE:
			if y[i].sign() < 0 {
				return nil, fmt.Errorf("certify: dual y%d = %s is negative on a <= row", i, y[i])
			}
		case ilp.GE:
			if y[i].sign() > 0 {
				return nil, fmt.Errorf("certify: dual y%d = %s is positive on a >= row", i, y[i])
			}
		}
	}

	// Dual feasibility: (Aᵀ·Y)_j >= c_j for every real column, in the
	// internal maximization sense.
	cInt := internalObj(p, n)
	yA := make([]num, n)
	for i := range p.Prefix {
		if y[i].isZero() {
			continue
		}
		r := &p.Prefix[i]
		for k, col := range r.Cols {
			yA[col] = add(yA[col], mul(y[i], numFloat(r.Vals[k])))
		}
	}
	for ci := range p.Constraints {
		yi := y[len(p.Prefix)+ci]
		if yi.isZero() {
			continue
		}
		for j, v := range p.Constraints[ci].Coeffs {
			yA[j] = add(yA[j], mul(yi, numFloat(v)))
		}
	}
	for j := 0; j < n; j++ {
		if cmp(yA[j], cInt[j]) < 0 {
			return nil, fmt.Errorf("certify: flow dual is infeasible at column %d (yᵀA = %s < c = %s)", j, yA[j], cInt[j])
		}
	}

	// Strong duality: Yᵀ·b == cᵀ·X.
	var dual, primal num
	for i := 0; i < m; i++ {
		if !y[i].isZero() {
			dual = add(dual, mul(y[i], rhs(i)))
		}
	}
	for j := 0; j < n; j++ {
		if !cInt[j].isZero() {
			primal = add(primal, mul(cInt[j], x[j]))
		}
	}
	if cmp(primal, dual) != 0 {
		return nil, fmt.Errorf("certify: flow duality gap (primal %s, dual %s)", primal, dual)
	}
	return result(p, x), nil
}
