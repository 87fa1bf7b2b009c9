package ilp

import "fmt"

// This file holds the pieces of ipet's parametric WCET formulas and the
// seed solve behind them. A Problem whose right-hand sides are affine in an
// integer parameter vector θ is concretized at one seed point θ0
// (Concretize) and solved there on the full-tableau kernel (SolveSeed); the
// exact layer (certify.DerivePiece) turns the basis the solve ended on into
// a *piece* — a polyhedral region of parameter space together with the
// affine optimum value the basis yields there, or, for an infeasible seed,
// a region its phase-1 duals prove infeasible. No float64 number of the
// solve reaches a piece: the certificate contributes only basis column
// indices, and everything else is rebuilt and derived in exact arithmetic.

// ParamAffine is an integer affine form C0 + Σ Coef[k]·θ_k over the
// parameter vector θ.
type ParamAffine struct {
	C0   int64
	Coef []int64
}

// At evaluates the form at θ. len(theta) must be len(Coef).
func (a ParamAffine) At(theta []int64) int64 {
	v := a.C0
	for k, c := range a.Coef {
		v += c * theta[k]
	}
	return v
}

func (a ParamAffine) String() string {
	s := fmt.Sprintf("%d", a.C0)
	for k, c := range a.Coef {
		if c == 0 {
			continue
		}
		if c >= 0 {
			s += fmt.Sprintf(" + %d·θ%d", c, k+1)
		} else {
			s += fmt.Sprintf(" - %d·θ%d", -c, k+1)
		}
	}
	return s
}

// ParamPiece is one piece of a parametric LP solution: for every integer θ
// with g(θ) >= 0 for all g in Region, the problem's LP relaxation is either
// infeasible (Feasible == false) or has optimum Value.At(θ), attained at an
// all-integer vertex.
type ParamPiece struct {
	// Feasible distinguishes an optimal-basis piece from an
	// infeasibility-certificate piece.
	Feasible bool
	// Value is the optimum as an affine form of θ (Feasible pieces only).
	Value ParamAffine
	// Region is the piece's validity region: the conjunction of
	// g(θ) >= 0 over all entries.
	Region []ParamAffine
}

// Covers reports whether θ lies in the piece's region.
func (pc *ParamPiece) Covers(theta []int64) bool {
	for _, g := range pc.Region {
		if g.At(theta) < 0 {
			return false
		}
	}
	return true
}

// Concretize returns p with its right-hand sides evaluated at the integer
// point theta: constraint i's RHS becomes p.Constraints[i].RHS plus
// Σ rhsCoef[i][k]·theta[k], a nil rhsCoef[i] leaving the row as it is. The
// rows share p's coefficient maps.
func Concretize(p *Problem, rhsCoef [][]int64, theta []int64) *Problem {
	q := *p
	q.Constraints = make([]Constraint, len(p.Constraints))
	for i, c := range p.Constraints {
		for k, coef := range rhsCoef[i] {
			c.RHS += float64(coef) * float64(theta[k])
		}
		q.Constraints[i] = c
	}
	return &q
}

// SolveSeed solves the LP relaxation of p (p.Integer is ignored) on the
// full-tableau kernel and returns the status, the pivot count and a
// certificate of either outcome: the optimal basis, or, when phase 1 ends
// with artificial mass left, its final basis marked Phase1, whose phase-1
// duals are a candidate infeasibility proof. The certificate is nil only
// when p has no rows or the solve ended Unbounded.
//
// The kernel is fixed rather than routed: a parametric piece is the region
// where the seed's final basis stays optimal, so the basis a solve ends on
// shapes the formula, and the formula must not depend on the router.
func SolveSeed(p *Problem) (Status, int, *Certificate, error) {
	if err := p.Validate(); err != nil {
		return Infeasible, 0, nil, err
	}
	s := scratchPool.Get().(*scratch)
	defer scratchPool.Put(s)
	status, _, _, pivots := sparseSimplexOn(p, s)
	var cert *Certificate
	if status != Unbounded && s.m > 0 {
		cert = &Certificate{Basis: append([]int(nil), s.basis[:s.m]...), Phase1: status == Infeasible}
	}
	return status, pivots, cert, nil
}
