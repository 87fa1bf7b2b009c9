package certify

import (
	"fmt"

	"cinderella/internal/ilp"
)

// DerivePiece derives the parametric piece that cert proves for p, whose
// constraint i has the right-hand side p.Constraints[i].RHS plus
// Σ rhsCoef[i][k]·θ_k (a nil rhsCoef[i] means a non-parametric row). cert
// is the certificate of the seed solve at the integer point theta
// (ilp.SolveSeed on ilp.Concretize(p, rhsCoef, theta)); it contributes only
// its basis columns. The standard form is rebuilt from p concretized at the
// seed, so every row is sign-normalized as the solve normalized it, and
// everything below is exact.
//
// An optimal basis B yields a feasible piece. At the seed it must pass the
// checks Verify makes: B is nonsingular, B⁻¹b(θ0) >= 0, no admissible
// nonbasic column has a positive reduced cost, and the basic point
// satisfies every row of p. Reduced costs do not depend on θ, so B stays
// optimal exactly where it stays primal feasible. One elimination of B
// solves B·C = [b0 | b1 … bK] for the constant part and the K parametric
// parts of the right-hand side, giving the basic values
// x_B(θ) = C·(1, θ). C and the optimum c_B·C must be integers: the piece's
// vertex is then integral at every integer θ, so the LP optimum answers the
// integer problem. The region is x_B(θ) >= 0 over the rows of C that vary
// with θ, plus x_B(θ) <= 0 for a basic artificial, which must stay at zero.
//
// A basis marked Phase1 yields an infeasibility piece: its phase-1 duals
// y = B⁻ᵀc1_B (c1 is -1 on artificial columns, 0 elsewhere) must satisfy
// yᵀA_j >= 0 on every non-artificial column, so yᵀb(θ) < 0 proves p
// infeasible at θ (Farkas). Scaled by the lcm of its denominators, y is
// integral, and with integral right-hand sides the region is
// yᵀb(θ) <= -1.
//
// Either piece must cover its seed. An error says why cert proves no piece.
func DerivePiece(p *ilp.Problem, rhsCoef [][]int64, theta []int64, cert *ilp.Certificate) (*ilp.ParamPiece, error) {
	switch {
	case cert == nil:
		return nil, fmt.Errorf("certify: no certificate")
	case cert.Warm:
		return nil, fmt.Errorf("certify: a piece needs a cold basis")
	case len(p.Prefix) != 0:
		return nil, fmt.Errorf("certify: a parametric problem has no packed rows")
	case len(rhsCoef) != len(p.Constraints):
		return nil, fmt.Errorf("certify: %d right-hand-side vectors for %d constraints", len(rhsCoef), len(p.Constraints))
	}
	for i, coef := range rhsCoef {
		if coef != nil && len(coef) != len(theta) {
			return nil, fmt.Errorf("certify: constraint %d has %d parameter coefficients, the seed %d", i, len(coef), len(theta))
		}
	}
	conc := ilp.Concretize(p, rhsCoef, theta)
	if err := conc.Validate(); err != nil {
		return nil, err
	}
	sf := coldForm(conc)
	pos, err := basisPositions(sf, cert.Basis)
	if err != nil {
		return nil, err
	}

	// rhs[0] is the constant part of the right-hand side, rhs[k] the
	// coefficient of θ_k, each negated where the row was normalized.
	rhs := make([][]num, len(theta)+1)
	for k := range rhs {
		rhs[k] = make([]num, sf.m)
	}
	for i := range p.Constraints {
		c := &conc.Constraints[i]
		_, neg := normRel(c.Rel, c.RHS)
		rhs[0][i] = numFloat(p.Constraints[i].RHS)
		for k, coef := range rhsCoef[i] {
			rhs[k+1][i] = numInt(coef)
		}
		if neg {
			for k := range rhs {
				rhs[k][i] = rhs[k][i].neg()
			}
		}
	}

	var pc *ilp.ParamPiece
	if cert.Phase1 {
		pc, err = infeasiblePiece(sf, cert.Basis, pos, rhs)
	} else {
		pc, err = optimalPiece(conc, sf, cert.Basis, pos, rhs, theta)
	}
	if err != nil {
		return nil, err
	}
	if !pc.Covers(theta) {
		return nil, fmt.Errorf("certify: the piece does not cover its seed")
	}
	return pc, nil
}

// optimalPiece derives the feasible piece of an optimal basis (see
// DerivePiece); conc is the problem at the seed theta.
func optimalPiece(conc *ilp.Problem, sf *stdForm, basis, pos []int, rhs [][]num, theta []int64) (*ilp.ParamPiece, error) {
	B, Bt := basisMatrices(sf, pos)
	C, ok := solveSparse(B, rhs...)
	if !ok {
		return nil, fmt.Errorf("certify: basis matrix is singular")
	}
	x := make([]num, sf.n)
	for i, j := range basis {
		v := C[0][i]
		for k, t := range theta {
			v = add(v, mul(C[k+1][i], numInt(t)))
		}
		if v.sign() < 0 {
			return nil, fmt.Errorf("certify: basic variable for column %d is negative (%s) at the seed", j, v)
		}
		if j < sf.n {
			x[j] = v
		}
	}
	if err := checkDual(sf, basis, pos, Bt, internalObj(conc, sf.n)); err != nil {
		return nil, err
	}
	if err := checkOriginalRows(conc, x); err != nil {
		return nil, err
	}

	// The basic values and the optimum as integer affine forms of θ; the
	// basic values that vary with θ bound the region.
	pc := &ilp.ParamPiece{Feasible: true}
	value := make([]num, len(rhs))
	row := make([]num, len(rhs))
	for i, j := range basis {
		for k := range C {
			row[k] = C[k][i]
		}
		aff, err := affineOf(row, ilp.MaxExactCoeff)
		if err != nil {
			return nil, fmt.Errorf("certify: basic variable for column %d: %v", j, err)
		}
		if !constant(aff) { // a constant is nonnegative at the seed, so everywhere
			pc.Region = append(pc.Region, aff)
			if sf.isArt[j] {
				neg := ilp.ParamAffine{C0: -aff.C0, Coef: make([]int64, len(aff.Coef))}
				for k, c := range aff.Coef {
					neg.Coef[k] = -c
				}
				pc.Region = append(pc.Region, neg)
			}
		}
		if cj := conc.Objective[j]; j < sf.n && cj != 0 {
			for k := range value {
				value[k] = add(value[k], mul(numFloat(cj), C[k][i]))
			}
		}
	}
	var err error
	if pc.Value, err = affineOf(value, 0); err != nil {
		return nil, fmt.Errorf("certify: optimum: %v", err)
	}
	return pc, nil
}

// infeasiblePiece derives the infeasibility piece of a phase-1 basis (see
// DerivePiece).
func infeasiblePiece(sf *stdForm, basis, pos []int, rhs [][]num) (*ilp.ParamPiece, error) {
	_, Bt := basisMatrices(sf, pos)
	c1B := make([]num, sf.m)
	for r, j := range basis {
		if sf.isArt[j] {
			c1B[r] = numInt(-1)
		}
	}
	z, ok := solveSparse(Bt, c1B)
	if !ok {
		return nil, fmt.Errorf("certify: basis matrix is singular (dual)")
	}
	y := z[0]
	yA := priceColumns(sf, y)
	for j, v := range yA {
		if !sf.isArt[j] && v.sign() < 0 {
			return nil, fmt.Errorf("certify: phase-1 duals price column %d at %s < 0; no Farkas certificate", j, v)
		}
	}

	// A Farkas certificate is a ray: scale y by the lcm of its denominators
	// to make it integral.
	scale := int64(1)
	for _, v := range y {
		if v.r != nil {
			return nil, fmt.Errorf("certify: phase-1 dual %s is out of range", v)
		}
		l, ok := mul64(scale/gcd(scale, v.den()), v.den())
		if !ok {
			return nil, fmt.Errorf("certify: phase-1 duals' common denominator overflows")
		}
		scale = l
	}
	beta := make([]num, len(rhs)) // yᵀb split like rhs, negated
	for r, v := range y {
		if v.isZero() {
			continue
		}
		yr := mul(v, numInt(scale))
		if yi, ok := intOf(yr); !ok || abs64(yi) >= ilp.MaxExactCoeff {
			return nil, fmt.Errorf("certify: scaled phase-1 dual %s is out of range", yr)
		}
		for k := range beta {
			beta[k] = sub(beta[k], mul(yr, rhs[k][r]))
		}
	}
	// -yᵀb(θ) - 1 >= 0.
	beta[0] = sub(beta[0], numInt(1))
	g, err := affineOf(beta, 0)
	if err != nil {
		return nil, fmt.Errorf("certify: Farkas region: %v", err)
	}
	return &ilp.ParamPiece{Region: []ilp.ParamAffine{g}}, nil
}

// affineOf reads a as the integer affine form a[0] + Σ_k a[k+1]·θ_k. Every
// entry must be an integer; with limit > 0 its magnitude must also stay
// below limit.
func affineOf(a []num, limit int64) (ilp.ParamAffine, error) {
	aff := ilp.ParamAffine{Coef: make([]int64, len(a)-1)}
	for k, e := range a {
		v, ok := intOf(e)
		if !ok || (limit > 0 && abs64(v) >= limit) {
			return ilp.ParamAffine{}, fmt.Errorf("%s is not an integer in range", e)
		}
		if k == 0 {
			aff.C0 = v
		} else {
			aff.Coef[k-1] = v
		}
	}
	return aff, nil
}

// intOf returns v as an int64 when it is an integer that fits one.
func intOf(v num) (int64, bool) {
	if v.r != nil || v.d != 0 {
		return 0, false
	}
	return v.p, true
}

func constant(a ilp.ParamAffine) bool {
	for _, c := range a.Coef {
		if c != 0 {
			return false
		}
	}
	return true
}
