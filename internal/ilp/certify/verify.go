package certify

import (
	"fmt"
	"math/big"

	"cinderella/internal/ilp"
)

// Result is the exact account of a verified certificate: the optimum in
// the problem's own sense and the optimal assignment, both exact.
type Result struct {
	// Objective is the exact optimum value.
	Objective *big.Rat
	x         []num // the exact optimal assignment over the real variables
}

// Ints returns the optimal assignment as integers; ok is false when an
// entry is not an integer that fits an int64.
func (r *Result) Ints() (x []int64, ok bool) {
	x = make([]int64, len(r.x))
	for j, v := range r.x {
		if v.r != nil || v.d != 0 {
			return nil, false
		}
		x[j] = v.p
	}
	return x, true
}

// Verify checks cert against p in exact rational arithmetic and returns
// the certified optimum, or an error describing why the certificate does
// not prove the claim. The checks, all exact:
//
//   - the basis is well-formed (m distinct in-range columns) and the basis
//     matrix is nonsingular;
//   - the basic solution x_B = B⁻¹b is nonnegative and the induced real
//     assignment satisfies every original Prefix/Constraints row — so the
//     point is genuinely feasible, even if a zero-valued artificial is
//     still basic;
//   - every non-artificial nonbasic column has a nonpositive reduced cost
//     c_j − c_B·B⁻¹·A_j in the internal maximization sense — so by weak
//     duality no feasible point beats x;
//   - for an Integer problem, x is integral, making the LP certificate a
//     certificate of the ILP optimum too.
//
// Verify rebuilds the standard form from p itself (cold or warm lowering
// per cert.Warm); the certificate contributes only the basis column
// indices, so it cannot misrepresent the feasible region. A warm
// certificate is checked by a WarmChecker over p's base built for this one
// call; callers checking many claims on one base build the checker once.
// The basic solution and the dual prices come from two sparse exact
// solves, one on B and one on Bᵀ (solveSparse), in num arithmetic.
func Verify(p *ilp.Problem, cert *ilp.Certificate) (*Result, error) {
	if cert == nil {
		return nil, fmt.Errorf("certify: no certificate")
	}
	if cert.Phase1 {
		return nil, fmt.Errorf("certify: a phase-1 basis proves no optimum")
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if cert.Warm {
		c, err := NewWarmChecker(&ilp.Problem{
			Sense: p.Sense, NumVars: p.NumVars, Objective: p.Objective, Prefix: p.Prefix,
		}, cert.Presolve)
		if err != nil {
			return nil, err
		}
		return c.verify(p, cert)
	}
	sf := coldForm(p)
	xB, err := checkBasis(sf, cert.Basis, internalObj(p, sf.n))
	if err != nil {
		return nil, err
	}
	x := make([]num, sf.n)
	for i, j := range cert.Basis {
		if j < sf.n {
			x[j] = xB[i]
		}
	}
	if err := checkPoint(p, x); err != nil {
		return nil, err
	}
	return result(p, x), nil
}

// checkBasis checks that basis names an optimal basis of sf: it is
// well-formed, its matrix is nonsingular, its basic solution is
// nonnegative, and no admissible nonbasic column has a positive reduced
// cost under the objective c over sf's real columns (internal maximization
// sense; auxiliary columns cost nothing). It returns the basic solution,
// xB[i] the value of column basis[i].
func checkBasis(sf *stdForm, basis []int, c []num) ([]num, error) {
	pos, err := basisPositions(sf, basis)
	if err != nil {
		return nil, err
	}
	// The basis matrix B (column i = standard-form column basis[i]) and its
	// transpose, both sparse, and the right-hand side. Both copies are
	// built up front: solveSparse consumes its matrix.
	B, Bt := basisMatrices(sf, pos)
	b := make([]num, sf.m)
	for r := range sf.rows {
		b[r] = sf.rows[r].rhs
	}
	z, ok := solveSparse(B, b)
	if !ok {
		return nil, fmt.Errorf("certify: basis matrix is singular")
	}
	xB := z[0]
	for i, v := range xB {
		if v.sign() < 0 {
			return nil, fmt.Errorf("certify: basic variable for column %d is negative (%s)", basis[i], v)
		}
	}
	if err := checkDual(sf, basis, pos, Bt, c); err != nil {
		return nil, err
	}
	return xB, nil
}

// basisPositions checks that basis names one distinct in-range column of sf
// per row and returns its inverse: pos[j] is column j's basis position, -1
// when j is nonbasic.
func basisPositions(sf *stdForm, basis []int) ([]int, error) {
	if sf.m == 0 {
		return nil, fmt.Errorf("certify: problem has no rows; no basis to check")
	}
	if len(basis) != sf.m {
		return nil, fmt.Errorf("certify: basis names %d rows, standard form has %d", len(basis), sf.m)
	}
	pos := make([]int, sf.total)
	for j := range pos {
		pos[j] = -1
	}
	for i, j := range basis {
		if j < 0 || j >= sf.total {
			return nil, fmt.Errorf("certify: basis column %d out of range [0,%d)", j, sf.total)
		}
		if pos[j] >= 0 {
			return nil, fmt.Errorf("certify: column %d basic in two rows", j)
		}
		pos[j] = i
	}
	return pos, nil
}

// checkDual checks the optimality half of a basis: the dual prices y solve
// Bᵀy = c_B, and no admissible (non-artificial) nonbasic column may have a
// positive reduced cost c_j − yᵀA_j. Bt holds the rows of Bᵀ and is
// consumed.
func checkDual(sf *stdForm, basis, pos []int, Bt []sparseRow, c []num) error {
	cost := func(j int) num {
		if j < len(c) {
			return c[j]
		}
		return num{}
	}
	cB := make([]num, sf.m)
	for r := range cB {
		cB[r] = cost(basis[r])
	}
	z, ok := solveSparse(Bt, cB)
	if !ok {
		return fmt.Errorf("certify: basis matrix is singular (dual)")
	}
	yA := priceColumns(sf, z[0])
	for j := 0; j < sf.total; j++ {
		if sf.isArt[j] || pos[j] >= 0 {
			continue
		}
		if cj := cost(j); cmp(cj, yA[j]) > 0 {
			return fmt.Errorf("certify: nonbasic column %d has positive reduced cost %s; basis is not optimal", j, sub(cj, yA[j]))
		}
	}
	return nil
}

// priceColumns returns yᵀA_j for every standard-form column j of sf.
func priceColumns(sf *stdForm, y []num) []num {
	yA := make([]num, sf.total)
	for r := range sf.rows {
		if y[r].isZero() {
			continue
		}
		for k, col := range sf.rows[r].cols {
			yA[col] = add(yA[col], mul(y[r], sf.rows[r].vals[k]))
		}
	}
	return yA
}

// checkPoint verifies that x is a feasible point of p — nonnegative, every
// original row satisfied — and, for an Integer problem, integral. This is
// load-bearing, not belt-and-braces: a leftover artificial basic at a
// nonzero value satisfies the standard form but not the original row it
// patches, and under a presolve the standard form is the reduced problem.
func checkPoint(p *ilp.Problem, x []num) error {
	if err := checkOriginalRows(p, x); err != nil {
		return err
	}
	if p.Integer {
		return checkIntegral(x)
	}
	return nil
}

// basisMatrices returns the rows of the basis matrix B, whose column i is
// the standard-form column basic in row i (pos maps a column to its basis
// position, -1 when nonbasic), and the rows of Bᵀ. Each matrix keeps its
// entries in one arena, every row capped at its own length so that the
// fill of elimination reallocates only the rows it grows.
func basisMatrices(sf *stdForm, pos []int) (B, Bt []sparseRow) {
	B, Bt = make([]sparseRow, sf.m), make([]sparseRow, sf.m)
	rowLen, colLen := make([]int, sf.m), make([]int, sf.m)
	nnz := 0
	for r := range sf.rows {
		for _, col := range sf.rows[r].cols {
			if i := pos[col]; i >= 0 {
				rowLen[r]++
				colLen[i]++
				nnz++
			}
		}
	}
	carve := func(rows []sparseRow, lens []int) {
		cols, vals := make([]int, nnz), make([]num, nnz)
		off := 0
		for r, n := range lens {
			rows[r] = sparseRow{cols: cols[off : off : off+n], vals: vals[off : off : off+n]}
			off += n
		}
	}
	carve(B, rowLen)
	carve(Bt, colLen)
	for r := range sf.rows {
		for k, col := range sf.rows[r].cols {
			if i := pos[col]; i >= 0 {
				v := sf.rows[r].vals[k]
				B[r].cols = append(B[r].cols, i)
				B[r].vals = append(B[r].vals, v)
				Bt[i].cols = append(Bt[i].cols, r)
				Bt[i].vals = append(Bt[i].vals, v)
			}
		}
	}
	return B, Bt
}

// result packages a checked assignment as a Result, with the objective in
// the problem's own sense.
func result(p *ilp.Problem, x []num) *Result {
	var obj num
	for j, v := range p.Objective {
		obj = add(obj, mul(numFloat(v), x[j]))
	}
	return &Result{Objective: obj.rat(), x: x}
}

// checkIntegral verifies that every entry of x is an integer.
func checkIntegral(x []num) error {
	for j, v := range x {
		if !v.isInt() {
			return fmt.Errorf("certify: x%d = %s is not integral", j, v)
		}
	}
	return nil
}

// checkOriginalRows verifies x >= 0 and every Prefix/Constraints row of p
// at x, exactly.
func checkOriginalRows(p *ilp.Problem, x []num) error {
	for j, v := range x {
		if v.sign() < 0 {
			return fmt.Errorf("certify: x%d = %s is negative", j, v)
		}
	}
	holds := func(rel ilp.Relation, lhs num, rhs float64) bool {
		c := cmp(lhs, numFloat(rhs))
		switch rel {
		case ilp.LE:
			return c <= 0
		case ilp.GE:
			return c >= 0
		}
		return c == 0
	}
	for ri := range p.Prefix {
		r := &p.Prefix[ri]
		var lhs num
		for k, col := range r.Cols {
			lhs = add(lhs, mul(numFloat(r.Vals[k]), x[col]))
		}
		if !holds(r.Rel, lhs, r.RHS) {
			return fmt.Errorf("certify: solution violates prefix row %d", ri)
		}
	}
	for ci := range p.Constraints {
		c := &p.Constraints[ci]
		var lhs num
		for j, v := range c.Coeffs {
			lhs = add(lhs, mul(numFloat(v), x[j]))
		}
		if !holds(c.Rel, lhs, c.RHS) {
			return fmt.Errorf("certify: solution violates constraint %d (%s)", ci, c.Name)
		}
	}
	return nil
}
