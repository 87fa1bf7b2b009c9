// Package certify is the exact verification layer of the float64 simplex
// kernels: it re-checks a reported optimum against the optimal-basis
// certificate the solver emitted (ilp.Certificate), entirely in exact
// rational arithmetic, and provides an exact rational simplex fallback for
// solves the certificate cannot vouch for. It also derives the pieces of
// ipet's parametric formulas exactly from the bases of their seed solves
// (DerivePiece).
//
// The checker's scalar is num: an int64 fraction that promotes a value to
// math/big.Rat when an operation would overflow, so the small integer rows
// of IPET problems never leave machine arithmetic while no input, however
// large or fractional, is ever rounded. Every float64 coefficient converts
// exactly.
//
// The checker never trusts solver-computed numbers: it rebuilds the
// standard form itself from the Problem using the same deterministic
// lowering the solver used (cold two-phase layout or warm delta layout,
// per Certificate.Warm, the warm one in the space of the replayed
// structural presolve when the certificate carries its record), takes only
// the basis column indices from the certificate, and derives the basic
// solution, the dual prices and every reduced cost exactly. A verified
// certificate is a proof: the basic solution is feasible for the original
// rows, and weak duality over the exactly-nonpositive reduced costs shows
// no feasible point does better.
package certify

import (
	"cinderella/internal/ilp"
)

// stdRow is one row of the exact standard form A·x = b over x >= 0.
type stdRow struct {
	cols []int
	vals []num
	rhs  num
}

// stdForm is the exact standard form of a Problem under one of the two
// deterministic lowerings of the float64 solvers. Columns are: the n real
// variables (under a presolve, the reduced ones), then slack/surplus
// columns, then artificial columns (cold layout), then — warm layout only —
// one fresh slack per lowered delta row.
type stdForm struct {
	n     int // real columns
	total int // all columns
	m     int
	rows  []stdRow
	// isArt marks artificial columns: excluded from the reduced-cost
	// optimality check (an original-feasible point always extends with
	// artificials at zero) and barred from entering in the exact solver.
	isArt []bool
	// initBasis is the per-row starting basis of the cold layout (slack for
	// <=, artificial for >= and =); meaningless for the warm layout, whose
	// solves start from the retained base basis instead.
	initBasis []int
	// numArt counts artificial columns (phase 1 needed when > 0).
	numArt int
}

// normRel flips a raw constraint into the sign-normalized form the solvers
// lower (RHS >= 0, LE/GE swapped when the RHS was negative).
func normRel(rel ilp.Relation, rhs float64) (ilp.Relation, bool) {
	if rhs >= 0 {
		return rel, false
	}
	switch rel {
	case ilp.LE:
		return ilp.GE, true
	case ilp.GE:
		return ilp.LE, true
	}
	return rel, true
}

// exactRow is one sign-normalized constraint row (rhs >= 0) in exact
// arithmetic, before the cold layout adds its auxiliary columns.
type exactRow struct {
	cols []int
	vals []num
	rel  ilp.Relation
	rhs  num
}

// coldForm rebuilds the cold two-phase standard form of p exactly.
func coldForm(p *ilp.Problem) *stdForm { return layoutCold(p.NumVars, coldRows(p)) }

// coldRows converts p's rows exactly: Prefix rows as packed (already
// normalized), Constraints sign-normalized.
func coldRows(p *ilp.Problem) []exactRow {
	nnz := 0
	for i := range p.Prefix {
		nnz += len(p.Prefix[i].Cols)
	}
	for i := range p.Constraints {
		nnz += len(p.Constraints[i].Coeffs)
	}
	rows := make([]exactRow, 0, len(p.Prefix)+len(p.Constraints))
	cols := make([]int, 0, nnz)
	vals := make([]num, 0, nnz)
	for i := range p.Prefix {
		r := &p.Prefix[i]
		lo := len(cols)
		for k, col := range r.Cols {
			cols = append(cols, int(col))
			vals = append(vals, numFloat(r.Vals[k]))
		}
		hi := len(cols)
		rows = append(rows, exactRow{cols: cols[lo:hi:hi], vals: vals[lo:hi:hi], rel: r.Rel, rhs: numFloat(r.RHS)})
	}
	for i := range p.Constraints {
		c := &p.Constraints[i]
		rel, neg := normRel(c.Rel, c.RHS)
		rhs := numFloat(c.RHS)
		if neg {
			rhs = rhs.neg()
		}
		lo := len(cols)
		// Sorted columns keep the row's sparse form deterministic; the
		// column assignment depends only on the relation.
		for _, j := range sortedCols(c.Coeffs) {
			v := c.Coeffs[j]
			if v == 0 {
				continue
			}
			if neg {
				v = -v
			}
			cols = append(cols, j)
			vals = append(vals, numFloat(v))
		}
		hi := len(cols)
		rows = append(rows, exactRow{cols: cols[lo:hi:hi], vals: vals[lo:hi:hi], rel: rel, rhs: rhs})
	}
	return rows
}

// layoutCold lays n real columns and the given rows out in the cold
// two-phase standard form: one slack per <=, surplus+artificial per >=,
// artificial per =, columns assigned in row order exactly as the sparse
// and dense kernels do.
func layoutCold(n int, rows []exactRow) *stdForm {
	m := len(rows)
	nnz, numSlack, numArt := 0, 0, 0
	for i := range rows {
		nnz += len(rows[i].cols)
		switch rows[i].rel {
		case ilp.LE:
			numSlack++
		case ilp.GE:
			numSlack++
			numArt++
		case ilp.EQ:
			numArt++
		}
	}
	sf := &stdForm{
		n:         n,
		total:     n + numSlack + numArt,
		m:         m,
		numArt:    numArt,
		rows:      make([]stdRow, m),
		initBasis: make([]int, m),
	}
	sf.isArt = make([]bool, sf.total)
	for j := n + numSlack; j < sf.total; j++ {
		sf.isArt[j] = true
	}

	// One arena holds every row's entries; each row's slices are capped at
	// its own length so that no append can reach a neighbour.
	cols := make([]int, 0, nnz+numSlack+numArt)
	vals := make([]num, 0, nnz+numSlack+numArt)
	slackCol, artCol := n, n+numSlack
	one, negOne := numInt(1), numInt(-1)
	for i := range rows {
		lo := len(cols)
		cols = append(cols, rows[i].cols...)
		vals = append(vals, rows[i].vals...)
		switch rows[i].rel {
		case ilp.LE:
			cols = append(cols, slackCol)
			vals = append(vals, one)
			sf.initBasis[i] = slackCol
			slackCol++
		case ilp.GE:
			cols = append(cols, slackCol, artCol)
			vals = append(vals, negOne, one)
			sf.initBasis[i] = artCol
			slackCol++
			artCol++
		case ilp.EQ:
			cols = append(cols, artCol)
			vals = append(vals, one)
			sf.initBasis[i] = artCol
			artCol++
		}
		hi := len(cols)
		sf.rows[i] = stdRow{cols: cols[lo:hi:hi], vals: vals[lo:hi:hi], rhs: rows[i].rhs}
	}
	return sf
}

func sortedCols(coeffs map[int]float64) []int {
	cols := make([]int, 0, len(coeffs))
	for j := range coeffs {
		cols = append(cols, j)
	}
	// Insertion sort: coefficient maps in this domain hold a handful of
	// entries.
	for i := 1; i < len(cols); i++ {
		for k := i; k > 0 && cols[k] < cols[k-1]; k-- {
			cols[k], cols[k-1] = cols[k-1], cols[k]
		}
	}
	return cols
}

// internalObj is the objective in the solver's internal maximization sense
// over the first size standard-form columns: sign * Objective on real
// columns, zero on auxiliary ones.
func internalObj(p *ilp.Problem, size int) []num {
	c := make([]num, size)
	neg := p.Sense == ilp.Minimize
	for j, v := range p.Objective {
		c[j] = numFloat(v)
		if neg {
			c[j] = c[j].neg()
		}
	}
	return c
}
