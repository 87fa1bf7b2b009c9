package certify

import (
	"fmt"
	"math/big"

	"cinderella/internal/ilp"
)

// WarmChecker verifies the certificates of one warm start: the claims of
// the warm dual simplex over one base problem (Prefix rows and objective),
// each base plus one set's delta rows. It is built once per base and is
// read-only after, so concurrent claims may share it.
//
// For a base the structural presolve reduced, NewWarmChecker replays the
// presolve record in exact arithmetic. Each fact must follow from its row
// given the facts before it; a wrong fixed value, a fix or merge drawn from
// an inequality, a merge or zero its row does not imply, and a fact that
// needs a later one are all rejected. The replay yields the exact classes
// and fixed values, from which the reduced base is lowered, row by row,
// from the named source rows; its cold standard form is built once. Each claim's basis is then checked in the
// reduced problem with the claim's delta rows lowered the same way, and
// the point it reconstructs is checked against every original row and for
// integrality. The record supplies only indices and rule choices, never a
// number: a wrong choice of rows can at most relax the reduced problem, and
// an optimum of the relaxation that is feasible for every original row is
// an optimum of the original, so no choice can certify a wrong optimum.
//
// Without a record the reduction is the identity and the checker
// reproduces the warm layout of an unreduced base.
type WarmChecker struct {
	base *ilp.Problem
	rec  *ilp.PresolveRecord
	// col[v] is the reduced column of variable v, -1 when the presolve
	// fixed v, at fixed[v]; nRed counts the reduced columns.
	col   []int
	fixed []num
	nRed  int
	// sf is the reduced base's cold standard form, which every claim
	// extends with its delta rows; c is the objective over the reduced
	// columns in the internal maximization sense.
	sf *stdForm
	c  []num
}

// NewWarmChecker builds the checker of the warm start over base (Prefix
// rows only) whose certificates carry rec (nil for an unreduced base). It
// returns an error when the record does not replay: a fact its row does
// not imply, or a named row the facts reduce to a constant.
func NewWarmChecker(base *ilp.Problem, rec *ilp.PresolveRecord) (*WarmChecker, error) {
	if len(base.Constraints) != 0 {
		return nil, fmt.Errorf("certify: a warm base carries Prefix rows only")
	}
	if err := base.Validate(); err != nil {
		return nil, err
	}
	n := base.NumVars
	w := &WarmChecker{base: base, rec: rec, col: make([]int, n), fixed: make([]num, n)}
	var rows []exactRow
	if rec == nil {
		for v := range w.col {
			w.col[v] = v
		}
		w.nRed = n
		rows = coldRows(base)
	} else {
		if rec.NumVars != n {
			return nil, fmt.Errorf("certify: presolve record is over %d variables, base has %d", rec.NumVars, n)
		}
		if err := w.replay(); err != nil {
			return nil, err
		}
		var err error
		if rows, err = w.sourceRows(); err != nil {
			return nil, err
		}
	}
	w.sf = layoutCold(w.nRed, rows)
	w.c = make([]num, w.nRed)
	for v, coef := range base.Objective {
		if j := w.col[v]; j >= 0 {
			w.c[j] = add(w.c[j], numFloat(coef))
		}
	}
	if base.Sense == ilp.Minimize {
		for j := range w.c {
			w.c[j] = w.c[j].neg()
		}
	}
	return w, nil
}

// replay re-derives the record's facts in order, each from its row under
// the facts before it, and assigns the reduced columns.
func (w *WarmChecker) replay() error {
	n := w.base.NumVars
	prefix := w.base.Prefix
	parent := make([]int, n)
	for v := range parent {
		parent[v] = v
	}
	find := func(v int) int {
		for parent[v] != v {
			parent[v] = parent[parent[v]]
			v = parent[v]
		}
		return v
	}
	hasVal := make([]bool, n)
	val := make([]num, n)
	acc := make([]num, n)
	stamp := make([]int, n)
	var terms []int
	inRange := func(v int32) bool { return v >= 0 && int(v) < n }
	for fi, f := range w.rec.Facts {
		if f.Row < 0 || int(f.Row) >= len(prefix) {
			return fmt.Errorf("certify: presolve fact %d names row %d of %d", fi, f.Row, len(prefix))
		}
		// Reduce the row under the facts so far: classes by root, fixed
		// classes folded into the right-hand side.
		r := &prefix[f.Row]
		rhs := numFloat(r.RHS)
		terms = terms[:0]
		for k, cv := range r.Cols {
			rt := find(int(cv))
			coef := numFloat(r.Vals[k])
			if hasVal[rt] {
				rhs = sub(rhs, mul(coef, val[rt]))
				continue
			}
			if stamp[rt] != fi+1 {
				stamp[rt] = fi + 1
				acc[rt] = num{}
				terms = append(terms, rt)
			}
			acc[rt] = add(acc[rt], coef)
		}
		live := terms[:0]
		pos, neg := 0, 0
		for _, rt := range terms {
			switch acc[rt].sign() {
			case 1:
				pos++
			case -1:
				neg++
			default:
				continue
			}
			live = append(live, rt)
		}
		terms = live
		switch f.Kind {
		case ilp.PresolveFix:
			// Only an equality pins its class: 2·x <= 6 bounds x, it does
			// not fix it at 3.
			if r.Rel != ilp.EQ || len(terms) != 1 || !inRange(f.Var) || find(int(f.Var)) != terms[0] {
				return fmt.Errorf("certify: presolve fact %d: row %d is not an equality on the class of x%d alone", fi, f.Row, f.Var)
			}
			t := terms[0]
			x := quo(rhs, acc[t])
			if x.sign() < 0 {
				return fmt.Errorf("certify: presolve fact %d: row %d fixes x%d at %s < 0", fi, f.Row, f.Var, x)
			}
			if nearestFloat(x) != f.Value {
				return fmt.Errorf("certify: presolve fact %d fixes x%d at %g, row %d implies %s", fi, f.Var, f.Value, f.Row, x)
			}
			hasVal[t], val[t] = true, x
		case ilp.PresolveMerge:
			if r.Rel != ilp.EQ || len(terms) != 2 || !rhs.isZero() || cmp(acc[terms[0]], acc[terms[1]].neg()) != 0 ||
				!inRange(f.Var) || !inRange(f.With) {
				return fmt.Errorf("certify: presolve fact %d: row %d is not the equality c·x - c·y = 0", fi, f.Row)
			}
			a, b := find(int(f.Var)), find(int(f.With))
			if !(a == terms[0] && b == terms[1] || a == terms[1] && b == terms[0]) {
				return fmt.Errorf("certify: presolve fact %d: row %d does not equate x%d and x%d", fi, f.Row, f.Var, f.With)
			}
			if a > b {
				a, b = b, a
			}
			parent[b] = a
		case ilp.PresolveZero:
			ok := len(terms) > 0
			switch s := rhs.sign(); r.Rel {
			case ilp.EQ:
				ok = ok && s == 0 && (pos == 0 || neg == 0)
			case ilp.LE:
				ok = ok && s <= 0 && neg == 0
			case ilp.GE:
				ok = ok && s >= 0 && pos == 0
			}
			if !ok {
				return fmt.Errorf("certify: presolve fact %d: row %d does not force its terms to zero", fi, f.Row)
			}
			for _, t := range terms {
				hasVal[t], val[t] = true, num{}
			}
		default:
			return fmt.Errorf("certify: presolve fact %d has unknown kind %d", fi, f.Kind)
		}
	}

	// Reduced columns go to the surviving classes in variable order, as
	// the presolve assigns them.
	rootCol := make([]int, n)
	for v := range rootCol {
		rootCol[v] = -1
	}
	for v := 0; v < n; v++ {
		rt := find(v)
		if hasVal[rt] {
			w.col[v], w.fixed[v] = -1, val[rt]
			continue
		}
		if rootCol[rt] < 0 {
			rootCol[rt] = w.nRed
			w.nRed++
		}
		w.col[v] = rootCol[rt]
	}
	return nil
}

// sourceRows lowers the record's named base rows into the reduced space,
// sign-normalized as the float64 presolve packs them.
func (w *WarmChecker) sourceRows() ([]exactRow, error) {
	prefix := w.base.Prefix
	nnz := 0
	for _, ri := range w.rec.Rows {
		if ri < 0 || int(ri) >= len(prefix) {
			return nil, fmt.Errorf("certify: presolve names row %d of %d", ri, len(prefix))
		}
		nnz += len(prefix[ri].Cols)
	}
	// A reduced row is never longer than its source: one arena holds them.
	cols, vals := make([]int, 0, nnz), make([]num, 0, nnz)
	rows := make([]exactRow, 0, len(w.rec.Rows))
	acc := make([]num, w.nRed)
	stamp := make([]int, w.nRed)
	var touched []int
	for i, ri := range w.rec.Rows {
		r := &prefix[ri]
		rhs := numFloat(r.RHS)
		touched = touched[:0]
		for k, cv := range r.Cols {
			coef := numFloat(r.Vals[k])
			j := w.col[cv]
			if j < 0 {
				rhs = sub(rhs, mul(coef, w.fixed[cv]))
				continue
			}
			if stamp[j] != i+1 {
				stamp[j] = i + 1
				acc[j] = num{}
				touched = append(touched, j)
			}
			acc[j] = add(acc[j], coef)
		}
		// The float64 presolve packs the row with its right-hand side
		// nonnegative.
		neg := rhs.sign() < 0
		lo := len(cols)
		for _, j := range touched {
			if v := acc[j]; !v.isZero() {
				if neg {
					v = v.neg()
				}
				cols = append(cols, j)
				vals = append(vals, v)
			}
		}
		hi := len(cols)
		if hi == lo {
			return nil, fmt.Errorf("certify: presolve keeps row %d, which its facts reduce to a constant", ri)
		}
		row := exactRow{cols: cols[lo:hi:hi], vals: vals[lo:hi:hi], rel: r.Rel, rhs: rhs}
		if neg {
			row.rhs = rhs.neg()
			switch row.rel {
			case ilp.LE:
				row.rel = ilp.GE
			case ilp.GE:
				row.rel = ilp.LE
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Verify checks a warm certificate of p, the checker's base plus one set's
// rows as p.Constraints, and returns the certified optimum; see
// WarmChecker for the checks.
func (w *WarmChecker) Verify(p *ilp.Problem, cert *ilp.Certificate) (*Result, error) {
	if cert == nil {
		return nil, fmt.Errorf("certify: no certificate")
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return w.verify(p, cert)
}

func (w *WarmChecker) verify(p *ilp.Problem, cert *ilp.Certificate) (*Result, error) {
	switch {
	case !cert.Warm:
		return nil, fmt.Errorf("certify: not a warm certificate")
	case cert.Presolve != w.rec:
		return nil, fmt.Errorf("certify: certificate names another presolve record than the checker's")
	case p.NumVars != w.base.NumVars || p.Sense != w.base.Sense || len(p.Prefix) != len(w.base.Prefix):
		return nil, fmt.Errorf("certify: problem does not extend the checker's base")
	}
	sf, err := w.claimForm(p.Constraints)
	if err != nil {
		return nil, err
	}
	xB, err := checkBasis(sf, cert.Basis, w.c)
	if err != nil {
		return nil, err
	}
	xr := make([]num, w.nRed)
	for i, j := range cert.Basis {
		if j < w.nRed {
			xr[j] = xB[i]
		}
	}
	x := make([]num, len(w.col))
	for v, j := range w.col {
		if j < 0 {
			x[v] = w.fixed[v]
		} else {
			x[v] = xr[j]
		}
	}
	if err := checkPoint(p, x); err != nil {
		return nil, err
	}
	return result(p, x), nil
}

// claimForm extends the base's standard form with one set's delta rows,
// lowered as the warm solve lowers them: substituted into the reduced
// space, each carried by one fresh slack, >= negated, = split into a <=/>=
// pair, no sign normalization, and constant rows the base satisfies
// dropped. A constant row the base contradicts is an error: such a set
// reports Infeasible without a tableau and can never have been certified.
func (w *WarmChecker) claimForm(set []ilp.Constraint) (*stdForm, error) {
	base := w.sf
	sf := &stdForm{n: base.n, total: base.total, m: base.m, numArt: base.numArt}
	sf.rows = append(make([]stdRow, 0, base.m+2*len(set)), base.rows...)
	sf.isArt = append(make([]bool, 0, base.total+2*len(set)), base.isArt...)
	one := numInt(1)
	appendRow := func(cols []int, vals []num, rhs num, negate bool) {
		row := stdRow{cols: make([]int, 0, len(cols)+1), vals: make([]num, 0, len(cols)+1), rhs: rhs}
		if negate {
			row.rhs = rhs.neg()
		}
		for k, j := range cols {
			v := vals[k]
			if negate {
				v = v.neg()
			}
			row.cols = append(row.cols, j)
			row.vals = append(row.vals, v)
		}
		row.cols = append(row.cols, sf.total)
		row.vals = append(row.vals, one)
		sf.rows = append(sf.rows, row)
		sf.isArt = append(sf.isArt, false)
		sf.total++
		sf.m++
	}
	for i := range set {
		c := &set[i]
		cols, vals, rhs, keep, err := w.lowerDelta(c)
		if err != nil {
			return nil, fmt.Errorf("certify: set constraint %d: %v", i, err)
		}
		if !keep {
			continue
		}
		if c.Rel != ilp.GE {
			appendRow(cols, vals, rhs, false)
		}
		if c.Rel != ilp.LE {
			appendRow(cols, vals, rhs, true)
		}
	}
	return sf, nil
}

// lowerDelta lowers one delta row into the reduced space exactly, visiting
// its variables in ascending order. keep is false for a constant row the
// base satisfies.
func (w *WarmChecker) lowerDelta(c *ilp.Constraint) (cols []int, vals []num, rhs num, keep bool, err error) {
	rhs = numFloat(c.RHS)
	if w.rec == nil {
		// Unreduced: zero coefficients count as present, as the warm
		// lowering of an unreduced base counts them.
		dropped, infeasible := ilp.DroppedDeltaRow(c)
		if infeasible {
			return nil, nil, rhs, false, fmt.Errorf("a constant contradiction; the warm path cannot have certified it")
		}
		if dropped {
			return nil, nil, rhs, false, nil
		}
		for _, j := range sortedCols(c.Coeffs) {
			if v := c.Coeffs[j]; v != 0 {
				cols = append(cols, j)
				vals = append(vals, numFloat(v))
			}
		}
		return cols, vals, rhs, true, nil
	}
	for _, v := range sortedCols(c.Coeffs) {
		coef := c.Coeffs[v]
		if coef == 0 {
			continue
		}
		cv := numFloat(coef)
		j := w.col[v]
		if j < 0 {
			rhs = sub(rhs, mul(cv, w.fixed[v]))
			continue
		}
		k := 0
		for k < len(cols) && cols[k] < j {
			k++
		}
		if k < len(cols) && cols[k] == j {
			vals[k] = add(vals[k], cv)
			continue
		}
		cols = append(cols, 0)
		vals = append(vals, num{})
		copy(cols[k+1:], cols[k:])
		copy(vals[k+1:], vals[k:])
		cols[k], vals[k] = j, cv
	}
	n := 0
	for k := range cols {
		if !vals[k].isZero() {
			cols[n], vals[n] = cols[k], vals[k]
			n++
		}
	}
	cols, vals = cols[:n], vals[:n]
	if n > 0 {
		return cols, vals, rhs, true, nil
	}
	holds := false
	switch s := rhs.sign(); c.Rel {
	case ilp.LE:
		holds = s >= 0
	case ilp.GE:
		holds = s <= 0
	case ilp.EQ:
		holds = s == 0
	}
	if !holds {
		return nil, nil, rhs, false, fmt.Errorf("lowers to a constant contradiction; the warm path cannot have certified it")
	}
	return nil, nil, rhs, false, nil
}

// nearestFloat returns the float64 nearest to a.
func nearestFloat(a num) float64 {
	switch {
	case a.r != nil:
		f, _ := a.r.Float64()
		return f
	case a.d == 0:
		return float64(a.p)
	}
	f, _ := new(big.Rat).SetFrac64(a.p, a.den()).Float64()
	return f
}
