package ilp

import (
	"math"
	"slices"
)

// Structural presolve for the shared base problem of a warm start. The
// analysis base rows (flow equations, the root's d1 = 1, loop bounds) are
// full of rows the simplex does not need to carry: equalities that merely
// name one variable in terms of another (x3 = x8, a block count equal to
// its single edge), variables fixed outright (d1 = 1), and null branches
// whose counts are forced to zero (x = 0 propagating through sums of
// nonnegative edge counts). Substituting those away before the base tableau
// is built shrinks every row the per-set dual-simplex re-solves inherit.
//
// The reduction is exact on the LP: every feasible point of the reduced
// problem reconstructs to a feasible point of the original with the same
// objective value, and vice versa. The warm path re-derives nothing — a
// reduced solve plus reconstruct answers the original problem — and the
// SetSelfCheck differential replays reduced solves against the unreduced
// cold solver, so a presolve defect cannot pass silently.

// presolved maps between an original base problem and its reduced form.
type presolved struct {
	n    int // original variable count
	nRed int // reduced variable count
	// col[v] is the reduced column of v's equality class, -1 when v is
	// fixed; fixed[v] holds the value in that case.
	col   []int32
	fixed []float64
	// rows is the reduced base, obj/objOffset the reduced objective: the
	// original objective equals reduced(x') + objOffset at corresponding
	// points.
	rows      []PackedRow
	obj       map[int]float64
	objOffset float64
}

// rowFate classifies a delta row after substitution.
type rowFate int

const (
	rowKeep rowFate = iota
	rowRedundant
	rowInfeasible
)

// presolveBase derives the substitution implied by the base's structural
// rows. It returns nil when no variable can be eliminated (the reduction
// would be a plain copy); infeasible reports a contradiction among the
// rows, in which case the returned reduction is nil and the base problem
// has no feasible point.
func presolveBase(p *Problem) (red *presolved, infeasible bool) {
	n := p.NumVars
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(v int) int {
		for parent[v] != v {
			parent[v] = parent[parent[v]]
			v = parent[v]
		}
		return v
	}
	hasVal := make([]bool, n)
	val := make([]float64, n)

	bad := false
	changed := false
	fix := func(v int, x float64) {
		r := find(v)
		if x < 0 {
			if x < -presolveTol {
				bad = true
				return
			}
			x = 0
		}
		if hasVal[r] {
			if math.Abs(val[r]-x) > presolveTol {
				bad = true
			}
			return
		}
		hasVal[r], val[r] = true, x
		changed = true
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra == rb {
			return
		}
		// Merge the higher-numbered root into the lower so class
		// representatives are deterministic.
		if ra > rb {
			ra, rb = rb, ra
		}
		parent[rb] = ra
		if hasVal[rb] {
			if hasVal[ra] && math.Abs(val[ra]-val[rb]) > presolveTol {
				bad = true
				return
			}
			hasVal[ra], val[ra] = true, val[rb]
		}
		changed = true
	}

	// Substitute to a fixpoint: each pass reduces every row under the
	// current classes/values and harvests new facts. Row counts here are
	// small and each pass either fixes or merges at least one variable, so
	// the loop is bounded by the variable count.
	terms := map[int]float64{}
	for {
		changed = false
		for ri := range p.Prefix {
			r := &p.Prefix[ri]
			clear(terms)
			rhs := r.RHS
			for k, cv := range r.Cols {
				rt := find(int(cv))
				if hasVal[rt] {
					rhs -= r.Vals[k] * val[rt]
					continue
				}
				terms[rt] += r.Vals[k]
				if terms[rt] == 0 {
					delete(terms, rt)
				}
			}
			pos, neg := 0, 0
			for _, c := range terms {
				if c > 0 {
					pos++
				} else {
					neg++
				}
			}
			switch r.Rel {
			case EQ:
				switch {
				case len(terms) == 0:
					if math.Abs(rhs) > presolveTol {
						bad = true
					}
				case len(terms) == 1:
					for rt, c := range terms {
						fix(rt, rhs/c)
					}
				case math.Abs(rhs) <= presolveTol && (pos == 0 || neg == 0):
					// Sum of same-signed terms over nonnegative variables
					// equals zero: every term is zero (null branches).
					for rt := range terms {
						fix(rt, 0)
					}
				case len(terms) == 2 && math.Abs(rhs) <= presolveTol:
					// c*x - c*y = 0 is x = y: merge the classes.
					var vs [2]int
					var cs [2]float64
					i := 0
					for rt, c := range terms {
						vs[i], cs[i] = rt, c
						i++
					}
					if cs[0] == -cs[1] {
						union(vs[0], vs[1])
					}
				}
			case LE:
				if len(terms) == 0 {
					if rhs < -presolveTol {
						bad = true
					}
				} else if neg == 0 {
					if rhs < -presolveTol {
						bad = true // sum of nonnegative terms <= negative
					} else if rhs <= presolveTol {
						for rt := range terms {
							fix(rt, 0)
						}
					}
				}
			case GE:
				if len(terms) == 0 {
					if rhs > presolveTol {
						bad = true
					}
				} else if pos == 0 {
					if rhs > presolveTol {
						bad = true // sum of nonpositive terms >= positive
					} else if rhs >= -presolveTol {
						for rt := range terms {
							fix(rt, 0)
						}
					}
				}
			}
			if bad {
				return nil, true
			}
		}
		if !changed {
			break
		}
	}

	// Assign reduced columns to the surviving classes, in variable order.
	col := make([]int32, n)
	fixed := make([]float64, n)
	nRed := 0
	rootCol := make(map[int]int32)
	for v := 0; v < n; v++ {
		rt := find(v)
		if hasVal[rt] {
			col[v] = -1
			fixed[v] = val[rt]
			continue
		}
		c, ok := rootCol[rt]
		if !ok {
			c = int32(nRed)
			rootCol[rt] = c
			nRed++
		}
		col[v] = c
	}
	if nRed == n || nRed == 0 {
		// Nothing eliminated (reduction would be a copy), or everything
		// fixed (degenerate; let the cold path handle it).
		return nil, false
	}
	red = &presolved{n: n, nRed: nRed, col: col, fixed: fixed}

	// Reduce the rows, dropping those the substitution satisfied outright
	// and deduplicating rows that collapse to the same reduced form (a
	// block's in- and out-equations often do once shared edges merge).
	seen := map[string]bool{}
	reduced := make([]Constraint, 0, len(p.Prefix))
	for ri := range p.Prefix {
		r := &p.Prefix[ri]
		coeffs, rhs, fate := red.lowerPacked(r)
		switch fate {
		case rowInfeasible:
			return nil, true
		case rowRedundant:
			continue
		}
		reduced = append(reduced, Constraint{Coeffs: coeffs, Rel: r.Rel, RHS: rhs})
	}
	packed := Pack(reduced)
	red.rows = packed[:0]
	for _, pr := range packed {
		key := rowKey(&pr)
		if seen[key] {
			continue
		}
		seen[key] = true
		red.rows = append(red.rows, pr)
	}

	red.obj = make(map[int]float64, len(p.Objective))
	for v, c := range p.Objective {
		if col[v] < 0 {
			red.objOffset += c * fixed[v]
		} else {
			red.obj[int(col[v])] += c
		}
	}
	return red, false
}

// rowKey serializes a packed row for exact-duplicate detection.
func rowKey(r *PackedRow) string {
	b := make([]byte, 0, 16+12*len(r.Cols))
	b = append(b, byte(r.Rel))
	b = appendFloatKey(b, r.RHS)
	for k, c := range r.Cols {
		b = append(b, byte(c), byte(c>>8), byte(c>>16), byte(c>>24))
		b = appendFloatKey(b, r.Vals[k])
	}
	return string(b)
}

func appendFloatKey(b []byte, f float64) []byte {
	u := math.Float64bits(f)
	for i := 0; i < 8; i++ {
		b = append(b, byte(u>>(8*i)))
	}
	return b
}

// lowerPacked substitutes a packed row into reduced space.
func (pr *presolved) lowerPacked(r *PackedRow) (map[int]float64, float64, rowFate) {
	coeffs := make(map[int]float64, len(r.Cols))
	rhs := r.RHS
	for k, cv := range r.Cols {
		v := int(cv)
		if pr.col[v] < 0 {
			rhs -= r.Vals[k] * pr.fixed[v]
			continue
		}
		j := int(pr.col[v])
		coeffs[j] += r.Vals[k]
		if coeffs[j] == 0 {
			delete(coeffs, j)
		}
	}
	return coeffs, rhs, emptyRowFate(len(coeffs), r.Rel, rhs)
}

// lowerDelta substitutes a per-set delta constraint into reduced space,
// visiting its variables in ascending order, and returns the surviving
// coefficients sorted by reduced column.
func (pr *presolved) lowerDelta(c *Constraint) (cols []int32, vals []float64, rhs float64, fate rowFate) {
	vars, coeffs := sortedCoeffs(c.Coeffs)
	rhs = c.RHS
	for i, v := range vars {
		cv := coeffs[i]
		j := pr.col[v]
		if j < 0 {
			rhs -= cv * pr.fixed[v]
			continue
		}
		if k, found := slices.BinarySearch(cols, j); found {
			vals[k] += cv
		} else {
			cols = slices.Insert(cols, k, j)
			vals = slices.Insert(vals, k, cv)
		}
	}
	// Merged classes may cancel out.
	n := 0
	for k := range cols {
		if vals[k] != 0 {
			cols[n], vals[n] = cols[k], vals[k]
			n++
		}
	}
	cols, vals = cols[:n], vals[:n]
	return cols, vals, rhs, emptyRowFate(n, c.Rel, rhs)
}

// emptyRowFate decides what to do with a substituted row of n coefficient
// entries: rows that still carry variables are kept; constant rows are
// either redundant or a contradiction (0 rel rhs).
func emptyRowFate(n int, rel Relation, rhs float64) rowFate {
	if n > 0 {
		return rowKeep
	}
	ok := false
	switch rel {
	case LE:
		ok = rhs >= -presolveTol
	case GE:
		ok = rhs <= presolveTol
	case EQ:
		ok = math.Abs(rhs) <= presolveTol
	}
	if ok {
		return rowRedundant
	}
	return rowInfeasible
}

// reconstruct maps a reduced solution back to the original variable space.
func (pr *presolved) reconstruct(xr []float64) []float64 {
	x := make([]float64, pr.n)
	for v := 0; v < pr.n; v++ {
		if pr.col[v] < 0 {
			x[v] = pr.fixed[v]
		} else {
			x[v] = xr[pr.col[v]]
		}
	}
	return x
}
