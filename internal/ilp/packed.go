package ilp

import "sort"

// PackedRow is one constraint pre-lowered to the solver's internal row
// form: sign-normalized (RHS >= 0, relation flipped when the original RHS
// was negative) with the nonzero coefficients stored as parallel
// column/value slices sorted by column.
//
// Packing is how callers that solve many problems sharing a common
// constraint prefix (one ILP per functionality constraint set, or the
// re-solves of branch and bound) avoid re-lowering the shared rows on
// every simplex call: lower them once with Pack and attach the result to
// Problem.Prefix. A PackedRow is read-only after Pack and safe to share
// across concurrent Solves.
type PackedRow struct {
	Cols []int32
	Vals []float64
	Rel  Relation
	RHS  float64
}

// Pack lowers constraints to their normalized sparse row form. Zero
// coefficients are dropped; rows with a negative right-hand side are
// negated (and LE/GE flipped) so RHS >= 0 holds, matching the
// normalization the simplex applies to raw constraints.
func Pack(cs []Constraint) []PackedRow {
	nnz := 0
	for _, c := range cs {
		for _, v := range c.Coeffs {
			if v != 0 {
				nnz++
			}
		}
	}
	// One backing array per field for the whole batch: rows only ever
	// sub-slice it, so packing N rows costs three allocations, not 2N+1.
	colArena := make([]int32, 0, nnz)
	valArena := make([]float64, 0, nnz)
	rows := make([]PackedRow, len(cs))
	for i, c := range cs {
		lo := len(colArena)
		for j, v := range c.Coeffs {
			if v == 0 {
				continue
			}
			colArena = append(colArena, int32(j))
			valArena = append(valArena, v)
		}
		rows[i] = packOne(PackedRow{
			Cols: colArena[lo:len(colArena):len(colArena)],
			Vals: valArena[lo:len(valArena):len(valArena)],
			Rel:  c.Rel,
			RHS:  c.RHS,
		})
	}
	return rows
}

func packOne(r PackedRow) PackedRow {
	sort.Sort(&r)
	return normalizeSign(r)
}

// normalizeSign negates a row with a negative right-hand side, flipping
// LE and GE, so that RHS >= 0.
func normalizeSign(r PackedRow) PackedRow {
	if r.RHS < 0 {
		for k := range r.Vals {
			r.Vals[k] = -r.Vals[k]
		}
		r.RHS = -r.RHS
		switch r.Rel {
		case LE:
			r.Rel = GE
		case GE:
			r.Rel = LE
		}
	}
	return r
}

// sort.Interface over the parallel column/value slices.
func (r *PackedRow) Len() int           { return len(r.Cols) }
func (r *PackedRow) Less(i, j int) bool { return r.Cols[i] < r.Cols[j] }
func (r *PackedRow) Swap(i, j int) {
	r.Cols[i], r.Cols[j] = r.Cols[j], r.Cols[i]
	r.Vals[i], r.Vals[j] = r.Vals[j], r.Vals[i]
}

// unpack converts a packed row back to a Constraint (used by the dense
// differential oracle and diagnostics).
func (r PackedRow) unpack() Constraint {
	c := Constraint{Coeffs: make(map[int]float64, len(r.Cols)), Rel: r.Rel, RHS: r.RHS}
	for k, col := range r.Cols {
		c.Coeffs[int(col)] = r.Vals[k]
	}
	return c
}

// unpackProblem flattens Prefix into plain Constraints, yielding an
// equivalent Problem in the pre-Prefix representation.
func unpackProblem(p *Problem) *Problem {
	if len(p.Prefix) == 0 {
		return p
	}
	q := &Problem{
		Sense:     p.Sense,
		NumVars:   p.NumVars,
		Objective: p.Objective,
		Integer:   p.Integer,
	}
	q.Constraints = make([]Constraint, 0, len(p.Prefix)+len(p.Constraints))
	for _, r := range p.Prefix {
		q.Constraints = append(q.Constraints, r.unpack())
	}
	q.Constraints = append(q.Constraints, p.Constraints...)
	return q
}
