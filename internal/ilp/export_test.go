package ilp

// Reduction returns the reduced problem, read-only: the reduced column of
// every variable (-1 when fixed), the fixed values, and the reduced base
// rows in order. ok is false when the presolve eliminated nothing, fixed
// every variable, or found the rows infeasible.
func (p *Presolve) Reduction() (col []int32, fixed []float64, rows []PackedRow, ok bool) {
	if p.red == nil {
		return nil, nil, nil, false
	}
	return p.red.col, p.red.fixed, p.red.rows, true
}
