package ilp

// DroppedDeltaRow reports how the warm path disposes of a per-set
// constraint before it reaches a tableau over the original variables:
// dropped (a constant row the base trivially satisfies), infeasible (a
// constant row the base contradicts — the solve reports Infeasible without
// building a tableau), or neither (the row is lowered). Exported for the
// exact checker, which must reproduce the warm standard form row for row.
// It applies to a base the presolve could not reduce; under a presolve the
// checker lowers delta rows through the replayed presolve record instead.
func DroppedDeltaRow(c *Constraint) (dropped, infeasible bool) {
	switch emptyRowFate(len(c.Coeffs), c.Rel, c.RHS) {
	case rowRedundant:
		return true, false
	case rowInfeasible:
		return false, true
	}
	return false, false
}

// Certificate is the optimality certificate a float64 solve emits so an
// exact checker (package certify) can re-verify the reported optimum in
// rational arithmetic. It names the basis the solve ended on; everything
// else — the standard-form matrix, the right-hand sides, the objective —
// the checker rebuilds itself from the Problem, exactly, using the same
// deterministic lowering the solver used. A certificate therefore proves
// or fails to prove optimality; it cannot smuggle in a wrong feasible
// region.
//
// Verification is the textbook basis check: with B the basis columns,
// x_B = B⁻¹b must be nonnegative (primal feasibility), and the reduced
// costs c_j − c_B B⁻¹ A_j must be nonpositive for every admissible
// nonbasic column (dual feasibility), which together certify x as an
// optimum of the LP relaxation by weak duality. An integral certified x
// also answers the integer problem.
type Certificate struct {
	// Warm marks a certificate from the warm-started dual-simplex path,
	// whose standard form differs from the cold lowering: the checker must
	// rebuild the base rows cold and append the per-set delta rows with the
	// warm lowering (each delta row carried by one fresh slack, equalities
	// split into a ≤/≥ pair, no right-hand-side sign normalization).
	Warm bool
	// Basis[i] is the standard-form column that is basic in row i. Rows are
	// ordered Prefix first, then Constraints (for Warm: base rows first,
	// then the lowered delta rows).
	Basis []int
	// Presolve, on a warm certificate, is the record of the structural
	// presolve the warm start ran under, nil when the base was not reduced.
	// The basis then names columns of the reduced problem: the checker
	// replays the record, checking each fact against its row, rebuilds the
	// reduced base and delta rows from it, and checks the reconstructed
	// point against every original row. The record is shared, read-only,
	// by every certificate of its warm start.
	Presolve *PresolveRecord
	// Phase1 marks the final basis of a cold phase 1 that ended with
	// artificial mass left (SolveSeed). It proves no optimum, so Verify
	// rejects it; its phase-1 duals are a candidate Farkas certificate of
	// infeasibility, which certify.DerivePiece checks.
	Phase1 bool
}
