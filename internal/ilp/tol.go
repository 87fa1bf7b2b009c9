package ilp

import "math"

// Numeric tolerances of the float64 solver paths, collected in one place.
// The dense oracle, the sparse production kernel, the warm-started dual
// simplex and the branch-and-bound layer all share these; a tolerance that
// appears in one path must mean the same thing in the others, or the
// differential checks (SetSelfCheck, checkAgainstCold) report divergence
// where there is only disagreement about rounding.
const (
	// eps is the pivot/reduced-cost tolerance: entries whose magnitude is
	// below it are treated as zero when choosing entering columns and ratio
	// rows. Problems in this domain carry small-integer coefficients, so
	// anything under eps is accumulated float noise, not signal.
	eps = 1e-9

	// intTol is the integrality tolerance of branch and bound: a relaxation
	// value within intTol of an integer counts as that integer.
	intTol = 1e-6

	// feasTol is the residual feasibility tolerance: phase 1 declares a
	// problem infeasible when the artificial variables cannot be driven
	// below it, solution extraction clamps basic values in (-feasTol, 0) to
	// zero, and the dual simplex treats a right-hand side above -feasTol as
	// primal feasible. It is looser than eps because a residual is a sum of
	// per-pivot errors, not a single entry.
	feasTol = 1e-7

	// cutoffTol is the strict-domination margin for incumbent cutoffs on
	// the warm path: a dual bound must beat the cutoff by more than
	// cutoffTol before the solve is abandoned as Dominated, so a set tied
	// with the incumbent is still solved exactly.
	cutoffTol = 1e-7

	// agreeTol is the objective agreement tolerance of the differential
	// checks: two float64 solvers that followed different pivot sequences
	// to the same optimum may disagree by accumulated rounding, never by
	// more than this on the problems of this domain.
	agreeTol = 1e-6

	// objRelTol scales the objective tolerance with the objective's
	// magnitude (ObjTol). A float64 objective accumulates rounding in
	// proportion to its size: whetstone's 27,972,760-cycle optimum comes
	// back 6.6e-6 to 8.4e-6 short, depending on the kernel, which is past
	// the absolute agreeTol. At 1e-9 the band there is 0.03 cycles.
	objRelTol = 1e-9

	// presolveTol is the tolerance for treating a substituted coefficient
	// or right-hand side as zero during the structural presolve. Base rows
	// in this domain carry small integers, so anything below it is float
	// noise.
	presolveTol = 1e-7

	// suspectPivotLo / suspectPivotHi bound the pivot magnitudes the solver
	// considers well-conditioned. A pivot outside [lo, hi] divides the
	// tableau by a number small (or large) enough that float64 cancellation
	// can poison every later row update, so such solves are flagged suspect
	// (Stats.SuspectPivots) and, under ipet's Certify mode, re-verified
	// exactly and never cached.
	suspectPivotLo = 1e-7
	suspectPivotHi = 1e7
)

// ObjTol is the tolerance for a float64 objective value near obj:
// agreeTol, or objRelTol of obj's magnitude when that is larger. Two
// solvers' optima that differ by less agree (the SetSelfCheck
// differentials), and an LP optimum rounds to a sound integer bound with
// this margin: floor(obj+ObjTol(obj)) for a maximum, ceil(obj-ObjTol(obj))
// for a minimum.
func ObjTol(obj float64) float64 {
	return math.Max(agreeTol, objRelTol*math.Abs(obj))
}

// tieTol is the reduced-cost tolerance of the warm solver's uniqueness test
// (SetSolution.Unique) at an optimum of value obj: a nonbasic
// column whose reduced cost lies within tieTol of zero could enter the
// basis without changing the objective, so it is treated as tied and the
// optimum is only called unique once the optimal face proves it cannot
// move. Reduced costs are differences of objective coefficients and carry
// the objective's rounding, so the band is scaled like ObjTol. The error it
// allows runs one way: a band too wide sends more optima through the face
// LP and more winners back to a cold re-solve, while a band too narrow
// could call a tied column strictly worse and claim a uniqueness that does
// not hold.
func tieTol(obj float64) float64 { return ObjTol(obj) }

// MaxExactCoeff is the largest integer magnitude float64 represents exactly
// (2^53). Objective coefficients are built by summing int64 per-block costs
// and then solved in float64 arithmetic; a sum beyond this bound would be
// silently rounded, so callers must refuse to build such an objective
// rather than hand the solver a coefficient that is already wrong.
const MaxExactCoeff = int64(1) << 53
