// Package ilp is a pure-Go integer linear programming solver: a two-phase
// dense-tableau primal simplex with a branch-and-bound layer.
//
// The paper solves its path-analysis problems with a branch-and-bound ILP
// package and reports that "in practice ... the first call to the linear
// program package resulted in an integer valued solution" because the
// structural constraints form a network-flow matrix (Section III.D). This
// solver records per-solve statistics (LP calls, branches, whether the root
// relaxation was integral) precisely so that observation can be reproduced
// as experiment E-S1.
//
// All variables are constrained to x >= 0. Problems are expressed with
// sparse coefficient maps; sizes in this domain are tiny (tens of variables)
// so the simplex works on a dense tableau.
package ilp

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"
)

// revisedOff disables the revised kernel; the zero value leaves it on.
var revisedOff atomic.Bool

// SetKernels toggles the revised factored-basis simplex kernel globally;
// disabled, every solve runs on the retained full-tableau kernel. Routing
// never changes a bound or a status — both kernels are differential-checked
// against the same oracles — but where an optimum is not unique, kernels
// may return different optimal points. The toggle exists for isolating a
// kernel under test.
func SetKernels(revised bool) { revisedOff.Store(!revised) }

// Sense selects optimization direction.
type Sense int

const (
	Maximize Sense = iota
	Minimize
)

func (s Sense) String() string {
	if s == Minimize {
		return "min"
	}
	return "max"
}

// Relation is a constraint comparator.
type Relation int

const (
	LE Relation = iota // <=
	GE                 // >=
	EQ                 // ==
)

func (r Relation) String() string {
	switch r {
	case LE:
		return "<="
	case GE:
		return ">="
	}
	return "="
}

// Constraint is sum(Coeffs[i] * x_i) Rel RHS.
type Constraint struct {
	Coeffs map[int]float64
	Rel    Relation
	RHS    float64
	// Name is an optional diagnostic tag (e.g. "x3 = d3 + d5").
	Name string
}

// Problem is an (integer) linear program over variables x_0..x_{NumVars-1},
// all implicitly >= 0.
type Problem struct {
	Sense     Sense
	NumVars   int
	Objective map[int]float64
	// Prefix holds constraint rows pre-lowered with Pack, logically
	// preceding Constraints. Callers solving many problems that share a
	// common row prefix (one ILP per functionality constraint set) pack
	// the shared rows once and attach them here; the rows are read-only
	// and safe to share across concurrent Solves.
	Prefix      []PackedRow
	Constraints []Constraint
	// Integer requires an all-integer solution (branch and bound).
	Integer bool
}

// Status reports the outcome of a solve.
type Status int

const (
	Optimal Status = iota
	Infeasible
	Unbounded
	// Dominated reports a solve abandoned under a cutoff (SolveOptions or
	// SetSolveOptions): the LP relaxation proved the optimum is strictly
	// worse than the caller's incumbent, so the exact value was never
	// computed. Only produced when a cutoff was supplied.
	Dominated
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case Dominated:
		return "dominated"
	}
	return "unknown"
}

// Stats describes the work a solve performed.
type Stats struct {
	// LPSolves counts simplex invocations (1 when the root relaxation
	// already yields the answer).
	LPSolves int
	// Branches counts branch-and-bound nodes explored beyond the root.
	Branches int
	// RootIntegral reports that the first LP relaxation was integral —
	// the paper's key practical observation.
	RootIntegral bool
	// Pivots counts simplex pivot operations across all LP solves,
	// whichever kernel performed them (tableau or revised).
	Pivots int
	// SuspectPivots counts pivots whose element fell outside the
	// well-conditioned magnitude range (see suspectPivotLo/Hi): the float64
	// result may be poisoned by cancellation and deserves exact
	// re-verification.
	SuspectPivots int
	// RevisedPivots counts the subset of Pivots performed by the revised
	// (factored-basis) simplex kernel.
	RevisedPivots int
	// Refactorizations counts basis refactorizations of the revised
	// kernel (its eta file rebuilt from scratch to shed drift and length).
	Refactorizations int
}

// Solution is the result of Solve.
type Solution struct {
	Status    Status
	Objective float64
	// Values holds the optimum assignment (length NumVars).
	Values []float64
	Stats  Stats
	// Cert is the optimal-basis certificate of the root relaxation,
	// present only when the solve was asked for one (SolveOptions.WantCert),
	// ended Optimal, and the answer came straight from the root LP (an
	// integer optimum found by branching has no single-basis certificate).
	Cert *Certificate
}

// Validate performs structural sanity checks on the problem. A problem
// with NumVars <= 0 is rejected outright — there is nothing to optimize —
// so Solve reports a distinct error for it rather than a degenerate
// Optimal 0 solution (an empty constraint list with NumVars > 0 is legal:
// the feasible region is the nonnegative orthant and the solve reports
// Unbounded or Optimal at the origin accordingly).
func (p *Problem) Validate() error {
	if p.NumVars <= 0 {
		return fmt.Errorf("ilp: problem has no variables")
	}
	// where names the checked row; it is only formatted on failure.
	check := func(m map[int]float64, where func() string) error {
		for i, v := range m {
			if i < 0 || i >= p.NumVars {
				return fmt.Errorf("ilp: %s references variable %d (have %d)", where(), i, p.NumVars)
			}
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("ilp: %s has non-finite coefficient for x%d", where(), i)
			}
		}
		return nil
	}
	if err := check(p.Objective, func() string { return "objective" }); err != nil {
		return err
	}
	for ri, r := range p.Prefix {
		if len(r.Cols) != len(r.Vals) {
			return fmt.Errorf("ilp: packed row %d has %d columns but %d values", ri, len(r.Cols), len(r.Vals))
		}
		for k, col := range r.Cols {
			if col < 0 || int(col) >= p.NumVars {
				return fmt.Errorf("ilp: packed row %d references variable %d (have %d)", ri, col, p.NumVars)
			}
			if math.IsNaN(r.Vals[k]) || math.IsInf(r.Vals[k], 0) {
				return fmt.Errorf("ilp: packed row %d has non-finite coefficient for x%d", ri, col)
			}
		}
		if math.IsNaN(r.RHS) || math.IsInf(r.RHS, 0) {
			return fmt.Errorf("ilp: packed row %d has non-finite rhs", ri)
		}
	}
	for ci := range p.Constraints {
		c := &p.Constraints[ci]
		where := func() string {
			if c.Name != "" {
				return c.Name
			}
			return fmt.Sprintf("constraint %d", ci)
		}
		if err := check(c.Coeffs, where); err != nil {
			return err
		}
		if math.IsNaN(c.RHS) || math.IsInf(c.RHS, 0) {
			return fmt.Errorf("ilp: %s has non-finite rhs", where())
		}
	}
	return nil
}

// String renders the problem in LP-file-like form for debugging.
func (p *Problem) String() string {
	s := fmt.Sprintf("%s ", p.Sense)
	s += renderLinear(p.Objective) + "\ns.t.\n"
	for _, r := range p.Prefix {
		c := r.unpack()
		s += "  " + renderLinear(c.Coeffs) + " " + c.Rel.String() + " " + trimFloat(c.RHS) + "\n"
	}
	for _, c := range p.Constraints {
		s += "  " + renderLinear(c.Coeffs) + " " + c.Rel.String() + " " + trimFloat(c.RHS)
		if c.Name != "" {
			s += "   ; " + c.Name
		}
		s += "\n"
	}
	return s
}

func renderLinear(m map[int]float64) string {
	idxs := make([]int, 0, len(m))
	for i := range m {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	s := ""
	for n, i := range idxs {
		coef := m[i]
		if n > 0 {
			if coef >= 0 {
				s += " + "
			} else {
				s += " - "
				coef = -coef
			}
		} else if coef < 0 {
			s += "-"
			coef = -coef
		}
		if coef != 1 {
			s += trimFloat(coef) + " "
		}
		s += fmt.Sprintf("x%d", i)
	}
	if s == "" {
		return "0"
	}
	return s
}

func trimFloat(f float64) string {
	if f == math.Trunc(f) && math.Abs(f) < 1e15 {
		return fmt.Sprintf("%d", int64(f))
	}
	return fmt.Sprintf("%g", f)
}
