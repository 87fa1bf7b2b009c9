package ilp

import (
	"fmt"
	"math"
	"slices"
)

// WarmStart retains the optimal tableau of a base problem — the shared
// Prefix rows plus an objective, with no set-specific constraints — so that
// the many sibling problems of one analysis direction (one ILP per
// functionality constraint set, all sharing the base) can be re-solved by
// dual simplex from the base basis with only their delta rows attached,
// instead of paying a full two-phase cold solve each.
//
// The retained tableau is read-only after NewWarmStart; SolveSet copies it
// into pooled scratch, so concurrent SolveSet calls on one WarmStart are
// safe.
type WarmStart struct {
	prob       *Problem
	red        *presolved // non-nil when the structural presolve shrank the base
	nTab       int        // variable count of the retained tableau's problem
	sign       float64    // +1 Maximize, -1 Minimize (internal max sense)
	ok         bool
	baseStatus Status
	basePivots int
	baseObj    float64
	baseX      []float64
	base       *scratch     // final tableau, basis, hi, phase-2 reduced costs
	baseCert   *Certificate // base optimal basis, when certifiable (no presolve)
	// baseXIntegral and redFixedIntegral are precomputed so the lean NoX
	// solve path can report integrality without materializing an assignment:
	// the base optimum's integrality, and (under a presolve) whether every
	// fixed variable's reconstructed constant is integral.
	baseXIntegral    bool
	redFixedIntegral bool
}

// WarmOptions tunes NewWarmStartOpts.
type WarmOptions struct {
	// DisablePresolve skips the structural presolve, so the retained
	// tableau works in the original variable space. A certifying caller
	// needs this: certificates name standard-form columns of the original
	// problem, and a presolved tableau's basis does not translate.
	DisablePresolve bool
}

// NewWarmStart solves the base problem once with the cold two-phase
// simplex and retains the optimal tableau. The problem must consist of
// Prefix rows only (no Constraints — those are the per-set deltas). When
// the base is not solvable to optimality (infeasible, unbounded, or
// degenerate with no rows), Ready reports false and every SolveSet call
// asks the caller to fall back to a cold solve.
func NewWarmStart(p *Problem) *WarmStart {
	return NewWarmStartOpts(p, WarmOptions{})
}

// NewWarmStartOpts is NewWarmStart with options.
func NewWarmStartOpts(p *Problem, opts WarmOptions) *WarmStart {
	w := &WarmStart{prob: p, sign: 1, baseStatus: Infeasible}
	if p.Sense == Minimize {
		w.sign = -1
	}
	if len(p.Constraints) != 0 || len(p.Prefix) == 0 {
		return w
	}
	// Structural presolve: substitute away variables the base rows pin down
	// (fixed counts, equal-count pairs, null branches) so the retained
	// tableau — and every per-set dual-simplex re-solve on top of it — works
	// in the smaller space. A presolve-detected contradiction means the base
	// itself is infeasible; leave the warm start not-ready and let the cold
	// path report that per set.
	solveProb := p
	if !opts.DisablePresolve {
		red, infeasible := presolveBase(p)
		if infeasible {
			return w
		}
		if red != nil {
			w.red = red
			solveProb = &Problem{
				Sense:     p.Sense,
				NumVars:   red.nRed,
				Objective: red.obj,
				Prefix:    red.rows,
			}
		}
	}
	w.nTab = solveProb.NumVars
	s := new(scratch) // owned, never pooled: the tableau outlives the call
	status, obj, x, pivots := sparseSimplexOn(solveProb, s)
	w.baseStatus = status
	w.basePivots = pivots
	if status != Optimal {
		return w
	}
	w.ok = true
	w.base = s
	if w.red != nil {
		obj += w.red.objOffset
		x = w.red.reconstruct(x)
	} else if s.m > 0 {
		w.baseCert = &Certificate{Warm: true, Basis: append([]int(nil), s.basis[:s.m]...)}
	}
	w.baseObj = obj
	w.baseX = x
	w.baseXIntegral = isIntegral(x)
	w.redFixedIntegral = true
	if w.red != nil {
		for v, c := range w.red.col {
			if c < 0 && math.Abs(w.red.fixed[v]-math.Round(w.red.fixed[v])) > intTol {
				w.redFixedIntegral = false
				break
			}
		}
	}
	return w
}

// Ready reports whether the base tableau is available for warm solves.
func (w *WarmStart) Ready() bool { return w.ok }

// BaseStatus returns the base solve's status (Optimal when Ready).
func (w *WarmStart) BaseStatus() Status { return w.baseStatus }

// BasePivots returns the pivot count of the one-time base solve.
func (w *WarmStart) BasePivots() int { return w.basePivots }

// BaseObjective returns the base LP relaxation's optimal objective when
// Ready. Because every per-set problem only adds rows to the base, this
// value bounds every set's optimum from above for Maximize (below for
// Minimize) — the envelope an anytime analysis reports for sets it never
// got to solve.
func (w *WarmStart) BaseObjective() (float64, bool) { return w.baseObj, w.ok }

// SolveSet re-solves the base problem with the given delta rows appended,
// by dual simplex from the retained base optimum. It returns the LP
// relaxation's result: the caller handles integrality (the root is
// integral in this domain almost always; a fractional root falls back to
// the cold branch-and-bound path).
//
// When useCutoff is set, cutoff is a bound in the problem's own sense: the
// solve returns Dominated as soon as the (monotonically tightening) dual
// bound proves the optimum is strictly worse than cutoff — below it for
// Maximize, above it for Minimize — without finishing the solve.
//
// The final result ok=false means the warm path gave up (anti-cycling
// iteration cap) and the caller must re-solve cold; the returned pivot
// count is still valid work performed.
func (w *WarmStart) SolveSet(set []Constraint, cutoff float64, useCutoff bool) (status Status, obj float64, x []float64, pivots int, ok bool) {
	r := w.SolveSetOpts(set, SetSolveOptions{Cutoff: cutoff, UseCutoff: useCutoff})
	return r.Status, r.Objective, r.X, r.Pivots, r.OK
}

// SetSolveOptions tunes one warm per-set solve (SolveRows).
type SetSolveOptions struct {
	// Cutoff, with UseCutoff, is an incumbent bound in the problem's own
	// sense; the solve returns Dominated as soon as the dual bound proves
	// the optimum strictly worse.
	Cutoff    float64
	UseCutoff bool
	// WantCert asks for the optimal-basis certificate (SetSolution.Cert).
	WantCert bool
	// NoX skips materializing the optimum assignment: SetSolution.X stays
	// nil and SetSolution.XIntegral still reports whether the assignment
	// would have been integral. Callers that only need the objective (the
	// per-set fan-out of package ipet, which derives only the winner's
	// counts, in a separate finishing solve) save the per-solve vector
	// allocation, under a presolve the reconstruction, and the uniqueness
	// test (SetSolution.Unique) that comes with an assignment.
	NoX bool
}

// SetSolution is the full result of one warm per-set solve.
type SetSolution struct {
	Status    Status
	Objective float64
	// X holds the optimum assignment (length NumVars) when Optimal —
	// unless the solve ran with SetSolveOptions.NoX, which leaves it nil.
	X []float64
	// XIntegral reports whether the optimum assignment is integral within
	// the branch-and-bound tolerance (meaningful when Optimal; valid under
	// NoX even though X itself is not materialized).
	XIntegral bool
	// Unique reports, for an Optimal solve that materialized X, that X is
	// the LP's only optimal point, so every solver must return it. False
	// means it is not, or that the test could not tell; the test never
	// errs the other way within its tolerance (tieTol).
	Unique bool
	// Pivots counts the dual-simplex pivots plus those of the uniqueness
	// test's face LP.
	Pivots int
	// Suspect counts ill-conditioned pivots of this solve.
	Suspect int
	// Cert is the optimal-basis certificate, present when the solve was
	// asked for one, ended Optimal, and the warm start runs without a
	// presolve (a presolved basis names reduced columns and cannot be
	// checked against the original problem).
	Cert *Certificate
	// OK false means the warm path gave up and the caller must solve cold.
	OK bool
}

// SolveSetOpts is SolveSet with the full option set and the full per-solve
// result. It lowers every row of the set for this one solve; callers that
// solve many sets over a shared pool of rows lower each row once with
// LowerRow and call SolveRows.
func (w *WarmStart) SolveSetOpts(set []Constraint, opts SetSolveOptions) SetSolution {
	rows := make([]*WarmRow, len(set))
	for i := range set {
		rows[i] = w.LowerRow(&set[i])
	}
	return w.SolveRows(rows, opts)
}

// WarmRow is one per-set delta constraint lowered into a warm start's
// tableau once, so that every set it belongs to re-uses the work: the row
// is substituted through the structural presolve (when active) into
// column-sorted slices, and eliminated against the base tableau's basic
// columns. Only the right-hand side is finished per solve, against that
// solve's own copy of the base right-hand sides. A WarmRow is read-only
// after LowerRow and may be shared by concurrent SolveRows calls on the
// WarmStart that lowered it.
type WarmRow struct {
	src  Constraint // the row as given, for the self-check replay
	fate rowFate
	// le holds the row in <= orientation (LE rows and the first half of an
	// equality), ge the negated orientation (GE rows and the second half).
	le, ge elimRow
}

// elimRow is one orientation of a delta row after elimination: its
// nonzero coefficients over the base tableau's columns, its initial
// right-hand side, and the base rows eliminated into it with their
// multipliers, in row order. The per-solve right-hand side is rhs minus
// each multiplier times that base row's right-hand side, subtracted in
// order.
type elimRow struct {
	cols   []int32
	vals   []float64
	rhs    float64
	mulRow []int32
	mul    []float64
}

// LowerRow lowers one delta constraint into the tableau's variable space
// (reduced when a presolve is active, original otherwise) and eliminates
// the base's basic columns from it. A row the substitution satisfies
// outright is dropped by SolveRows; a row it contradicts makes any set
// containing it infeasible without touching the tableau.
func (w *WarmStart) LowerRow(c *Constraint) *WarmRow {
	r := &WarmRow{src: *c}
	var (
		cols []int32
		vals []float64
		rhs  float64
	)
	if w.red == nil {
		// The fate counts zero coefficients as present, exactly as the
		// exact checker's DroppedDeltaRow does.
		r.fate = emptyRowFate(len(c.Coeffs), c.Rel, c.RHS)
		cols, vals = sortedCoeffs(c.Coeffs)
		rhs = c.RHS
	} else {
		cols, vals, rhs, r.fate = w.red.lowerDelta(c)
	}
	if r.fate != rowKeep || !w.ok {
		return r
	}
	if c.Rel != GE {
		r.le = w.eliminate(cols, vals, false, rhs)
	}
	if c.Rel != LE {
		r.ge = w.eliminate(cols, vals, true, -rhs)
	}
	return r
}

// sortedCoeffs lists a coefficient map's nonzero entries by column.
func sortedCoeffs(m map[int]float64) ([]int32, []float64) {
	cols := make([]int32, 0, len(m))
	for j, v := range m {
		if v != 0 {
			cols = append(cols, int32(j))
		}
	}
	slices.Sort(cols)
	vals := make([]float64, len(cols))
	for k, j := range cols {
		vals[k] = m[int(j)]
	}
	return cols, vals
}

// eliminate expresses one orientation of a delta row over the base
// tableau's nonbasic columns: in a canonical tableau every basic column is
// a unit vector, so subtracting f times base row i for f the row's entry
// in row i's basic column zeroes that column, and a single pass in row
// order cannot reintroduce an eliminated one.
func (w *WarmStart) eliminate(cols []int32, vals []float64, negate bool, rhs float64) elimRow {
	b := w.base
	s := scratchPool.Get().(*scratch)
	defer scratchPool.Put(s)
	s.ensure(1, b.total)
	r := s.tab[0]
	for k, j := range cols {
		v := vals[k]
		if negate {
			v = -v
		}
		r[j] = v
	}
	e := elimRow{rhs: rhs}
	for i := 0; i < b.m; i++ {
		f := r[b.basis[i]]
		if f == 0 {
			continue
		}
		ri := b.tab[i]
		for j := 0; j <= b.hi[i]; j++ {
			if ri[j] != 0 {
				r[j] -= f * ri[j]
			}
		}
		e.mulRow = append(e.mulRow, int32(i))
		e.mul = append(e.mul, f)
	}
	nnz := 0
	for _, v := range r {
		if v != 0 {
			nnz++
		}
	}
	e.cols = make([]int32, 0, nnz)
	e.vals = make([]float64, 0, nnz)
	for j, v := range r {
		if v != 0 {
			e.cols = append(e.cols, int32(j))
			e.vals = append(e.vals, v)
		}
	}
	return e
}

// SolveRows re-solves the base problem with the given lowered rows
// appended (see SolveSet for the result's meaning). Every row must have
// been lowered by this WarmStart.
func (w *WarmStart) SolveRows(rows []*WarmRow, opts SetSolveOptions) SetSolution {
	if !w.ok {
		return SetSolution{Status: Infeasible}
	}
	var r SetSolution
	k := 0
	infeasible := false
	for _, row := range rows {
		switch row.fate {
		case rowInfeasible:
			infeasible = true
		case rowKeep:
			if row.src.Rel == EQ {
				k += 2
			} else {
				k++
			}
		}
	}
	switch {
	case infeasible:
		// A delta row reduced to a violated constant (e.g. it pins a
		// presolve-fixed variable to a different value): the set is
		// infeasible without touching the tableau.
		r = SetSolution{Status: Infeasible, OK: true}
	case k == 0:
		// Every delta row is implied by the base (or the set was empty):
		// the base optimum answers the set — unless the incumbent cutoff
		// already proves it uninteresting, matching the dual bound check a
		// tableau solve would hit on its first iteration.
		if opts.UseCutoff && w.sign*w.baseObj < w.sign*opts.Cutoff-cutoffTol {
			r = SetSolution{Status: Dominated, OK: true}
		} else {
			r = SetSolution{Status: Optimal, Objective: w.baseObj,
				XIntegral: w.baseXIntegral, OK: true}
			if !opts.NoX {
				r.X = append([]float64(nil), w.baseX...)
				// The set's feasible region is the base's, so its optimum
				// is unique exactly when the base optimum is.
				r.Unique, r.Pivots, r.Suspect = w.baseUnique()
			}
			if opts.WantCert {
				r.Cert = w.baseCert
			}
		}
	default:
		r = w.solveDelta(rows, k, opts)
	}
	if r.OK && selfCheck.Load() {
		set := make([]Constraint, len(rows))
		for i, row := range rows {
			set[i] = row.src
		}
		w.checkAgainstCold(set, &r, opts.Cutoff)
	}
	return r
}

// baseUnique decides whether the base optimum is unique. The shared base
// tableau is never modified: a base with no tied nonbasic column is unique
// by the reduced-cost scan alone, and only a tied one is copied into
// pooled scratch for the face LP.
func (w *WarmStart) baseUnique() (unique bool, pivots, suspect int) {
	b := w.base
	tol := tieTol(w.baseObj)
	if tiedNonbasic(b, b.m, b.total, b.artStart, b.total, tol) == 0 {
		return true, 0, 0
	}
	s := scratchPool.Get().(*scratch)
	defer scratchPool.Put(s)
	m, total := w.loadDelta(s, nil, 0)
	unique, pivots = s.uniqueOptimum(m, total, b.artStart, total, tol)
	return unique, pivots, s.suspect
}

// tiedNonbasic counts the nonbasic columns of s that a uniqueness test must
// rule out: admissible ones (outside the artificial block [artLo, artHi))
// whose reduced cost lies within tol of zero. Every admissible basic
// column is subtracted from the count of admissible tied columns, which
// needs no per-column basis marker.
func tiedNonbasic(s *scratch, m, total, artLo, artHi int, tol float64) int {
	n := 0
	for j := 0; j < total; j++ {
		if (j < artLo || j >= artHi) && s.rc[j] >= -tol {
			n++
		}
	}
	for _, j := range s.basis[:m] {
		if (j < artLo || j >= artHi) && s.rc[j] >= -tol {
			n--
		}
	}
	return n
}

// uniqueOptimum decides whether the optimal basic solution held in s (m
// rows, total columns before the rhs, reduced costs s.rc <= 0 on admissible
// columns in the internal max sense) is the LP's only optimum, and returns
// the face-LP pivots spent deciding. Columns in [artLo, artHi) are
// artificial and stay at zero.
//
// At an optimum z* + sum(rc_j x_j) is the objective, so the optimal face
// is the feasible region with every nonbasic column of nonzero reduced
// cost fixed at zero. A point of that face is determined by its nonbasic
// values, so the optimum is unique exactly when the remaining (tied)
// nonbasic columns must all stay at zero on the face: when the maximum of
// their sum over the face is zero. That is one primal simplex from the
// final basis under Bland's rule, with the tied columns' sum as objective
// and the nonzero-reduced-cost columns barred from entering. Degenerate
// pivots leave the point where it is; any positive step or ray moves to
// another optimum (not unique), and so does giving up at the iteration
// cap or at an ill-conditioned pivot. The pivots destroy the tableau, so
// the caller reads the solution off it first.
func (s *scratch) uniqueOptimum(m, total, artLo, artHi int, tol float64) (unique bool, pivots int) {
	rc := s.rc
	movable := func(j int) bool { return (j < artLo || j >= artHi) && rc[j] >= -tol }
	if tiedNonbasic(s, m, total, artLo, artHi, tol) == 0 {
		return true, 0
	}
	// fr is the face LP's reduced-cost row. Every basic column has a zero
	// face cost, so before the first pivot fr is the face objective itself:
	// 1 on the tied nonbasic columns, 0 elsewhere.
	fr := s.obj
	for j := 0; j < total; j++ {
		fr[j] = 0
		if movable(j) {
			fr[j] = 1
		}
	}
	for _, j := range s.basis[:m] {
		fr[j] = 0
	}
	fr[total] = 0
	suspect0 := s.suspect
	limit := 50 * (m + total + 10)
	for iter := 0; iter < limit; iter++ {
		ec := -1
		for j := 0; j < total; j++ {
			if fr[j] > eps && movable(j) {
				ec = j
				break
			}
		}
		if ec < 0 {
			return true, pivots // the tied columns' sum cannot leave zero
		}
		// The step along column ec is zero only if a row that bounds it
		// has a zero (degenerate) basic value; among those, Bland's rule
		// picks the smallest basic column to leave.
		lr := -1
		bounded := false
		for i := 0; i < m; i++ {
			if s.tab[i][ec] <= eps {
				continue
			}
			bounded = true
			if s.tab[i][total] <= eps && (lr < 0 || s.basis[i] < s.basis[lr]) {
				lr = i
			}
		}
		if !bounded || lr < 0 {
			return false, pivots // a ray or a positive step: another optimum
		}
		s.pivot(lr, ec, total)
		pivots++
		if s.suspect != suspect0 {
			return false, pivots
		}
		if f := fr[ec]; f != 0 {
			pr := s.tab[lr]
			for _, j := range s.cols {
				fr[j] -= f * pr[j]
			}
			fr[ec] = 0
			fr[total] -= f * pr[total]
		}
	}
	return false, pivots
}

// solveDelta appends the k slack-carried rows of the kept delta rows to a
// copy of the base tableau and restores primal feasibility by dual simplex.
func (w *WarmStart) solveDelta(rows []*WarmRow, k int, opts SetSolveOptions) SetSolution {
	s := scratchPool.Get().(*scratch)
	defer scratchPool.Put(s)
	return w.solveDeltaOn(s, rows, k, opts)
}

// solveDeltaOn is solveDelta in the caller's scratch, whatever an earlier
// solve left in it.
func (w *WarmStart) solveDeltaOn(s *scratch, rows []*WarmRow, k int, opts SetSolveOptions) SetSolution {
	b := w.base
	total0 := b.total
	m, total := w.loadDelta(s, rows, k)
	rc := s.rc

	// Dual simplex: the basis stays dual feasible (rc <= 0 over admissible
	// columns); drive the negative right-hand sides out. Base artificial
	// columns must never re-enter; the fresh slacks may.
	admissible := func(j int) bool { return j < b.artStart || j >= total0 }
	// The tableau's dual bound -rc[total] tracks the reduced objective when
	// a presolve is active; shift the caller's full-space cutoff by the
	// fixed-variable contribution before comparing.
	var off float64
	if w.red != nil {
		off = w.red.objOffset
	}
	internalCutoff := w.sign * (opts.Cutoff - off)
	pivots := 0
	blandAfter := 50 * (m + total + 10)
	hardCap := 10 * blandAfter
	for iter := 0; ; iter++ {
		// The dual bound -rc[total] tightens monotonically toward the
		// optimum; once it proves the set strictly worse than the caller's
		// incumbent, the exact value no longer matters.
		if opts.UseCutoff && -rc[total] < internalCutoff-cutoffTol {
			return SetSolution{Status: Dominated, Pivots: pivots, Suspect: s.suspect, OK: true}
		}
		if iter > hardCap {
			// Give up; cold fallback. The pivot count is still valid work.
			return SetSolution{Status: Infeasible, Pivots: pivots, Suspect: s.suspect}
		}
		useBland := iter > blandAfter
		lr := -1
		worst := -feasTol
		for i := 0; i < m; i++ {
			if v := s.tab[i][total]; v < worst {
				lr = i
				if useBland {
					break
				}
				worst = v
			}
		}
		if lr < 0 {
			break // primal feasible again: optimal
		}
		pr := s.tab[lr]
		ec := -1
		bestRatio := math.Inf(1)
		for j := 0; j < total; j++ {
			a := pr[j]
			if a < -eps && admissible(j) {
				ratio := rc[j] / a // >= 0: rc <= 0, a < 0
				if ec < 0 || ratio < bestRatio-eps {
					bestRatio = ratio
					ec = j
					if useBland && ratio <= eps {
						break
					}
				}
			}
		}
		if ec < 0 {
			// The row reads sum(nonneg terms) <= negative: infeasible.
			return SetSolution{Status: Infeasible, Pivots: pivots, Suspect: s.suspect, OK: true}
		}
		s.pivot(lr, ec, total)
		pivots++
		if f := rc[ec]; f != 0 {
			npr := s.tab[lr]
			for _, j := range s.cols {
				rc[j] -= f * npr[j]
			}
			rc[ec] = 0
			rc[total] -= f * npr[total]
		}
	}

	var r SetSolution
	if opts.NoX {
		// Lean extraction: the assignment is zero off the basis, so its
		// objective and integrality read straight off the basic rows (plus,
		// under a presolve, the precomputed fixed-variable constants) with
		// no vector materialized and nothing reconstructed.
		objMap := w.prob.Objective
		integral := true
		if w.red != nil {
			objMap = w.red.obj
			integral = w.redFixedIntegral
		}
		obj := 0.0
		for i := 0; i < m; i++ {
			if bc := s.basis[i]; bc < w.nTab {
				v := s.tab[i][total]
				if v < 0 && v > -feasTol {
					v = 0
				}
				if math.Abs(v-math.Round(v)) > intTol {
					integral = false
				}
				if c := objMap[bc]; c != 0 && v != 0 {
					obj += c * v
				}
			}
		}
		if w.red != nil {
			obj += w.red.objOffset
		}
		r = SetSolution{Status: Optimal, Objective: obj, XIntegral: integral,
			Pivots: pivots, Suspect: s.suspect, OK: true}
	} else {
		// Under a presolve the reduced assignment is staged in scratch, so
		// the reconstructed vector is the only allocation.
		var x []float64
		if w.red != nil {
			x = s.obj[:w.nTab]
			clear(x)
		} else {
			x = make([]float64, w.nTab)
		}
		for i := 0; i < m; i++ {
			if bc := s.basis[i]; bc < w.nTab {
				v := s.tab[i][total]
				if v < 0 && v > -feasTol {
					v = 0
				}
				x[bc] = v
			}
		}
		if w.red != nil {
			x = w.red.reconstruct(x)
		}
		obj := 0.0
		for j, v := range w.prob.Objective {
			obj += v * x[j]
		}
		r = SetSolution{Status: Optimal, Objective: obj, X: x, XIntegral: isIntegral(x),
			Pivots: pivots, Suspect: s.suspect, OK: true}
	}
	if opts.WantCert && w.red == nil {
		r.Cert = &Certificate{Warm: true, Basis: append([]int(nil), s.basis[:m]...)}
	}
	if !opts.NoX {
		// Under a presolve the test runs in the reduced space. That is
		// enough: presolve only fixes variables or sets them equal to a
		// reduced column, and drops rows the rest imply, so every original
		// optimum is the image of a reduced one under an injective map.
		var fp int
		r.Unique, fp = s.uniqueOptimum(m, total, b.artStart, total0, tieTol(r.Objective))
		r.Pivots += fp
		r.Suspect = s.suspect
	}
	return r
}

// loadDelta fills s with a copy of the base tableau and the kept delta
// rows appended (k tableau rows in all), and returns the row count and the
// column count before the rhs. Every delta row is in <= form and carried by
// one fresh slack column; an equality contributes a <= and a >= (negated
// <=) pair.
func (w *WarmStart) loadDelta(s *scratch, rows []*WarmRow, k int) (m, total int) {
	b := w.base
	m0, total0 := b.m, b.total
	m, total = m0+k, total0+k
	// Every entry of every row is written below, base rows by the copy and
	// the rest by clears, so the pooled rows are not zeroed up front:
	// zeroing them all first cost as much as the copy itself.
	s.resize(m, total+1)
	s.suspect = 0

	// Copy the base tableau, shifting the rhs right past the new slack
	// columns, which are zero in the base rows.
	for i := 0; i < m0; i++ {
		src, dst := b.tab[i], s.tab[i]
		copy(dst[:total0], src[:total0])
		clear(dst[total0:total])
		dst[total] = injectFault(FaultWarmBase, src[total0])
		s.basis[i] = b.basis[i]
		s.hi[i] = b.hi[i]
	}
	for i := m0; i < m; i++ {
		clear(s.tab[i])
	}
	rc := s.rc
	copy(rc[:total0], b.rc[:total0])
	for j := total0; j < total; j++ {
		rc[j] = 0
	}
	rc[total] = b.rc[total0] // -z of the base optimum

	// Append the pre-eliminated delta rows, each with its own (basic)
	// slack; only the right-hand side is reduced here, against this
	// solve's copy of the base right-hand sides.
	row, slack := m0, total0
	appendLE := func(e *elimRow) {
		r := s.tab[row]
		for k, j := range e.cols {
			r[j] = e.vals[k]
		}
		rhs := e.rhs
		for k, i := range e.mulRow {
			rhs -= e.mul[k] * s.tab[i][total]
		}
		r[total] = rhs
		r[slack] = 1
		s.basis[row] = slack
		s.hi[row] = slack
		row++
		slack++
	}
	for _, c := range rows {
		if c.fate != rowKeep {
			continue
		}
		if c.src.Rel != GE {
			appendLE(&c.le)
		}
		if c.src.Rel != LE {
			appendLE(&c.ge)
		}
	}
	return m, total
}

// checkAgainstCold is the SetSelfCheck differential for the warm path: the
// same base + delta problem is re-solved through the cold production
// simplex (itself checked against the dense oracle when enabled) and the
// outcomes must agree. A claim of a unique optimum must also agree on the
// point: no other solver may find a different optimal assignment.
func (w *WarmStart) checkAgainstCold(set []Constraint, r *SetSolution, cutoff float64) {
	cold := &Problem{
		Sense:       w.prob.Sense,
		NumVars:     w.prob.NumVars,
		Objective:   w.prob.Objective,
		Prefix:      w.prob.Prefix,
		Constraints: set,
	}
	cStatus, cObj, cX, _ := simplex(cold)
	switch r.Status {
	case Optimal:
		if cStatus != Optimal || math.Abs(cObj-r.Objective) > ObjTol(cObj) {
			panic(fmt.Sprintf("ilp: warm/cold divergence: warm optimal %.9g, cold %v %.9g on\n%s",
				r.Objective, cStatus, cObj, unpackProblem(cold)))
		}
		if r.Unique && r.X != nil {
			for j, v := range cX {
				if math.Abs(v-r.X[j]) > intTol {
					panic(fmt.Sprintf("ilp: warm/cold divergence: warm claims a unique optimum %v, cold found %v on\n%s",
						r.X, cX, unpackProblem(cold)))
				}
			}
		}
	case Infeasible:
		if cStatus != Infeasible {
			panic(fmt.Sprintf("ilp: warm/cold divergence: warm infeasible, cold %v %.9g on\n%s",
				cStatus, cObj, unpackProblem(cold)))
		}
	case Dominated:
		// Domination claims the optimum is strictly worse than the cutoff;
		// an infeasible set is vacuously dominated.
		if cStatus == Optimal && !(w.sign*cObj < w.sign*cutoff+ObjTol(cutoff)) {
			panic(fmt.Sprintf("ilp: warm/cold divergence: warm dominated under cutoff %.9g (%v), cold optimal %.9g on\n%s",
				cutoff, w.prob.Sense, cObj, unpackProblem(cold)))
		}
	}
}

// IsIntegral reports whether every entry of x is integral within the
// branch-and-bound tolerance — exported so callers consuming a warm LP
// solve can decide whether it already answers the integer problem.
func IsIntegral(x []float64) bool { return isIntegral(x) }
