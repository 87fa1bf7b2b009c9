package ilp

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
)

// The constraint rows of this domain are network-flow sparse: a block
// equation touches the block variable and its few incident edges, a loop
// bound touches the entry and back edges, so almost every tableau column is
// zero in almost every row. The production simplex below exploits that: it
// builds rows directly from the sparse coefficient form (skipping zeros),
// keeps a per-row upper bound on the last nonzero column so inner loops
// never walk the untouched tail of the tableau, updates rows during a pivot
// only at the pivot row's nonzero columns, and draws all of its working
// memory (tableau rows, reduced costs, basis, objectives) from a sync.Pool
// arena so the branch-and-bound re-solves and the per-set parallel fan-out
// of package ipet stop hammering the allocator.
//
// The original dense implementation is retained in simplex.go as
// denseSimplex, the differential oracle: both perform mathematically
// identical pivots (the sparse inner loops skip only coefficients that are
// exactly zero), and SetSelfCheck can force every production solve to be
// verified against it.

// scratch is the pooled working memory of one simplex call. After a
// successful solve through sparseSimplexOn it also records the tableau
// layout (m, total, artStart), so a caller that owns the scratch (the
// warm-start layer) can keep the final basis/tableau/reduced costs and
// restart a dual simplex from them.
type scratch struct {
	tab   [][]float64
	basis []int
	hi    []int // hi[i] bounds the last nonzero column of row i (rhs excluded)
	rc    []float64
	obj   []float64
	cols  []int // nonzero columns of the current pivot row

	// Layout of the most recent solve: row count, column count before the
	// rhs (real + slack + artificial), and the first artificial column
	// (phase 2 and any warm restart must never let artificials re-enter).
	m, total, artStart int

	// suspect counts ill-conditioned pivots of the current solve: pivot
	// elements whose magnitude fell outside [suspectPivotLo, suspectPivotHi],
	// after which float64 row updates can no longer be trusted blindly.
	suspect int
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// ensure sizes the arena to m zeroed tableau rows of the given width with
// the side arrays sized to match.
func (s *scratch) ensure(m, width int) {
	s.resize(m, width)
	for _, r := range s.tab {
		clear(r)
	}
}

// resize is ensure without the zeroing: reused rows keep whatever an
// earlier solve left in them, so the caller must write every tableau entry
// it will read.
func (s *scratch) resize(m, width int) {
	if cap(s.tab) < m {
		s.tab = append(s.tab[:cap(s.tab)], make([][]float64, m-cap(s.tab))...)
	}
	s.tab = s.tab[:m]
	for i := range s.tab {
		if cap(s.tab[i]) < width {
			s.tab[i] = make([]float64, width)
		} else {
			s.tab[i] = s.tab[i][:width]
		}
	}
	if cap(s.basis) < m {
		s.basis = make([]int, m)
		s.hi = make([]int, m)
	}
	s.basis = s.basis[:m]
	s.hi = s.hi[:m]
	if cap(s.rc) < width {
		s.rc = make([]float64, width)
		s.obj = make([]float64, width)
	}
	s.rc = s.rc[:width]
	s.obj = s.obj[:width]
}

// selfCheck, when enabled via SetSelfCheck, verifies every sparse solve
// against the dense oracle.
var selfCheck atomic.Bool

// SetSelfCheck toggles differential verification: with it on, every
// simplex solve is re-run through the retained dense-tableau oracle and
// the two must agree on status and objective (within ObjTol), panicking
// otherwise. Intended for tests; the dense re-solve roughly doubles the
// cost of every LP.
func SetSelfCheck(on bool) { selfCheck.Store(on) }

// simplex solves the LP relaxation of p (ignoring Integer): it lowers
// Prefix and Constraints into the pooled sparse-aware tableau and runs the
// two-phase primal simplex. Degenerate inputs get a defined treatment
// rather than a silent Optimal 0: with no constraint rows at all the
// origin is the unique basic point, so the result is Unbounded when the
// objective improves off the origin and Optimal at x = 0 otherwise; a
// problem with NumVars == 0 never reaches here through Solve (Validate
// rejects it) but a direct call gets the same origin treatment over an
// empty solution vector, with infeasible constant rows (e.g. 0 >= 5)
// reported as Infeasible by phase 1.
func simplex(p *Problem) (Status, float64, []float64, int) {
	r := simplexFull(p, false)
	return r.status, r.obj, r.x, r.pivots
}

// lpResult is one simplex call's outcome plus the certification metadata
// (suspect-pivot count, optimal-basis certificate) and the kernel
// accounting (which kernel answered, its revised-pivot and refactorization
// counts) the plain 4-tuple signature of simplex cannot carry.
type lpResult struct {
	status  Status
	obj     float64
	x       []float64
	pivots  int
	suspect int
	cert    *Certificate

	// network marks a solve answered by the min-cost-flow kernel;
	// revisedPivots/refactors count the revised kernel's work. Both feed
	// Stats.NetworkSolves / Stats.RevisedPivots / Stats.Refactorizations.
	network       bool
	revisedPivots int
	refactors     int
}

// simplexFull is simplex with certification metadata: it routes the solve
// to the cheapest sound kernel (see routeSimplex) and additionally reports
// the solve's suspect-pivot count and, when wantCert is set and the solve
// ended Optimal on a nonempty row set, an optimality certificate for exact
// re-verification.
func simplexFull(p *Problem, wantCert bool) lpResult {
	r := routeSimplex(p, wantCert)
	if selfCheck.Load() {
		dStatus, dObj, _, _ := denseSimplex(unpackProblem(p))
		if dStatus != r.status || (r.status == Optimal && math.Abs(dObj-r.obj) > ObjTol(dObj)) {
			panic(fmt.Sprintf("ilp: kernel/dense divergence: kernel %v %.9g, dense %v %.9g on\n%s",
				r.status, r.obj, dStatus, dObj, unpackProblem(p)))
		}
	}
	return r
}

// routeSimplex picks the cheapest sound kernel for one LP solve:
//
//   - the network fast path, when the rows convert exactly to a
//     min-cost-flow instance (integer arithmetic, certificates for free);
//   - the revised simplex, whose factored-basis pivots touch O(nnz)
//     entries instead of a full tableau row set;
//   - the retained full-tableau kernel, the fallback that accepts
//     everything.
//
// A kernel that declines (inexpressible rows, a singular refactorization,
// an iteration cap) falls through to the next, so routing can never change
// an answer — only the work done to reach it. With a fault injector
// installed everything runs on the tableau kernel: the documented fault
// sites are tableau computations, and the certification tests that inject
// them must keep faulting the solver that actually answers.
func routeSimplex(p *Problem, wantCert bool) lpResult {
	if len(p.Prefix)+len(p.Constraints) > 0 && faultInjector.Load() == nil {
		off := kernelsOff.Load()
		if off&kernelNetwork == 0 {
			if r, ok := networkSolve(p, wantCert); ok {
				return r
			}
		}
		if off&kernelRevised == 0 {
			if r, ok := revisedSimplex(p, wantCert); ok {
				return r
			}
		}
	}
	return tableauSimplex(p, wantCert)
}

// tableauSimplex is the retained full-tableau kernel behind the pooled
// scratch arena.
func tableauSimplex(p *Problem, wantCert bool) lpResult {
	s := scratchPool.Get().(*scratch)
	defer scratchPool.Put(s)
	status, obj, x, pivots := sparseSimplexOn(p, s)
	r := lpResult{status: status, obj: obj, x: x, pivots: pivots, suspect: s.suspect}
	if wantCert && status == Optimal && s.m > 0 {
		r.cert = &Certificate{Basis: append([]int(nil), s.basis[:s.m]...)}
	}
	return r
}

func sparseSimplex(p *Problem) (Status, float64, []float64, int) {
	s := scratchPool.Get().(*scratch)
	defer scratchPool.Put(s)
	return sparseSimplexOn(p, s)
}

// sparseSimplexOn runs the two-phase primal simplex in the caller's
// scratch. On an Optimal return the scratch holds the final tableau, basis,
// per-row nonzero bounds, the phase-2 reduced-cost row (rc[total] = -z in
// the internal maximization sense), and the recorded layout — everything a
// warm restart needs.
func sparseSimplexOn(p *Problem, s *scratch) (Status, float64, []float64, int) {
	n := p.NumVars
	mPre := len(p.Prefix)
	m := mPre + len(p.Constraints)
	s.m, s.suspect = 0, 0 // no layout recorded yet for this solve

	sign := 1.0
	if p.Sense == Minimize {
		sign = -1
	}

	// No rows: the origin is the only basic feasible point.
	if m == 0 {
		for j, v := range p.Objective {
			if j < n && sign*v > eps {
				return Unbounded, 0, nil, 0
			}
		}
		return Optimal, 0, make([]float64, n), 0
	}

	// Pass 1: count auxiliary columns from the normalized relations.
	numSlack, numArt := 0, 0
	countRel := func(rel Relation) {
		switch rel {
		case LE:
			numSlack++
		case GE:
			numSlack++
			numArt++
		case EQ:
			numArt++
		}
	}
	for i := range p.Prefix {
		countRel(p.Prefix[i].Rel)
	}
	for i := range p.Constraints {
		rel := p.Constraints[i].Rel
		if p.Constraints[i].RHS < 0 {
			switch rel {
			case LE:
				rel = GE
			case GE:
				rel = LE
			}
		}
		countRel(rel)
	}

	total := n + numSlack + numArt
	width := total + 1 // + rhs column
	s.ensure(m, width)
	s.m, s.total, s.artStart = m, total, n+numSlack
	tab, basis, hi := s.tab, s.basis, s.hi

	// Pass 2: build the rows sparsely, tracking each row's nonzero bound.
	slackCol := n
	artCol := n + numSlack
	artStart := artCol
	for i := 0; i < m; i++ {
		r := tab[i]
		var rel Relation
		var rhs float64
		top := 0
		if i < mPre {
			pr := &p.Prefix[i]
			for k, col := range pr.Cols {
				r[col] = pr.Vals[k]
			}
			if len(pr.Cols) > 0 {
				top = int(pr.Cols[len(pr.Cols)-1])
			}
			rel, rhs = pr.Rel, pr.RHS
		} else {
			c := &p.Constraints[i-mPre]
			rel, rhs = c.Rel, c.RHS
			neg := rhs < 0
			if neg {
				rhs = -rhs
				switch rel {
				case LE:
					rel = GE
				case GE:
					rel = LE
				}
			}
			for j, v := range c.Coeffs {
				if v == 0 {
					continue
				}
				if neg {
					v = -v
				}
				r[j] = v
				if j > top {
					top = j
				}
			}
		}
		r[total] = rhs
		switch rel {
		case LE:
			r[slackCol] = 1
			basis[i] = slackCol
			top = slackCol
			slackCol++
		case GE:
			r[slackCol] = -1
			slackCol++
			r[artCol] = 1
			basis[i] = artCol
			top = artCol
			artCol++
		case EQ:
			r[artCol] = 1
			basis[i] = artCol
			top = artCol
			artCol++
		}
		hi[i] = top
	}

	pivots := 0
	pivot := func(row, col int) {
		pivots++
		s.pivot(row, col, total)
	}

	// optimize runs primal simplex on the given objective coefficients
	// (maximization). allowed limits the entering columns. Returns false if
	// unbounded. The reduced-cost row is maintained incrementally against
	// the pivot row's nonzero columns.
	rc := s.rc
	optimize := func(obj []float64, allowed int) bool {
		// Price out the current basis: rc[j] = c_j - sum_i c_B(i)*tab[i][j].
		copy(rc, obj)
		for i, b := range basis {
			cb := obj[b]
			if cb == 0 {
				continue
			}
			ri := tab[i]
			for j := 0; j <= hi[i]; j++ {
				if v := ri[j]; v != 0 {
					rc[j] -= cb * v
				}
			}
			rc[total] -= cb * ri[total]
		}
		iter := 0
		blandAfter := 50 * (m + total + 10)
		// Bland's rule guarantees termination only under exact pivoting; a
		// corrupted tableau (an injected fault, or float64 gone genuinely
		// bad) could cycle forever, so give up after a generous hard cap.
		// Reporting unbounded is the conservative surrender: it never
		// certifies, so a certifying caller re-solves exactly.
		hardCap := 10 * blandAfter
		for {
			iter++
			if iter > hardCap {
				return false
			}
			useBland := iter > blandAfter
			bestCol := -1
			bestVal := eps
			for j := 0; j < allowed; j++ {
				if rc[j] > eps {
					if useBland {
						bestCol = j
						break
					}
					if rc[j] > bestVal {
						bestVal = rc[j]
						bestCol = j
					}
				}
			}
			if bestCol < 0 {
				return true // optimal
			}
			// Ratio test.
			bestRow := -1
			bestRatio := math.Inf(1)
			for i := range tab {
				a := tab[i][bestCol]
				if a > eps {
					ratio := tab[i][total] / a
					if ratio < bestRatio-eps ||
						(math.Abs(ratio-bestRatio) <= eps && (bestRow < 0 || basis[i] < basis[bestRow])) {
						bestRatio = ratio
						bestRow = i
					}
				}
			}
			if bestRow < 0 {
				return false // unbounded
			}
			pivot(bestRow, bestCol)
			// Update the reduced-cost row against the (normalized) pivot
			// row, touching only its nonzero columns.
			f := rc[bestCol]
			if f != 0 {
				pr := tab[bestRow]
				for _, j := range s.cols {
					rc[j] -= f * pr[j]
				}
				rc[bestCol] = 0
				rc[total] -= f * pr[total]
			}
		}
	}

	// Phase 1: maximize -(sum of artificials).
	if numArt > 0 {
		obj1 := s.obj
		clear(obj1)
		for j := artStart; j < total; j++ {
			obj1[j] = -1
		}
		if !optimize(obj1, total) {
			// Phase 1 cannot be unbounded (objective bounded by 0), but
			// guard anyway.
			return Infeasible, 0, nil, pivots
		}
		sumArt := 0.0
		for i, b := range basis {
			if b >= artStart {
				sumArt += tab[i][total]
			}
		}
		if sumArt > feasTol {
			return Infeasible, 0, nil, pivots
		}
		// Drive remaining artificials out of the basis where possible.
		for i, b := range basis {
			if b < artStart {
				continue
			}
			done := false
			stop := artStart
			if hi[i]+1 < stop {
				stop = hi[i] + 1
			}
			for j := 0; j < stop && !done; j++ {
				if math.Abs(tab[i][j]) > eps {
					pivot(i, j)
					done = true
				}
			}
			// If the row is all zeros over real columns it is redundant;
			// the artificial stays basic at value 0, which is harmless as
			// long as phase 2 never lets it re-enter (allowed=artStart).
		}
	}

	// Phase 2: original objective over real + slack columns only.
	obj2 := s.obj
	clear(obj2)
	for j, v := range p.Objective {
		obj2[j] = injectFault(FaultObjective, sign*v)
	}
	if !optimize(obj2, artStart) {
		return Unbounded, 0, nil, pivots
	}

	x := make([]float64, p.NumVars)
	for i, b := range basis {
		if b < p.NumVars {
			x[b] = tab[i][total]
			if x[b] < 0 && x[b] > -feasTol {
				x[b] = 0
			}
		}
	}
	objVal := 0.0
	for j, v := range p.Objective {
		objVal += v * x[j]
	}
	return Optimal, objVal, x, pivots
}

// pivot performs one tableau pivot at (row, col), normalizing the pivot row
// and eliminating the column from every other row. The rhs lives at index
// total. The pivot row's nonzero columns are left in s.cols so the caller
// can update its reduced-cost row against them.
func (s *scratch) pivot(row, col, total int) {
	pr := s.tab[row]
	pv := injectFault(FaultPivot, pr[col])
	if a := math.Abs(pv); a < suspectPivotLo || a > suspectPivotHi {
		s.suspect++
	}
	hr := s.hi[row]
	s.cols = s.cols[:0]
	for j := 0; j <= hr; j++ {
		if pr[j] != 0 {
			pr[j] /= pv
			s.cols = append(s.cols, j)
		}
	}
	pr[total] /= pv
	for i := range s.tab {
		if i == row {
			continue
		}
		ri := s.tab[i]
		f := ri[col]
		if f == 0 {
			continue
		}
		for _, j := range s.cols {
			ri[j] -= f * pr[j]
		}
		ri[col] = 0 // pr[col] == 1 exactly, so the update lands on zero
		ri[total] -= f * pr[total]
		if hr > s.hi[i] {
			s.hi[i] = hr
		}
	}
	s.basis[row] = col
}
