package ilp

import (
	"math"
	"sync"
)

// The revised simplex kernel: the same two-phase primal method as the
// tableau kernel — identical standard-form layout, Dantzig entering rule
// with Bland's fallback at the same iteration threshold, ratio test, and
// phase structure — but the basis is carried as an eta factorization
// (lu.go) instead of an explicitly updated tableau.
//
// Reduced costs are not recomputed per iteration. They are maintained
// across pivots by the classic pricing-row update: when column q enters at
// row r, rho = Bᵀ⁻¹·e_r is one unit-vector BTRAN, the pivot row is
// alpha_j = rho·a_j gathered from a row-major mirror of the matrix over
// rho's support, and rc_j -= (rc_q / w_r)·alpha_j. Choosing the entering
// column is then a flat scan of the rc array, and the per-iteration cost
// drops from a dense-dual BTRAN plus a full pricing pass over every
// column's nonzeros to one sparse BTRAN plus the touched rows. The vector
// is rebuilt exactly — dual prices from scratch — at every phase entry and
// every refactorization, which sheds the accumulated float64 drift on the
// same schedule that sheds the eta file's.
//
// The kernel emits the same basis Certificate the tableau does (the
// standard-form layouts agree column for column), so the certify layer
// verifies its optima unchanged. Anything it cannot finish — a singular
// refactorization, an iteration cap — abandons the solve with ok=false and
// the router falls back to the tableau, so the kernel can never change an
// answer.

type revOutcome int

const (
	revOptimal revOutcome = iota
	revUnbounded
	revGiveUp
)

// revScratch is the pooled working memory of one revised solve: the
// standard form in column-major sparse form, the eta file, and the dense
// per-iteration vectors.
type revScratch struct {
	n, m, total, artStart, numArt int

	relBuf []Relation // normalized relation per row
	colPtr []int32    // column-major standard form: [total+1]
	colRow []int32
	colVal []float64
	cur    []int32 // fill cursors during build
	bvec   []float64

	basis   []int
	inBasis []bool
	xB      []float64
	y       []float64 // BTRAN target: dual prices / drive-out rows
	w       []float64 // FTRAN target: entering column
	work    []float64 // refactorization column scratch
	obj     []float64

	etas     etaFile
	ord      []int32
	newBasis []int
	used     []bool
	mark     []bool  // refactorization support flags
	pos      []int32 // refactorization support rows
	cnt      []int32 // counting-sort buckets (column nnz)
	wMark    []bool  // entering-column support flags (pivot path)
	wPos     []int32 // entering-column support rows
	rPtr     []int32 // basis CSR for refactorization peeling: row starts
	rCol     []int32 // basis CSR: column ordinals (positions in basis)
	rVal     []float64
	rCnt     []int32 // remaining columns touching each row
	done     []bool  // basis column ordinal already factored
	rq       []int32 // singleton-row worklist

	rc   []float64 // maintained reduced costs (pricing-row updates)
	aPtr []int32   // row-major standard form for the pricing-row update
	aCol []int32
	aVal []float64

	pivots, suspect, refactors, sinceRefactor int
}

var revPool = sync.Pool{New: func() any { return new(revScratch) }}

func growF64(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

func growI32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

func growInt(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

func growBool(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	return s[:n]
}

// revisedSimplex attempts one LP solve on the revised kernel. ok=false
// means the kernel gave up (the caller falls back to the tableau); every
// ok=true status is definitive.
func revisedSimplex(p *Problem, wantCert bool) (lpResult, bool) {
	s := revPool.Get().(*revScratch)
	defer revPool.Put(s)
	return s.run(p, wantCert)
}

// build lowers p into the column-major standard form, normalizing rows
// exactly as the tableau kernel does: Prefix rows as packed, Constraints
// sign-normalized, slack and artificial columns assigned in row order.
func (s *revScratch) build(p *Problem) {
	n, mPre := p.NumVars, len(p.Prefix)
	m := mPre + len(p.Constraints)
	s.n, s.m = n, m

	if cap(s.relBuf) < m {
		s.relBuf = make([]Relation, m)
	}
	s.relBuf = s.relBuf[:m]
	numSlack, numArt := 0, 0
	for i := 0; i < m; i++ {
		var rel Relation
		if i < mPre {
			rel = p.Prefix[i].Rel
		} else {
			c := &p.Constraints[i-mPre]
			rel = c.Rel
			if c.RHS < 0 {
				switch rel {
				case LE:
					rel = GE
				case GE:
					rel = LE
				}
			}
		}
		s.relBuf[i] = rel
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
	total := n + numSlack + numArt
	s.total, s.artStart, s.numArt = total, n+numSlack, numArt

	// Count column entries (real columns from the rows, one per auxiliary
	// column), then prefix-sum into colPtr.
	s.colPtr = growI32(s.colPtr, total+1)
	for i := range s.colPtr {
		s.colPtr[i] = 0
	}
	for i := 0; i < mPre; i++ {
		for _, col := range p.Prefix[i].Cols {
			s.colPtr[col+1]++
		}
	}
	for ci := range p.Constraints {
		for j, v := range p.Constraints[ci].Coeffs {
			if v != 0 {
				s.colPtr[j+1]++
			}
		}
	}
	for j := n; j < total; j++ {
		s.colPtr[j+1] = 1
	}
	for j := 0; j < total; j++ {
		s.colPtr[j+1] += s.colPtr[j]
	}
	nnz := int(s.colPtr[total])
	s.colRow = growI32(s.colRow, nnz)
	s.colVal = growF64(s.colVal, nnz)
	s.cur = growI32(s.cur, total)
	copy(s.cur, s.colPtr[:total])

	s.bvec = growF64(s.bvec, m)
	s.basis = growInt(s.basis, m)
	s.inBasis = growBool(s.inBasis, total)
	for j := range s.inBasis {
		s.inBasis[j] = false
	}
	place := func(j int, row int, v float64) {
		k := s.cur[j]
		s.colRow[k] = int32(row)
		s.colVal[k] = v
		s.cur[j] = k + 1
	}
	slackCol, artCol := n, n+numSlack
	for i := 0; i < m; i++ {
		var rhs float64
		if i < mPre {
			pr := &p.Prefix[i]
			for k, col := range pr.Cols {
				place(int(col), i, pr.Vals[k])
			}
			rhs = pr.RHS
		} else {
			c := &p.Constraints[i-mPre]
			rhs = c.RHS
			neg := rhs < 0
			if neg {
				rhs = -rhs
			}
			for j, v := range c.Coeffs {
				if v == 0 {
					continue
				}
				if neg {
					v = -v
				}
				place(j, i, v)
			}
		}
		s.bvec[i] = rhs
		switch s.relBuf[i] {
		case LE:
			place(slackCol, i, 1)
			s.basis[i] = slackCol
			slackCol++
		case GE:
			place(slackCol, i, -1)
			slackCol++
			place(artCol, i, 1)
			s.basis[i] = artCol
			artCol++
		case EQ:
			place(artCol, i, 1)
			s.basis[i] = artCol
			artCol++
		}
		s.inBasis[s.basis[i]] = true
	}

	// Row-major mirror of the same matrix, for the pricing-row update:
	// given the sparse BTRAN'd pivot row rho, the reduced-cost deltas are
	// gathered row by row over rho's support instead of column by column
	// over everything.
	s.aPtr = growI32(s.aPtr, m+1)
	for i := range s.aPtr {
		s.aPtr[i] = 0
	}
	s.aCol = growI32(s.aCol, nnz)
	s.aVal = growF64(s.aVal, nnz)
	for k := 0; k < nnz; k++ {
		s.aPtr[s.colRow[k]+1]++
	}
	for i := 0; i < m; i++ {
		s.aPtr[i+1] += s.aPtr[i]
	}
	rcur := s.cur[:m] // column fill above is complete; reuse the cursors
	copy(rcur, s.aPtr[:m])
	for j := 0; j < total; j++ {
		for k := s.colPtr[j]; k < s.colPtr[j+1]; k++ {
			r := s.colRow[k]
			s.aCol[rcur[r]] = int32(j)
			s.aVal[rcur[r]] = s.colVal[k]
			rcur[r]++
		}
	}

	s.xB = growF64(s.xB, m)
	s.y = growF64(s.y, m)
	s.w = growF64(s.w, m)
	s.work = growF64(s.work, m)
	s.obj = growF64(s.obj, total)
	s.rc = growF64(s.rc, total)
	s.wMark = growBool(s.wMark, m)
	if cap(s.wPos) < m {
		s.wPos = make([]int32, 0, m)
	}
	// The pivot path keeps w all-zero between iterations, clearing only
	// each entering column's tracked support; establish the invariant once.
	clear(s.w)
	for i := range s.wMark {
		s.wMark[i] = false
	}
}

// scatterCol expands standard-form column j into the dense vector w.
func (s *revScratch) scatterCol(j int, w []float64) {
	clear(w)
	for k := s.colPtr[j]; k < s.colPtr[j+1]; k++ {
		w[s.colRow[k]] = s.colVal[k]
	}
}

// price computes the reduced cost of column j against dual prices y.
func (s *revScratch) price(obj, y []float64, j int) float64 {
	rc := obj[j]
	for k := s.colPtr[j]; k < s.colPtr[j+1]; k++ {
		if yv := y[s.colRow[k]]; yv != 0 {
			rc -= yv * s.colVal[k]
		}
	}
	return rc
}

// computeRC rebuilds the maintained reduced costs exactly: dual prices by
// BTRAN of the basic objective, then one pricing pass over the candidate
// columns. Called at phase entry and after every refactorization to shed
// the drift the per-pivot updates accumulate.
func (s *revScratch) computeRC(obj []float64, allowed int) {
	y := s.y
	for i := 0; i < s.m; i++ {
		y[i] = obj[s.basis[i]]
	}
	s.etas.btran(y)
	for j := 0; j < allowed; j++ {
		if s.inBasis[j] {
			s.rc[j] = 0 // exactly, so the entering scan can test rc first
		} else {
			s.rc[j] = s.price(obj, y, j)
		}
	}
}

// pivotAt records the pivot (entering col, leaving row) with the FTRAN'd
// entering column w whose nonzero support is pos, updates the basic values
// incrementally, and refactorizes on schedule (suppressed during phase-1
// drive-out, whose row scan assumes stable row association). Every step
// touches only the support, never all m rows.
func (s *revScratch) pivotAt(row, col int, w []float64, pos []int32, allowRefactor bool) bool {
	if a := math.Abs(w[row]); a < suspectPivotLo || a > suspectPivotHi {
		s.suspect++
	}
	if !s.etas.pushS(w, pos, row) {
		return false
	}
	d := s.xB[row] / w[row]
	for _, i := range pos {
		if int(i) == row {
			continue
		}
		if wi := w[i]; wi != 0 {
			s.xB[i] -= wi * d
		}
	}
	s.xB[row] = d
	s.inBasis[s.basis[row]] = false
	s.basis[row] = col
	s.inBasis[col] = true
	s.pivots++
	s.sinceRefactor++
	if allowRefactor && s.sinceRefactor >= revisedRefactorEvery {
		s.sinceRefactor = 0
		s.refactors++
		if !s.refactorize() {
			return false
		}
	}
	return true
}

// optimize runs one primal phase on the given objective, entering among
// columns below allowed.
func (s *revScratch) optimize(obj []float64, allowed int) revOutcome {
	m := s.m
	iter := 0
	blandAfter := 50 * (m + s.total + 10)
	hardCap := 10 * blandAfter
	y, w := s.y, s.w
	s.computeRC(obj, allowed)
	for {
		iter++
		if iter > hardCap {
			return revGiveUp
		}
		// rc of basic columns is held at zero, so testing rc first keeps
		// the inBasis load off the common (non-improving) path.
		bestCol := -1
		if iter > blandAfter {
			for j := 0; j < allowed; j++ {
				if s.rc[j] > eps && !s.inBasis[j] {
					bestCol = j
					break
				}
			}
		} else {
			bestVal := eps
			for j := 0; j < allowed; j++ {
				if rc := s.rc[j]; rc > bestVal && !s.inBasis[j] {
					bestVal, bestCol = rc, j
				}
			}
		}
		if bestCol < 0 {
			return revOptimal
		}
		// Scatter the entering column and FTRAN it with support tracking:
		// the ratio test, the basic-value update, the eta record, and the
		// clear all walk only the column's fill-in.
		pos := s.wPos[:0]
		for k := s.colPtr[bestCol]; k < s.colPtr[bestCol+1]; k++ {
			r := s.colRow[k]
			w[r] = s.colVal[k]
			if !s.wMark[r] {
				s.wMark[r] = true
				pos = append(pos, r)
			}
		}
		pos = s.etas.ftranS(w, pos, s.wMark)
		s.wPos = pos[:0]
		bestRow := -1
		bestRatio := math.Inf(1)
		for _, i := range pos {
			a := w[i]
			if a > eps {
				ratio := s.xB[i] / a
				if ratio < bestRatio-eps ||
					(math.Abs(ratio-bestRatio) <= eps && (bestRow < 0 || s.basis[i] < s.basis[bestRow])) {
					bestRatio, bestRow = ratio, int(i)
				}
			}
		}
		if bestRow >= 0 {
			// Pricing-row update against the outgoing basis, before pivotAt
			// grows the eta file: rho = Bᵀ⁻¹·e_bestRow, then subtract
			// (rc_q/w_r)·(rho·a_j) row by row over rho's support. Basic
			// columns stay at zero automatically (rho·a_j = e_r·e_i = 0) and
			// the leaver picks up its correct new reduced cost (alpha = 1).
			delta := s.rc[bestCol] / w[bestRow]
			clear(y)
			y[bestRow] = 1
			s.etas.btran(y)
			for i := 0; i < m; i++ {
				if ri := y[i]; ri != 0 {
					rv := delta * ri
					for k := s.aPtr[i]; k < s.aPtr[i+1]; k++ {
						s.rc[s.aCol[k]] -= rv * s.aVal[k]
					}
				}
			}
			s.rc[bestCol] = 0
		}
		ok := bestRow >= 0 && s.pivotAt(bestRow, bestCol, w, pos, true)
		for _, r := range pos {
			w[r] = 0
			s.wMark[r] = false
		}
		if bestRow < 0 {
			return revUnbounded
		}
		if !ok {
			return revGiveUp
		}
		if s.sinceRefactor == 0 {
			// pivotAt just refactorized: the eta file is fresh and the row
			// association may have changed; rebuild the reduced costs exactly
			// on the same schedule.
			s.computeRC(obj, allowed)
		}
	}
}

// driveOut removes basic artificials left at value zero after phase 1 by
// pivoting each onto the first real or slack column with a nonzero entry
// in its row, exactly as the tableau kernel does. Rows with no such entry
// are redundant and keep their zero-valued artificial.
func (s *revScratch) driveOut() bool {
	for i := 0; i < s.m; i++ {
		if s.basis[i] < s.artStart {
			continue
		}
		beta := s.y
		clear(beta)
		beta[i] = 1
		s.etas.btran(beta)
		for j := 0; j < s.artStart; j++ {
			if s.inBasis[j] {
				continue
			}
			alpha := 0.0
			for k := s.colPtr[j]; k < s.colPtr[j+1]; k++ {
				if bv := beta[s.colRow[k]]; bv != 0 {
					alpha += bv * s.colVal[k]
				}
			}
			if math.Abs(alpha) <= eps {
				continue
			}
			s.scatterCol(j, s.w)
			s.etas.ftran(s.w)
			if math.Abs(s.w[i]) <= eps {
				continue // drift disagrees with the priced row; try the next column
			}
			pos := s.wPos[:0]
			for r := 0; r < s.m; r++ {
				if s.w[r] != 0 {
					pos = append(pos, int32(r))
				}
			}
			s.wPos = pos[:0]
			ok := s.pivotAt(i, j, s.w, pos, false)
			for _, r := range pos {
				s.w[r] = 0
			}
			if !ok {
				return false
			}
			break
		}
	}
	// A rejected attempt (drifted row, redundant row) can leave its
	// column in w; restore the pivot path's all-zero invariant densely.
	clear(s.w)
	return true
}

func (s *revScratch) run(p *Problem, wantCert bool) (lpResult, bool) {
	s.build(p)
	s.pivots, s.suspect, s.refactors, s.sinceRefactor = 0, 0, 0, 0
	s.etas.reset()
	copy(s.xB, s.bvec)

	result := func(st Status, obj float64, x []float64) lpResult {
		return lpResult{
			status: st, obj: obj, x: x,
			pivots: s.pivots, suspect: s.suspect,
			revisedPivots: s.pivots, refactors: s.refactors,
		}
	}

	if s.numArt > 0 {
		obj1 := s.obj
		clear(obj1)
		for j := s.artStart; j < s.total; j++ {
			obj1[j] = -1
		}
		switch s.optimize(obj1, s.total) {
		case revGiveUp:
			return lpResult{}, false
		case revUnbounded:
			// Phase 1 is bounded by zero; mirror the tableau's guard.
			return result(Infeasible, 0, nil), true
		}
		sumArt := 0.0
		for i := 0; i < s.m; i++ {
			if s.basis[i] >= s.artStart {
				sumArt += s.xB[i]
			}
		}
		if sumArt > feasTol {
			return result(Infeasible, 0, nil), true
		}
		if !s.driveOut() {
			return lpResult{}, false
		}
	}

	sign := 1.0
	if p.Sense == Minimize {
		sign = -1
	}
	obj2 := s.obj
	clear(obj2)
	for j, v := range p.Objective {
		obj2[j] = sign * v
	}
	switch s.optimize(obj2, s.artStart) {
	case revGiveUp:
		return lpResult{}, false
	case revUnbounded:
		return result(Unbounded, 0, nil), true
	}

	x := make([]float64, p.NumVars)
	for i := 0; i < s.m; i++ {
		if b := s.basis[i]; b < p.NumVars {
			v := s.xB[i]
			if v < 0 && v > -feasTol {
				v = 0
			}
			x[b] = v
		}
	}
	objVal := 0.0
	for j, v := range p.Objective {
		objVal += v * x[j]
	}
	r := result(Optimal, objVal, x)
	if wantCert && s.m > 0 {
		r.cert = &Certificate{Basis: append([]int(nil), s.basis[:s.m]...)}
	}
	return r, true
}
