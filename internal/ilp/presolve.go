package ilp

import (
	"math"
	"slices"
	"sync"
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
// cold solver, so a presolve defect cannot pass silently. The derivation
// itself is kept as a PresolveRecord, from which package certify rebuilds
// the reduced problem exactly and checks warm certificates in it.

// PresolveKind is the rule behind one presolve fact.
type PresolveKind uint8

const (
	// PresolveFix: the row is an equality and, with every earlier fact
	// substituted, has one variable class left, which it fixes to a value.
	PresolveFix PresolveKind = iota
	// PresolveMerge: the row is an equality that reduces to c·x − c·y = 0,
	// so the classes of x and y are equal.
	PresolveMerge
	// PresolveZero: the row reduces to a sum of same-signed terms bounded
	// by zero (= 0, or ≤ 0 with positive terms, or ≥ 0 with negative ones)
	// over nonnegative variables, so every class it names is zero.
	PresolveZero
)

// PresolveFact is one fact of a presolve derivation, with the base row that
// implies it given the facts before it.
type PresolveFact struct {
	Kind PresolveKind
	// Row indexes the base (Prefix) row that implies the fact.
	Row int32
	// Var is a variable of the fixed class (PresolveFix) or of one merged
	// class (PresolveMerge); With is a variable of the other merged class.
	Var, With int32
	// Value is the float64 value the presolve fixed Var's class at
	// (PresolveFix only).
	Value float64
}

// PresolveRecord is the derivation behind one structural presolve: the
// facts in the order they were derived, and the base row each reduced row
// was lowered from. It is shared and read-only; warm certificates point to
// it (Certificate.Presolve) so an exact checker can replay the facts, each
// from its row, and rebuild the reduced base from the named rows, without
// taking any number from the float64 presolve.
type PresolveRecord struct {
	// NumVars is the variable count of the base the presolve ran on.
	NumVars int
	Facts   []PresolveFact
	// Rows[i] is the base row reduced row i was lowered from. Rows the
	// facts satisfy outright, and later rows that lower to the same
	// reduced row as an earlier one, are not named.
	Rows []int32
}

// Presolve is the structural presolve of one base row set. It depends on
// the rows and the variable count only, never on an objective, so the two
// directions of an analysis whose base rows agree share one (NewWarmStart).
// A Presolve is read-only after NewPresolve.
type Presolve struct {
	red        *presolved // nil when nothing could be eliminated
	infeasible bool       // the rows contradict each other
}

// NewPresolve runs the structural presolve over the base rows of a
// numVars-variable problem.
func NewPresolve(prefix []PackedRow, numVars int) *Presolve {
	red, infeasible := presolveRows(prefix, numVars)
	return &Presolve{red: red, infeasible: infeasible}
}

// presolved maps between an original base row set and its reduced form.
type presolved struct {
	n    int // original variable count
	nRed int // reduced variable count
	// col[v] is the reduced column of v's equality class, -1 when v is
	// fixed; fixed[v] holds the value in that case.
	col   []int32
	fixed []float64
	// rows is the reduced base.
	rows []PackedRow
	rec  *PresolveRecord
}

// rowFate classifies a delta row after substitution.
type rowFate int

const (
	rowKeep rowFate = iota
	rowRedundant
	rowInfeasible
)

// presolveScratch is the pooled working memory of one presolve: the
// class forest, the dense row accumulator and the row worklist. Nothing in
// it outlives the call.
type presolveScratch struct {
	parent, next, size []int32 // union-find forest; next links each class's members in a ring
	hasVal             []bool
	val                []float64
	acc                []float64 // dense accumulator, by class root or reduced column
	stamp              []int32   // stamp[j] == cur marks j as touched by the current row
	cur                int32
	touched            []int32
	varRows            []int32 // rows of variable v: varRows[varStart[v]:varStart[v+1]]
	varStart           []int32
	queue              []int32
	queued             []bool
	rootCol            []int32
	facts              []PresolveFact
	seen               map[uint64]int32
}

var presolvePool = sync.Pool{New: func() any { return new(presolveScratch) }}

// begin starts a fresh touched set for one row.
func (ps *presolveScratch) begin() {
	ps.cur++
	if ps.cur == math.MaxInt32 {
		clear(ps.stamp)
		ps.cur = 1
	}
	ps.touched = ps.touched[:0]
}

// add accumulates v into entry j of the current row.
func (ps *presolveScratch) add(j int32, v float64) {
	if ps.stamp[j] != ps.cur {
		ps.stamp[j] = ps.cur
		ps.acc[j] = 0
		ps.touched = append(ps.touched, j)
	}
	ps.acc[j] += v
}

func (ps *presolveScratch) find(v int32) int32 {
	p := ps.parent
	for p[v] != v {
		p[v] = p[p[v]]
		v = p[v]
	}
	return v
}

// presolveRows derives the substitution implied by the base rows. It
// returns nil when no variable can be eliminated (the reduction would be a
// plain copy) or every variable is fixed; infeasible reports a
// contradiction among the rows, in which case the returned reduction is
// nil and the base problem has no feasible point.
func presolveRows(prefix []PackedRow, n int) (red *presolved, infeasible bool) {
	ps := presolvePool.Get().(*presolveScratch)
	defer presolvePool.Put(ps)
	m := len(prefix)
	ps.parent = growI32(ps.parent, n)
	ps.next = growI32(ps.next, n)
	ps.size = growI32(ps.size, n)
	ps.hasVal = growBool(ps.hasVal, n)
	ps.val = growF64(ps.val, n)
	ps.acc = growF64(ps.acc, n)
	ps.stamp = growI32(ps.stamp, n)
	ps.varStart = growI32(ps.varStart, n+1)
	ps.queued = growBool(ps.queued, m)
	clear(ps.stamp)
	clear(ps.hasVal)
	clear(ps.varStart)
	clear(ps.queued)
	ps.cur = 0
	ps.facts = ps.facts[:0]
	for v := range ps.parent {
		ps.parent[v], ps.next[v], ps.size[v] = int32(v), int32(v), 1
	}

	// Index the rows of each variable, so a fact re-examines only the rows
	// it can change.
	nnz := 0
	for ri := range prefix {
		for _, cv := range prefix[ri].Cols {
			ps.varStart[cv+1]++
		}
		nnz += len(prefix[ri].Cols)
	}
	for v := 0; v < n; v++ {
		ps.varStart[v+1] += ps.varStart[v]
	}
	ps.varRows = growI32(ps.varRows, nnz)
	ps.rootCol = growI32(ps.rootCol, n)
	fill := ps.rootCol // each variable's next free slot; rootCol is free until the columns are assigned
	copy(fill, ps.varStart[:n])
	for ri := range prefix {
		for _, cv := range prefix[ri].Cols {
			ps.varRows[fill[cv]] = int32(ri)
			fill[cv]++
		}
	}

	bad := false
	// enqueue re-examines every row of variable v.
	enqueue := func(v int32) {
		for _, ri := range ps.varRows[ps.varStart[v]:ps.varStart[v+1]] {
			if !ps.queued[ri] {
				ps.queued[ri] = true
				ps.queue = append(ps.queue, ri)
			}
		}
	}
	// enqueueClass re-examines every row of every member of r's class.
	enqueueClass := func(r int32) {
		v := r
		for {
			enqueue(v)
			if v = ps.next[v]; v == r {
				return
			}
		}
	}
	fix := func(r int32, x float64) {
		if x < 0 {
			if x < -presolveTol {
				bad = true
				return
			}
			x = 0
		}
		ps.hasVal[r], ps.val[r] = true, x
		enqueueClass(r)
	}
	union := func(ra, rb int32) {
		// Only rows naming both classes change shape; each of them names
		// a member of the smaller class.
		small := ra
		if ps.size[rb] < ps.size[ra] {
			small = rb
		}
		enqueueClass(small)
		// Merge the higher-numbered root into the lower so class
		// representatives are deterministic.
		if ra > rb {
			ra, rb = rb, ra
		}
		ps.parent[rb] = ra
		ps.size[ra] += ps.size[rb]
		ps.next[ra], ps.next[rb] = ps.next[rb], ps.next[ra]
	}

	// Substitute to a fixpoint: reduce each queued row under the current
	// classes and values and harvest new facts. Every fact fixes or merges
	// a class, so the worklist drains after at most n facts.
	ps.queue = ps.queue[:0]
	for ri := range prefix {
		ps.queued[ri] = true
		ps.queue = append(ps.queue, int32(ri))
	}
	for head := 0; head < len(ps.queue) && !bad; head++ {
		ri := ps.queue[head]
		ps.queued[ri] = false
		r := &prefix[ri]
		ps.begin()
		rhs := r.RHS
		for k, cv := range r.Cols {
			rt := ps.find(cv)
			if ps.hasVal[rt] {
				rhs -= r.Vals[k] * ps.val[rt]
				continue
			}
			ps.add(rt, r.Vals[k])
		}
		terms := ps.touched[:0]
		pos, neg := 0, 0
		for _, rt := range ps.touched {
			switch c := ps.acc[rt]; {
			case c > 0:
				pos++
			case c < 0:
				neg++
			default:
				continue
			}
			terms = append(terms, rt)
		}
		zero := func() {
			for _, rt := range terms {
				fix(rt, 0)
			}
			ps.facts = append(ps.facts, PresolveFact{Kind: PresolveZero, Row: ri})
		}
		switch r.Rel {
		case EQ:
			switch {
			case len(terms) == 0:
				if math.Abs(rhs) > presolveTol {
					bad = true
				}
			case len(terms) == 1:
				x := rhs / ps.acc[terms[0]]
				fix(terms[0], x)
				ps.facts = append(ps.facts, PresolveFact{Kind: PresolveFix, Row: ri,
					Var: terms[0], Value: ps.val[terms[0]]})
			case math.Abs(rhs) <= presolveTol && (pos == 0 || neg == 0):
				// Sum of same-signed terms over nonnegative variables
				// equals zero: every term is zero (null branches).
				zero()
			case len(terms) == 2 && math.Abs(rhs) <= presolveTol:
				// c*x - c*y = 0 is x = y: merge the classes.
				a, b := terms[0], terms[1]
				if ps.acc[a] == -ps.acc[b] {
					ps.facts = append(ps.facts, PresolveFact{Kind: PresolveMerge, Row: ri, Var: a, With: b})
					union(a, b)
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
					zero()
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
					zero()
				}
			}
		}
	}
	if bad {
		return nil, true
	}

	// Assign reduced columns to the surviving classes, in variable order.
	col := make([]int32, n)
	fixed := make([]float64, n)
	rootCol := ps.rootCol
	for v := range rootCol {
		rootCol[v] = -1
	}
	nRed := int32(0)
	for v := int32(0); v < int32(n); v++ {
		rt := ps.find(v)
		if ps.hasVal[rt] {
			col[v] = -1
			fixed[v] = ps.val[rt]
			continue
		}
		if rootCol[rt] < 0 {
			rootCol[rt] = nRed
			nRed++
		}
		col[v] = rootCol[rt]
	}
	if nRed == int32(n) || nRed == 0 {
		// Nothing eliminated (reduction would be a copy), or everything
		// fixed (degenerate; let the cold path handle it).
		return nil, false
	}
	rec := &PresolveRecord{NumVars: n, Facts: slices.Clone(ps.facts)}
	red = &presolved{n: n, nRed: int(nRed), col: col, fixed: fixed, rec: rec}

	// Reduce the rows, dropping those the substitution satisfied outright
	// and deduplicating rows that collapse to the same reduced form (a
	// block's in- and out-equations often do once shared edges merge). A
	// reduced row is never longer than its source, so one arena of the
	// base's size holds them all.
	colArena := make([]int32, 0, nnz)
	valArena := make([]float64, 0, nnz)
	red.rows = make([]PackedRow, 0, m)
	rec.Rows = make([]int32, 0, m)
	if ps.seen == nil {
		ps.seen = map[uint64]int32{}
	}
	clear(ps.seen)
	for ri := range prefix {
		r := &prefix[ri]
		ps.begin()
		rhs := r.RHS
		for k, cv := range r.Cols {
			if col[cv] < 0 {
				rhs -= r.Vals[k] * fixed[cv]
				continue
			}
			ps.add(col[cv], r.Vals[k])
		}
		kept := 0
		for _, j := range ps.touched {
			if ps.acc[j] != 0 {
				kept++
			}
		}
		switch emptyRowFate(kept, r.Rel, rhs) {
		case rowInfeasible:
			return nil, true
		case rowRedundant:
			continue
		}
		slices.Sort(ps.touched)
		lo := len(colArena)
		for _, j := range ps.touched {
			if v := ps.acc[j]; v != 0 {
				colArena = append(colArena, j)
				valArena = append(valArena, v)
			}
		}
		hi := len(colArena)
		pr := normalizeSign(PackedRow{Cols: colArena[lo:hi:hi], Vals: valArena[lo:hi:hi], Rel: r.Rel, RHS: rhs})
		h := hashPacked(&pr)
		if k, dup := ps.seen[h]; dup && (samePacked(&red.rows[k], &pr) || slices.ContainsFunc(red.rows, func(q PackedRow) bool { return samePacked(&q, &pr) })) {
			colArena, valArena = colArena[:lo], valArena[:lo]
			continue
		} else if !dup {
			ps.seen[h] = int32(len(red.rows))
		}
		red.rows = append(red.rows, pr)
		rec.Rows = append(rec.Rows, int32(ri))
	}
	return red, false
}

// hashPacked hashes a packed row's relation, right-hand side and entries,
// floats by their bits (FNV-1a over 64-bit words).
func hashPacked(r *PackedRow) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	mix := func(w uint64) { h = (h ^ w) * prime }
	mix(uint64(r.Rel))
	mix(math.Float64bits(r.RHS))
	for k, c := range r.Cols {
		mix(uint64(c))
		mix(math.Float64bits(r.Vals[k]))
	}
	return h
}

// samePacked reports whether two packed rows are identical, floats
// compared by their bits.
func samePacked(a, b *PackedRow) bool {
	if a.Rel != b.Rel || math.Float64bits(a.RHS) != math.Float64bits(b.RHS) || len(a.Cols) != len(b.Cols) {
		return false
	}
	for k, c := range a.Cols {
		if c != b.Cols[k] || math.Float64bits(a.Vals[k]) != math.Float64bits(b.Vals[k]) {
			return false
		}
	}
	return true
}

// lowerObjective substitutes an objective into reduced space: the original
// objective equals the reduced one plus the offset at corresponding points.
func (pr *presolved) lowerObjective(obj map[int]float64) (map[int]float64, float64) {
	red := make(map[int]float64, len(obj))
	off := 0.0
	for v, c := range obj {
		if pr.col[v] < 0 {
			off += c * pr.fixed[v]
		} else {
			red[int(pr.col[v])] += c
		}
	}
	return red, off
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
