package certify

// sparseRow is one row of a sparse square matrix: parallel column indices
// and values. A column may repeat (its entries add) and values may be zero;
// the solver merges and drops them before eliminating.
type sparseRow struct {
	cols []int
	vals []num
}

// solveSparse solves A·z = b exactly for the square matrix whose rows are
// a and every right-hand side b in rhs, consuming a and rhs. The matrix is
// eliminated once for all of them; z[k] solves the k-th. It returns
// ok=false exactly when A is singular.
//
// Elimination runs in Markowitz order: each step pivots on the active
// column with the fewest nonzeros in the active rows, in the shortest
// active row holding it, eliminates that column from the column's other
// rows and drops every entry that becomes exactly zero. Column singletons
// therefore go first at no cost, row singletons clear their column without
// fill, and only the kernel the two leave behind does real elimination.
// An active column with no nonzero left proves A singular. Back
// substitution then runs over the pivot rows in reverse order: a pivot row
// holds only its own column and columns pivoted after it.
func solveSparse(a []sparseRow, rhs ...[]num) ([][]num, bool) {
	e := newElim(a, rhs)
	m := len(a)
	pivRow := make([]int, m) // pivRow[k] pivots column pivCol[k]
	pivCol := make([]int, m)
	for k := 0; k < m; k++ {
		c := e.nextColumn()
		if e.colCount[c] == 0 {
			return nil, false
		}
		pivRow[k], pivCol[k] = e.pivot(c), c
	}

	z := make([][]num, len(rhs))
	for v, b := range rhs {
		zv := make([]num, m)
		for k := m - 1; k >= 0; k-- {
			r, c := pivRow[k], pivCol[k]
			s := b[r]
			var pv num
			for i, j := range a[r].cols {
				if j == c {
					pv = a[r].vals[i]
					continue
				}
				s = sub(s, mul(a[r].vals[i], zv[j]))
			}
			zv[c] = quo(s, pv)
		}
		z[v] = zv
	}
	return z, true
}

// elim is the state of one sparse elimination.
type elim struct {
	a   []sparseRow
	rhs [][]num // the right-hand sides, eliminated alongside a
	// colCount[j] counts the nonzeros of column j in the active rows;
	// colRows[j] lists every row that has held column j (entries go stale
	// when they cancel or their row is pivoted, and are re-checked).
	colCount []int
	colRows  [][]int
	done     []bool // pivot rows, no longer active
	// active lists the unpivoted columns; activeAt[j] is j's index in it.
	active   []int
	activeAt []int
	// short holds columns whose count fell to one or zero, the cheapest
	// pivots; entries go stale and are re-checked.
	short []int
	// where[j] is 1 + the index of column j in the row being edited, 0
	// when absent; it is all zeros between edits.
	where []int
}

func newElim(a []sparseRow, rhs [][]num) *elim {
	m := len(a)
	ints := make([]int, 4*m)
	e := &elim{
		a:        a,
		rhs:      rhs,
		colCount: ints[0:m],
		active:   ints[m : 2*m],
		activeAt: ints[2*m : 3*m],
		where:    ints[3*m : 4*m],
		colRows:  make([][]int, m),
		done:     make([]bool, m),
	}
	nnz := 0
	for r := range a {
		canonRow(&a[r], e.where)
		for _, j := range a[r].cols {
			e.colCount[j]++
		}
		nnz += len(a[r].cols)
	}
	// Column lists share one arena, each capped at its initial length so
	// that fill reallocates only the lists it grows.
	arena := make([]int, nnz)
	off := 0
	for j, n := range e.colCount {
		e.colRows[j] = arena[off : off : off+n]
		off += n
	}
	for r := range a {
		for _, j := range a[r].cols {
			e.colRows[j] = append(e.colRows[j], r)
		}
	}
	for j := range e.active {
		e.active[j], e.activeAt[j] = j, j
		if e.colCount[j] <= 1 {
			e.short = append(e.short, j)
		}
	}
	return e
}

// nextColumn removes and returns the active column with the fewest
// nonzeros.
func (e *elim) nextColumn() int {
	c := -1
	for len(e.short) > 0 && c < 0 {
		j := e.short[len(e.short)-1]
		e.short = e.short[:len(e.short)-1]
		if e.activeAt[j] >= 0 && e.colCount[j] <= 1 {
			c = j
		}
	}
	if c < 0 {
		c = e.active[0]
		for _, j := range e.active[1:] {
			if e.colCount[j] < e.colCount[c] {
				c = j
			}
		}
	}
	i, last := e.activeAt[c], e.active[len(e.active)-1]
	e.active[i], e.activeAt[last] = last, i
	e.active = e.active[:len(e.active)-1]
	e.activeAt[c] = -1
	return c
}

// pivot eliminates column c, which has at least one active nonzero, using
// the shortest active row holding it, and returns that row.
func (e *elim) pivot(c int) int {
	pr, pk := -1, -1
	for _, r := range e.colRows[c] {
		if e.done[r] || (pr >= 0 && len(e.a[r].cols) >= len(e.a[pr].cols)) {
			continue
		}
		if i := indexOf(e.a[r].cols, c); i >= 0 {
			pr, pk = r, i
		}
	}
	prow := &e.a[pr]
	pv := prow.vals[pk]
	e.done[pr] = true
	for _, j := range prow.cols {
		e.drop(j)
	}
	for _, r := range e.colRows[c] {
		if e.done[r] {
			continue
		}
		if i := indexOf(e.a[r].cols, c); i >= 0 {
			f := quo(e.a[r].vals[i], pv)
			for _, b := range e.rhs {
				b[r] = sub(b[r], mul(f, b[pr]))
			}
			e.subtract(r, prow, c, f)
		}
	}
	return pr
}

// subtract replaces row r by row r − f·prow, which cancels its entry in the
// pivot column c, keeping the column counts and lists in step with the
// fill it creates and the zeros it drops.
func (e *elim) subtract(r int, prow *sparseRow, c int, f num) {
	row := &e.a[r]
	for i, j := range row.cols {
		e.where[j] = i + 1
	}
	for i, j := range prow.cols {
		if j == c {
			continue
		}
		t := mul(f, prow.vals[i])
		if w := e.where[j]; w > 0 {
			row.vals[w-1] = sub(row.vals[w-1], t)
			continue
		}
		row.cols = append(row.cols, j)
		row.vals = append(row.vals, t.neg())
		e.where[j] = len(row.cols)
		e.colCount[j]++
		e.colRows[j] = append(e.colRows[j], r)
	}
	n := 0
	for i, j := range row.cols {
		e.where[j] = 0
		if j == c || row.vals[i].isZero() {
			e.drop(j)
			continue
		}
		row.cols[n], row.vals[n] = j, row.vals[i]
		n++
	}
	row.cols, row.vals = row.cols[:n], row.vals[:n]
}

// drop records that column j lost one active nonzero.
func (e *elim) drop(j int) {
	e.colCount[j]--
	if e.colCount[j] <= 1 && e.activeAt[j] >= 0 {
		e.short = append(e.short, j)
	}
}

// canonRow sums repeated columns of row and drops zero entries, in place.
func canonRow(row *sparseRow, where []int) {
	n := 0
	for i, j := range row.cols {
		if w := where[j]; w > 0 {
			row.vals[w-1] = add(row.vals[w-1], row.vals[i])
			continue
		}
		row.cols[n], row.vals[n] = j, row.vals[i]
		n++
		where[j] = n
	}
	k := 0
	for i, j := range row.cols[:n] {
		where[j] = 0
		if row.vals[i].isZero() {
			continue
		}
		row.cols[k], row.vals[k] = j, row.vals[i]
		k++
	}
	row.cols, row.vals = row.cols[:k], row.vals[:k]
}

func indexOf(cols []int, c int) int {
	for i, j := range cols {
		if j == c {
			return i
		}
	}
	return -1
}
