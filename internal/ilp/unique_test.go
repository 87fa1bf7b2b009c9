package ilp

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// tieBase builds a bounded base problem whose optimum is often tied or
// degenerate: box rows, pair rows whose bound is the sum of the two boxes
// (so three rows meet at the corner where both boxes bind), order rows
// x_a <= x_b through the origin, and small objective coefficients that
// repeat. An equality pair and, sometimes, a pinned variable give the
// structural presolve something to substitute away.
func tieBase(rng *rand.Rand, sense Sense, n int) *Problem {
	var rows []Constraint
	box := make([]float64, n)
	for j := range box {
		box[j] = float64(1 + rng.Intn(4))
		rows = append(rows, c(map[int]float64{j: 1}, LE, box[j]))
	}
	for i := 0; i < n/2+1; i++ {
		a, b := rng.Intn(n), rng.Intn(n)
		if a == b {
			continue
		}
		if rng.Intn(2) == 0 {
			rows = append(rows, c(map[int]float64{a: 1, b: 1}, LE, box[a]+box[b]))
		} else {
			rows = append(rows, c(map[int]float64{a: 1, b: -1}, LE, 0))
		}
	}
	if a, b := rng.Intn(n), rng.Intn(n); a != b {
		rows = append(rows, c(map[int]float64{a: 1, b: -1}, EQ, 0))
	}
	if rng.Intn(2) == 0 {
		rows = append(rows, c(map[int]float64{rng.Intn(n): 1}, EQ, 1))
	}
	obj := map[int]float64{}
	for j := 0; j < n; j++ {
		obj[j] = float64(rng.Intn(4) - 1)
	}
	return &Problem{Sense: sense, NumVars: n, Objective: obj, Prefix: Pack(rows)}
}

// tieDelta is a per-set delta for tieBase: nothing (the base answers), a
// row the base already pins (dropped under a presolve), or one or two
// random rows.
func tieDelta(rng *rand.Rand, base *Problem) []Constraint {
	n := base.NumVars
	switch rng.Intn(6) {
	case 0:
		return nil
	case 1:
		for _, r := range base.Prefix {
			if r.Rel == EQ && len(r.Cols) == 1 {
				return []Constraint{r.unpack()}
			}
		}
		return nil
	}
	set := make([]Constraint, 0, 2)
	for i := 0; i < 1+rng.Intn(2); i++ {
		a, b := rng.Intn(n), rng.Intn(n)
		coeffs := map[int]float64{a: 1}
		if a != b {
			coeffs[b] = float64(rng.Intn(3) - 1)
		}
		set = append(set, c(coeffs, []Relation{LE, GE, EQ}[rng.Intn(3)], float64(rng.Intn(4))))
	}
	return set
}

// oracleUnique decides independently of the warm path whether optimum z
// of p is its only optimal point: with the objective held at z (within a
// hair), the dense oracle must find every variable's range to be a point.
func oracleUnique(t *testing.T, p *Problem, z float64) bool {
	t.Helper()
	rows := unpackProblem(&Problem{NumVars: p.NumVars, Prefix: p.Prefix}).Constraints
	rows = append(append([]Constraint(nil), rows...), p.Constraints...)
	hold := Constraint{Coeffs: p.Objective, Rel: GE, RHS: z - 1e-7}
	if p.Sense == Minimize {
		hold = Constraint{Coeffs: p.Objective, Rel: LE, RHS: z + 1e-7}
	}
	rows = append(rows, hold)
	for j := 0; j < p.NumVars; j++ {
		var ext [2]float64
		for k, sense := range []Sense{Maximize, Minimize} {
			st, v, _, _ := denseSimplex(&Problem{Sense: sense, NumVars: p.NumVars,
				Objective: map[int]float64{j: 1}, Constraints: rows})
			if st != Optimal {
				t.Fatalf("oracle: x%d over the optimal face is %v on\n%s", j, st, unpackProblem(p))
			}
			ext[k] = v
		}
		if ext[0]-ext[1] > 1e-5 {
			return false
		}
	}
	return true
}

// TestWarmStartUniqueAgainstCold is the differential for the uniqueness
// test (SetSolution.Unique): random bases built for ties and degenerate
// corners, with and without the structural presolve, both senses, and
// deltas that exercise the base-answered path. Every verdict must match an
// independent oracle, a unique optimum must be the point the cold solver
// returns (the SetSelfCheck differential checks this too), the solve must
// answer as an objective-only (NoX) solve does, and the shared base
// tableau must come out untouched. Each verdict route has to occur:
// unique by the reduced-cost scan alone, unique after face-LP pivots, not
// unique, and base-answered verdicts of both kinds.
func TestWarmStartUniqueAgainstCold(t *testing.T) {
	SetSelfCheck(true)
	defer SetSelfCheck(false)
	rng := rand.New(rand.NewSource(19))
	var byScan, byFace, tied, baseUnique, baseTied, presolved int
	for trial := 0; trial < 400; trial++ {
		sense := Maximize
		if trial%2 == 1 {
			sense = Minimize
		}
		base := tieBase(rng, sense, 3+rng.Intn(4))
		var w *WarmStart
		if trial%4 >= 2 {
			w = newWarmStart(base, nil)
		} else {
			w = NewWarmStart(base, nil)
		}
		if !w.Ready() {
			continue
		}
		baseTab := make([][]float64, w.base.m)
		for i := range baseTab {
			baseTab[i] = append([]float64(nil), w.base.tab[i]...)
		}
		for si := 0; si < 4; si++ {
			set := tieDelta(rng, base)
			plain := w.solveSet(set, SetSolveOptions{NoX: true})
			r := w.solveSet(set, SetSolveOptions{})
			if !r.OK || !plain.OK {
				t.Fatalf("trial %d set %d: warm solve gave up", trial, si)
			}
			if r.Status != plain.Status || math.Abs(r.Objective-plain.Objective) > ObjTol(plain.Objective) ||
				r.XIntegral != plain.XIntegral || plain.Unique {
				t.Fatalf("trial %d set %d: solve with the assignment %v %v integral=%v, objective only %v %v integral=%v unique=%v",
					trial, si, r.Status, r.Objective, r.XIntegral, plain.Status, plain.Objective, plain.XIntegral, plain.Unique)
			}
			if r.Status != Optimal {
				continue
			}
			cold := &Problem{Sense: sense, NumVars: base.NumVars, Objective: base.Objective,
				Prefix: base.Prefix, Constraints: set}
			if want := oracleUnique(t, cold, r.Objective); r.Unique != want {
				t.Fatalf("trial %d set %d: Unique = %v, oracle says %v at %v on\n%s",
					trial, si, r.Unique, want, r.X, unpackProblem(cold))
			}
			if w.red != nil {
				presolved++
			}
			_, k, _ := keptRows(w, set)
			answeredByBase := k == 0
			switch {
			case answeredByBase && r.Unique:
				baseUnique++
			case answeredByBase:
				baseTied++
			}
			switch facePivots := r.Pivots - plain.Pivots; {
			case !r.Unique:
				tied++
			case facePivots == 0:
				byScan++
			default:
				byFace++
			}
			if r.Unique {
				_, _, cx, _ := simplex(cold)
				for j := range cx {
					if math.Abs(cx[j]-r.X[j]) > 1e-6 {
						t.Fatalf("trial %d set %d: unique warm optimum %v, cold %v", trial, si, r.X, cx)
					}
				}
			}
		}
		if !reflect.DeepEqual(baseTab, w.base.tab[:w.base.m]) {
			t.Fatalf("trial %d: a solve modified the shared base tableau", trial)
		}
	}
	t.Logf("verdicts: %d unique by scan, %d unique by face LP, %d tied; base-answered %d unique, %d tied; %d presolved",
		byScan, byFace, tied, baseUnique, baseTied, presolved)
	for _, c := range []struct {
		name string
		n    int
	}{
		{"unique by the reduced-cost scan", byScan}, {"unique by the face LP", byFace},
		{"tied", tied}, {"base-answered unique", baseUnique}, {"base-answered tied", baseTied},
		{"presolved", presolved},
	} {
		if c.n < 5 {
			t.Errorf("only %d %s verdicts; the generator no longer covers that route", c.n, c.name)
		}
	}
}

// TestWarmSolveReusesDirtyScratch: the warm solve copies the base over
// pooled rows without zeroing them first, so it must overwrite every entry
// it reads. A scratch left dirty by a larger solve, and then poisoned with
// NaN throughout, must give exactly the result of a fresh one.
func TestWarmSolveReusesDirtyScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	ran := 0
	for trial := 0; trial < 100; trial++ {
		sense := Maximize
		if trial%2 == 1 {
			sense = Minimize
		}
		n := 3 + rng.Intn(4)
		big, small := warmBase(rng, sense, n+4), warmBase(rng, sense, n)
		wBig, w := NewWarmStart(big, nil), NewWarmStart(small, nil)
		if !wBig.Ready() || !w.Ready() {
			continue
		}
		var opts SetSolveOptions
		dirty := new(scratch)
		rows, k, infeasible := keptRows(w, randomDelta(rng, n))
		bigRows, bigK, bigInfeasible := keptRows(wBig, randomDelta(rng, n+4))
		if k == 0 || infeasible || bigK == 0 || bigInfeasible {
			continue
		}
		wBig.solveDeltaOn(dirty, bigRows, bigK, opts)
		for _, r := range dirty.tab[:cap(dirty.tab)] {
			r = r[:cap(r)]
			for j := range r {
				r[j] = math.NaN()
			}
		}
		for _, v := range [][]float64{dirty.rc[:cap(dirty.rc)], dirty.obj[:cap(dirty.obj)]} {
			for j := range v {
				v[j] = math.NaN()
			}
		}
		got := w.solveDeltaOn(dirty, rows, k, opts)
		want := w.solveDeltaOn(new(scratch), rows, k, opts)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: dirty scratch gives %+v, fresh %+v", trial, got, want)
		}
		ran++
	}
	if ran < 20 {
		t.Fatalf("only %d of 100 trials reached a warm delta solve", ran)
	}
}

// keptRows lowers a delta set into w and counts the tableau rows SolveRows
// would append for it (k), reporting a row the lowering found infeasible.
func keptRows(w *WarmStart, set []Constraint) (rows []*WarmRow, k int, infeasible bool) {
	for i := range set {
		r := w.LowerRow(&set[i])
		rows = append(rows, r)
		switch r.fate {
		case rowInfeasible:
			infeasible = true
		case rowKeep:
			k++
			if set[i].Rel == EQ {
				k++
			}
		}
	}
	return rows, k, infeasible
}
