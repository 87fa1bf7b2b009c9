package ilp

import (
	"math"
	"math/rand"
	"testing"
)

// presolveProblem packs base rows for presolve the way the analysis does.
func presolveProblem(sense Sense, nVars int, obj map[int]float64, rows []Constraint) *Problem {
	return &Problem{
		Sense:     sense,
		NumVars:   nVars,
		Objective: obj,
		Prefix:    Pack(rows),
	}
}

func TestPresolveFixAndSubstitute(t *testing.T) {
	// x0 = 1 (root), x1 = x0's flow via x1 - x2 = 0, x3 <= 5, x4 fixed by
	// x4 = 2*x0. Reduced space should keep one column for {x1,x2} and one
	// for x3.
	p := presolveProblem(Maximize, 5, map[int]float64{0: 10, 1: 3, 2: 4, 3: 1, 4: 2},
		[]Constraint{
			{Coeffs: map[int]float64{0: 1}, Rel: EQ, RHS: 1},
			{Coeffs: map[int]float64{1: 1, 2: -1}, Rel: EQ, RHS: 0},
			{Coeffs: map[int]float64{3: 1}, Rel: LE, RHS: 5},
			{Coeffs: map[int]float64{4: 1, 0: -2}, Rel: EQ, RHS: 0},
			{Coeffs: map[int]float64{1: 1}, Rel: LE, RHS: 7},
		})
	red, infeasible := presolveRows(p.Prefix, p.NumVars)
	if infeasible {
		t.Fatalf("presolve reported infeasible")
	}
	if red == nil {
		t.Fatalf("presolve eliminated nothing")
	}
	if red.nRed != 2 {
		t.Fatalf("nRed = %d, want 2", red.nRed)
	}
	if red.col[0] != -1 || red.fixed[0] != 1 {
		t.Errorf("x0: col %d fixed %g, want fixed 1", red.col[0], red.fixed[0])
	}
	if red.col[4] != -1 || red.fixed[4] != 2 {
		t.Errorf("x4: col %d fixed %g, want fixed 2", red.col[4], red.fixed[4])
	}
	if red.col[1] != red.col[2] || red.col[1] < 0 {
		t.Errorf("x1/x2 should share a reduced column, got %d/%d", red.col[1], red.col[2])
	}
	// Objective: 10*1 + 2*2 fixed offset, x1+x2 merge to 7 on one column.
	obj, off := red.lowerObjective(p.Objective)
	if off != 14 {
		t.Errorf("objOffset = %g, want 14", off)
	}
	if obj[int(red.col[1])] != 7 {
		t.Errorf("merged objective coefficient = %g, want 7", obj[int(red.col[1])])
	}
	// The two x0/x4 equalities and nothing else should drop; x1<=7 and
	// x3<=5 remain.
	if len(red.rows) != 2 {
		t.Errorf("reduced rows = %d, want 2", len(red.rows))
	}
}

func TestPresolveNullBranch(t *testing.T) {
	// x0 + x1 = 0 over nonnegative variables forces both to zero, which
	// then propagates through x2 - x1 = 0.
	p := presolveProblem(Maximize, 4, map[int]float64{3: 1},
		[]Constraint{
			{Coeffs: map[int]float64{0: 1, 1: 1}, Rel: EQ, RHS: 0},
			{Coeffs: map[int]float64{2: 1, 1: -1}, Rel: EQ, RHS: 0},
			{Coeffs: map[int]float64{3: 1}, Rel: LE, RHS: 9},
		})
	red, infeasible := presolveRows(p.Prefix, p.NumVars)
	if infeasible || red == nil {
		t.Fatalf("presolve failed: red=%v infeasible=%v", red, infeasible)
	}
	for v := 0; v <= 2; v++ {
		if red.col[v] != -1 || red.fixed[v] != 0 {
			t.Errorf("x%d: col %d fixed %g, want fixed 0", v, red.col[v], red.fixed[v])
		}
	}
	if red.nRed != 1 {
		t.Errorf("nRed = %d, want 1", red.nRed)
	}
}

func TestPresolveInfeasibleBase(t *testing.T) {
	// x0 = 1 and x0 = 2 contradict.
	p := presolveProblem(Maximize, 2, map[int]float64{1: 1},
		[]Constraint{
			{Coeffs: map[int]float64{0: 1}, Rel: EQ, RHS: 1},
			{Coeffs: map[int]float64{0: 1}, Rel: EQ, RHS: 2},
			{Coeffs: map[int]float64{1: 1}, Rel: LE, RHS: 3},
		})
	if _, infeasible := presolveRows(p.Prefix, p.NumVars); !infeasible {
		t.Fatalf("contradictory base not detected")
	}
	// A negative fixed value also contradicts nonnegativity.
	p = presolveProblem(Maximize, 2, map[int]float64{1: 1},
		[]Constraint{
			{Coeffs: map[int]float64{0: 1}, Rel: EQ, RHS: -1},
			{Coeffs: map[int]float64{1: 1}, Rel: LE, RHS: 3},
		})
	if _, infeasible := presolveRows(p.Prefix, p.NumVars); !infeasible {
		t.Fatalf("negative fixed value not detected")
	}
}

func TestPresolveDeltaLowering(t *testing.T) {
	p := presolveProblem(Maximize, 3, map[int]float64{1: 1, 2: 1},
		[]Constraint{
			{Coeffs: map[int]float64{0: 1}, Rel: EQ, RHS: 4},
			{Coeffs: map[int]float64{1: 1, 0: 1}, Rel: LE, RHS: 10},
			{Coeffs: map[int]float64{2: 1}, Rel: LE, RHS: 3},
		})
	red, infeasible := presolveRows(p.Prefix, p.NumVars)
	if infeasible || red == nil {
		t.Fatalf("presolve failed: red=%v infeasible=%v", red, infeasible)
	}
	// Delta pinning the fixed variable to its value: redundant.
	if _, _, _, fate := red.lowerDelta(&Constraint{Coeffs: map[int]float64{0: 1}, Rel: EQ, RHS: 4}); fate != rowRedundant {
		t.Errorf("consistent fixed-variable delta: fate %v, want redundant", fate)
	}
	// Delta pinning it elsewhere: infeasible.
	if _, _, _, fate := red.lowerDelta(&Constraint{Coeffs: map[int]float64{0: 1}, Rel: EQ, RHS: 5}); fate != rowInfeasible {
		t.Errorf("contradicting fixed-variable delta: fate %v, want infeasible", fate)
	}
	// Mixed delta keeps the live part with the fixed contribution folded
	// into the right-hand side.
	cols, vals, rhs, fate := red.lowerDelta(&Constraint{Coeffs: map[int]float64{0: 2, 1: 1}, Rel: LE, RHS: 11})
	if fate != rowKeep || rhs != 3 || len(cols) != 1 || cols[0] != red.col[1] || vals[0] != 1 {
		t.Errorf("mixed delta lowered to %v·%v <= %g (fate %v), want x'%d <= 3", vals, cols, rhs, fate, red.col[1])
	}
}

// TestPresolveWarmStartEquivalence replays random bases with presolvable
// structure (fixed roots, equal-pair rows, null branches) through the warm
// start and asserts the warm per-set solve agrees with the cold solver on
// status, objective, and feasibility of the returned point — the same
// contract the unreduced warm start honors.
func TestPresolveWarmStartEquivalence(t *testing.T) {
	SetSelfCheck(true)
	defer SetSelfCheck(false)
	rng := rand.New(rand.NewSource(0xC0FFEE))
	for trial := 0; trial < 150; trial++ {
		n := 4 + rng.Intn(5)
		obj := map[int]float64{}
		for j := 0; j < n; j++ {
			obj[j] = float64(rng.Intn(9) + 1)
		}
		rows := []Constraint{
			// Fixed root plus an equal pair referencing it downstream.
			{Coeffs: map[int]float64{0: 1}, Rel: EQ, RHS: float64(1 + rng.Intn(3))},
			{Coeffs: map[int]float64{1: 1, 2: -1}, Rel: EQ, RHS: 0},
		}
		for j := 0; j < n; j++ {
			// Box bounds at least as large as the fixed root's value so the
			// base stays feasible.
			rows = append(rows, Constraint{Coeffs: map[int]float64{j: 1}, Rel: LE, RHS: float64(3 + rng.Intn(8))})
		}
		if rng.Intn(2) == 0 && n > 4 {
			rows = append(rows, Constraint{Coeffs: map[int]float64{3: 1, 4: 1}, Rel: EQ, RHS: 0})
		}
		sense := Maximize
		if rng.Intn(2) == 0 {
			sense = Minimize
		}
		base := presolveProblem(sense, n, obj, rows)
		w := NewWarmStart(base, nil)
		if !w.Ready() {
			t.Fatalf("trial %d: warm start not ready (base status %v)", trial, w.baseStatus)
		}
		if w.red == nil {
			t.Fatalf("trial %d: presolve eliminated nothing on a reducible base", trial)
		}

		// Random delta set over ORIGINAL variable indices, including the
		// presolved-away ones.
		set := make([]Constraint, rng.Intn(3)+1)
		for i := range set {
			c := Constraint{Coeffs: map[int]float64{}, Rel: Relation(rng.Intn(3)), RHS: float64(rng.Intn(10))}
			for k := 0; k < 1+rng.Intn(2); k++ {
				c.Coeffs[rng.Intn(n)] = float64(rng.Intn(5) - 2)
			}
			set[i] = c
		}
		r := w.solveSet(set, SetSolveOptions{})
		status, objv, x := r.Status, r.Objective, r.X
		if !r.OK {
			t.Fatalf("trial %d: warm path gave up", trial)
		}
		cold := &Problem{Sense: sense, NumVars: n, Objective: obj, Prefix: base.Prefix, Constraints: set}
		cStatus, cObj, _, _ := simplex(cold)
		if status != cStatus {
			t.Fatalf("trial %d: warm %v, cold %v", trial, status, cStatus)
		}
		if status == Optimal {
			if math.Abs(objv-cObj) > 1e-6 {
				t.Fatalf("trial %d: warm obj %.9g, cold %.9g", trial, objv, cObj)
			}
			if !cold.feasible(x, 1e-6) {
				t.Fatalf("trial %d: reconstructed point infeasible: %v", trial, x)
			}
		}
	}
}
