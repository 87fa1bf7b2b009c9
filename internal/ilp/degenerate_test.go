package ilp

import (
	"math"
	"testing"
)

// TestBealeCycling solves Beale's classic cycling example, on which plain
// Dantzig pivoting loops forever without anti-cycling protection. The
// solver's Bland fallback must terminate at the optimum 1/20.
func TestBealeCycling(t *testing.T) {
	p := &Problem{
		Sense:     Maximize,
		NumVars:   4,
		Objective: map[int]float64{0: 0.75, 1: -150, 2: 0.02, 3: -6},
		Constraints: []Constraint{
			{Coeffs: map[int]float64{0: 0.25, 1: -60, 2: -0.04, 3: 9}, Rel: LE, RHS: 0},
			{Coeffs: map[int]float64{0: 0.5, 1: -90, 2: -0.02, 3: 3}, Rel: LE, RHS: 0},
			{Coeffs: map[int]float64{2: 1}, Rel: LE, RHS: 1},
		},
	}
	sol, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if math.Abs(sol.Objective-0.05) > 1e-9 {
		t.Fatalf("objective = %v, want 0.05", sol.Objective)
	}
}

// TestHighlyDegenerateFlow: many redundant equalities (each block equation
// stated twice) must not upset the simplex.
func TestHighlyDegenerateFlow(t *testing.T) {
	p := &Problem{
		Sense:     Maximize,
		NumVars:   3,
		Integer:   true,
		Objective: map[int]float64{0: 1, 1: 2, 2: 3},
	}
	rows := []Constraint{
		{Coeffs: map[int]float64{0: 1}, Rel: EQ, RHS: 4},
		{Coeffs: map[int]float64{0: 1, 1: -1}, Rel: EQ, RHS: 0},
		{Coeffs: map[int]float64{1: 1, 2: -1}, Rel: EQ, RHS: 0},
	}
	// State each row twice, plus a redundant <= version.
	for _, r := range rows {
		p.Constraints = append(p.Constraints, r, r)
		le := Constraint{Coeffs: r.Coeffs, Rel: LE, RHS: r.RHS}
		p.Constraints = append(p.Constraints, le)
	}
	sol, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal || math.Abs(sol.Objective-24) > 1e-6 {
		t.Fatalf("sol = %+v values %v", sol, sol.Values)
	}
	if !sol.Stats.RootIntegral {
		t.Fatal("degenerate flow needed branching")
	}
}

// TestZeroObjective: a pure feasibility problem.
func TestZeroObjective(t *testing.T) {
	p := &Problem{
		Sense:   Minimize,
		NumVars: 2,
		Constraints: []Constraint{
			{Coeffs: map[int]float64{0: 1, 1: 1}, Rel: EQ, RHS: 7},
		},
	}
	sol, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal || sol.Objective != 0 {
		t.Fatalf("sol = %+v", sol)
	}
	if !p.feasible(sol.Values, 1e-9) {
		t.Fatalf("infeasible point %v", sol.Values)
	}
}

// TestLargeScaleFlowChain: a longer chain keeps the incremental
// reduced-cost maintenance honest on a bigger tableau.
func TestLargeScaleFlowChain(t *testing.T) {
	const n = 120
	p := &Problem{Sense: Maximize, NumVars: n, Integer: true, Objective: map[int]float64{}}
	p.Constraints = append(p.Constraints, Constraint{
		Coeffs: map[int]float64{0: 1}, Rel: EQ, RHS: 3,
	})
	for i := 1; i < n; i++ {
		p.Constraints = append(p.Constraints, Constraint{
			Coeffs: map[int]float64{i - 1: 1, i: -1}, Rel: EQ, RHS: 0,
		})
		p.Objective[i] = float64(i % 5)
	}
	sol, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status %v", sol.Status)
	}
	want := 0.0
	for i := 1; i < n; i++ {
		want += 3 * float64(i%5)
	}
	if math.Abs(sol.Objective-want) > 1e-6 {
		t.Fatalf("objective %v, want %v", sol.Objective, want)
	}
	if !sol.Stats.RootIntegral {
		t.Fatal("chain needed branching")
	}
}
