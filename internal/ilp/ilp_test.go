package ilp

import (
	"math"
	"math/rand"
	"testing"
)

func c(coeffs map[int]float64, rel Relation, rhs float64) Constraint {
	return Constraint{Coeffs: coeffs, Rel: rel, RHS: rhs}
}

func mustSolve(t *testing.T, p *Problem) *Solution {
	t.Helper()
	sol, err := Solve(p)
	if err != nil {
		t.Fatalf("Solve: %v\n%s", err, p)
	}
	return sol
}

func TestSimpleLPMax(t *testing.T) {
	// max 3x + 2y s.t. x + y <= 4, x + 3y <= 6 -> x=4, y=0, obj 12.
	p := &Problem{
		Sense:     Maximize,
		NumVars:   2,
		Objective: map[int]float64{0: 3, 1: 2},
		Constraints: []Constraint{
			c(map[int]float64{0: 1, 1: 1}, LE, 4),
			c(map[int]float64{0: 1, 1: 3}, LE, 6),
		},
	}
	sol := mustSolve(t, p)
	if sol.Status != Optimal || math.Abs(sol.Objective-12) > 1e-6 {
		t.Fatalf("sol = %+v", sol)
	}
	if math.Abs(sol.Values[0]-4) > 1e-6 || math.Abs(sol.Values[1]) > 1e-6 {
		t.Fatalf("values = %v", sol.Values)
	}
}

func TestSimpleLPMin(t *testing.T) {
	// min x + y s.t. x + 2y >= 6, 3x + y >= 9 -> intersection (2.4, 1.8), obj 4.2.
	p := &Problem{
		Sense:     Minimize,
		NumVars:   2,
		Objective: map[int]float64{0: 1, 1: 1},
		Constraints: []Constraint{
			c(map[int]float64{0: 1, 1: 2}, GE, 6),
			c(map[int]float64{0: 3, 1: 1}, GE, 9),
		},
	}
	sol := mustSolve(t, p)
	if sol.Status != Optimal || math.Abs(sol.Objective-4.2) > 1e-6 {
		t.Fatalf("sol = %+v (values %v)", sol, sol.Values)
	}
}

func TestEqualityConstraints(t *testing.T) {
	// max x + y s.t. x + y = 5, x - y = 1 -> x=3, y=2.
	p := &Problem{
		Sense:     Maximize,
		NumVars:   2,
		Objective: map[int]float64{0: 1, 1: 1},
		Constraints: []Constraint{
			c(map[int]float64{0: 1, 1: 1}, EQ, 5),
			c(map[int]float64{0: 1, 1: -1}, EQ, 1),
		},
	}
	sol := mustSolve(t, p)
	if sol.Status != Optimal || math.Abs(sol.Values[0]-3) > 1e-6 || math.Abs(sol.Values[1]-2) > 1e-6 {
		t.Fatalf("sol = %+v values %v", sol, sol.Values)
	}
}

func TestInfeasible(t *testing.T) {
	p := &Problem{
		Sense:     Maximize,
		NumVars:   1,
		Objective: map[int]float64{0: 1},
		Constraints: []Constraint{
			c(map[int]float64{0: 1}, LE, 3),
			c(map[int]float64{0: 1}, GE, 5),
		},
	}
	if sol := mustSolve(t, p); sol.Status != Infeasible {
		t.Fatalf("status = %v", sol.Status)
	}
}

func TestUnbounded(t *testing.T) {
	p := &Problem{
		Sense:     Maximize,
		NumVars:   2,
		Objective: map[int]float64{0: 1},
		Constraints: []Constraint{
			c(map[int]float64{1: 1}, LE, 3),
		},
	}
	if sol := mustSolve(t, p); sol.Status != Unbounded {
		t.Fatalf("status = %v", sol.Status)
	}
	// Unbounded must also be detected for integer problems.
	p.Integer = true
	if sol := mustSolve(t, p); sol.Status != Unbounded {
		t.Fatalf("integer status = %v", sol.Status)
	}
}

func TestNegativeRHSNormalization(t *testing.T) {
	// x - y <= -2 with x,y >= 0: max x + y s.t. y - x >= 2, y <= 5.
	p := &Problem{
		Sense:     Maximize,
		NumVars:   2,
		Objective: map[int]float64{0: 1, 1: 1},
		Constraints: []Constraint{
			c(map[int]float64{0: 1, 1: -1}, LE, -2),
			c(map[int]float64{1: 1}, LE, 5),
		},
	}
	sol := mustSolve(t, p)
	if sol.Status != Optimal || math.Abs(sol.Objective-8) > 1e-6 {
		t.Fatalf("sol = %+v values %v", sol, sol.Values)
	}
}

func TestIntegerKnapsack(t *testing.T) {
	// max 8x + 11y + 6z + 4w s.t. 5x + 7y + 4z + 3w <= 14, x..w <= 1.
	// LP relaxation is fractional; integer optimum is 21 (x=0,y=1,z=1,w=1).
	p := &Problem{
		Sense:     Maximize,
		NumVars:   4,
		Integer:   true,
		Objective: map[int]float64{0: 8, 1: 11, 2: 6, 3: 4},
		Constraints: []Constraint{
			c(map[int]float64{0: 5, 1: 7, 2: 4, 3: 3}, LE, 14),
			c(map[int]float64{0: 1}, LE, 1),
			c(map[int]float64{1: 1}, LE, 1),
			c(map[int]float64{2: 1}, LE, 1),
			c(map[int]float64{3: 1}, LE, 1),
		},
	}
	sol := mustSolve(t, p)
	if sol.Status != Optimal || math.Abs(sol.Objective-21) > 1e-6 {
		t.Fatalf("sol = %+v values %v", sol, sol.Values)
	}
	if sol.Stats.RootIntegral {
		t.Fatal("knapsack root should be fractional")
	}
	if sol.Stats.Branches == 0 {
		t.Fatal("expected branching")
	}
	if !p.feasible(sol.Values, 1e-6) {
		t.Fatalf("solution infeasible: %v", sol.Values)
	}
}

func TestIntegerInfeasible(t *testing.T) {
	// 2x = 3 has no integer (or any) solution with x integer: LP gives
	// x = 1.5 and branching makes both children infeasible.
	p := &Problem{
		Sense:     Maximize,
		NumVars:   1,
		Integer:   true,
		Objective: map[int]float64{0: 1},
		Constraints: []Constraint{
			c(map[int]float64{0: 2}, EQ, 3),
		},
	}
	if sol := mustSolve(t, p); sol.Status != Infeasible {
		t.Fatalf("status = %v", sol.Status)
	}
}

// TestNetworkFlowRootIntegral checks the paper's observation: flow
// conservation constraint matrices are totally unimodular, so the first LP
// relaxation is already integral.
func TestNetworkFlowRootIntegral(t *testing.T) {
	// Variables: x1..x4 block counts, d-edges of the Fig. 2 diamond.
	// x0 = 1 (entry); x0 = d1 + d2; x1 = d1; x2 = d2; x3 = d1' + d2'...
	// Simplified: x0=1, x1+x2 = x0, x3 = x1+x2; max 10x0+5x1+2x2+7x3.
	p := &Problem{
		Sense:     Maximize,
		NumVars:   4,
		Integer:   true,
		Objective: map[int]float64{0: 10, 1: 5, 2: 2, 3: 7},
		Constraints: []Constraint{
			c(map[int]float64{0: 1}, EQ, 1),
			c(map[int]float64{1: 1, 2: 1, 0: -1}, EQ, 0),
			c(map[int]float64{3: 1, 1: -1, 2: -1}, EQ, 0),
		},
	}
	sol := mustSolve(t, p)
	if sol.Status != Optimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if !sol.Stats.RootIntegral {
		t.Fatal("flow problem root not integral")
	}
	if sol.Stats.LPSolves != 1 {
		t.Fatalf("LPSolves = %d, want 1", sol.Stats.LPSolves)
	}
	if math.Abs(sol.Objective-22) > 1e-6 { // takes the x1 branch
		t.Fatalf("objective = %v, values %v", sol.Objective, sol.Values)
	}
}

func TestValidateErrors(t *testing.T) {
	bad := []*Problem{
		{NumVars: 0},
		{NumVars: 2, Objective: map[int]float64{5: 1}},
		{NumVars: 2, Objective: map[int]float64{0: math.NaN()}},
		{NumVars: 1, Constraints: []Constraint{c(map[int]float64{3: 1}, LE, 1)}},
		{NumVars: 1, Constraints: []Constraint{c(map[int]float64{0: 1}, LE, math.Inf(1))}},
	}
	for i, p := range bad {
		if _, err := Solve(p); err == nil {
			t.Errorf("case %d: Solve accepted invalid problem", i)
		}
	}
}

// bruteForce finds the integer optimum by enumerating the box [0,ub]^n.
func bruteForce(p *Problem, ub int) (bool, float64, []float64) {
	n := p.NumVars
	x := make([]float64, n)
	best := make([]float64, n)
	found := false
	bestObj := 0.0
	var rec func(i int)
	rec = func(i int) {
		if i == n {
			if !p.feasible(x, 1e-9) {
				return
			}
			obj := p.evalObjective(x)
			if !found ||
				(p.Sense == Maximize && obj > bestObj) ||
				(p.Sense == Minimize && obj < bestObj) {
				found = true
				bestObj = obj
				copy(best, x)
			}
			return
		}
		for v := 0; v <= ub; v++ {
			x[i] = float64(v)
			rec(i + 1)
		}
	}
	rec(0)
	return found, bestObj, best
}

// TestRandomILPsAgainstBruteForce cross-checks the solver against exhaustive
// search on small random problems.
func TestRandomILPsAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const ub = 4
	for trial := 0; trial < 150; trial++ {
		n := 2 + rng.Intn(2) // 2-3 vars
		p := &Problem{
			Sense:     Sense(rng.Intn(2)),
			NumVars:   n,
			Integer:   true,
			Objective: map[int]float64{},
		}
		for i := 0; i < n; i++ {
			p.Objective[i] = float64(rng.Intn(11) - 5)
			// Box constraint keeps everything bounded.
			p.Constraints = append(p.Constraints, c(map[int]float64{i: 1}, LE, ub))
		}
		rows := 1 + rng.Intn(3)
		for r := 0; r < rows; r++ {
			coeffs := map[int]float64{}
			for i := 0; i < n; i++ {
				if rng.Intn(2) == 0 {
					coeffs[i] = float64(rng.Intn(7) - 3)
				}
			}
			if len(coeffs) == 0 {
				coeffs[0] = 1
			}
			rel := Relation(rng.Intn(3))
			rhs := float64(rng.Intn(13) - 4)
			p.Constraints = append(p.Constraints, c(coeffs, rel, rhs))
		}

		wantFound, wantObj, _ := bruteForce(p, ub)
		sol, err := Solve(p)
		if err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, p)
		}
		if !wantFound {
			if sol.Status == Optimal {
				t.Fatalf("trial %d: solver found %v/%v but brute force says infeasible\n%s",
					trial, sol.Objective, sol.Values, p)
			}
			continue
		}
		if sol.Status != Optimal {
			t.Fatalf("trial %d: solver says %v but brute force found obj %v\n%s",
				trial, sol.Status, wantObj, p)
		}
		if math.Abs(sol.Objective-wantObj) > 1e-6 {
			t.Fatalf("trial %d: solver obj %v != brute force %v (values %v)\n%s",
				trial, sol.Objective, wantObj, sol.Values, p)
		}
		if !p.feasible(sol.Values, 1e-6) {
			t.Fatalf("trial %d: solver values infeasible: %v\n%s", trial, sol.Values, p)
		}
	}
}

// TestRandomLPsSanity: for pure LPs, verify returned points are feasible
// and at least as good as a sample of random feasible lattice points.
func TestRandomLPsSanity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		n := 2 + rng.Intn(3)
		p := &Problem{
			Sense:     Maximize,
			NumVars:   n,
			Objective: map[int]float64{},
		}
		for i := 0; i < n; i++ {
			p.Objective[i] = float64(rng.Intn(9) - 4)
			p.Constraints = append(p.Constraints, c(map[int]float64{i: 1}, LE, float64(1+rng.Intn(8))))
		}
		sol, err := Solve(p)
		if err != nil {
			t.Fatal(err)
		}
		if sol.Status != Optimal {
			t.Fatalf("trial %d: status %v\n%s", trial, sol.Status, p)
		}
		if !p.feasible(sol.Values, 1e-6) {
			t.Fatalf("trial %d: infeasible optimum\n%s", trial, p)
		}
		// Sample feasible points; none may beat the reported optimum.
		for s := 0; s < 50; s++ {
			x := make([]float64, n)
			for i := range x {
				x[i] = float64(rng.Intn(9))
			}
			if p.feasible(x, 1e-9) && p.evalObjective(x) > sol.Objective+1e-6 {
				t.Fatalf("trial %d: point %v beats optimum %v\n%s", trial, x, sol.Objective, p)
			}
		}
	}
}

func TestStringRendering(t *testing.T) {
	p := &Problem{
		Sense:     Maximize,
		NumVars:   3,
		Objective: map[int]float64{0: 1, 2: -2.5},
		Constraints: []Constraint{
			{Coeffs: map[int]float64{0: 1, 1: -1}, Rel: LE, RHS: 4, Name: "flow"},
			{Coeffs: map[int]float64{}, Rel: EQ, RHS: 0},
		},
	}
	s := p.String()
	for _, want := range []string{"max", "x0", "- 2.5 x2", "<= 4", "; flow", "0 = 0"} {
		if !contains(s, want) {
			t.Errorf("String() missing %q:\n%s", want, s)
		}
	}
}

// TestDegenerateProblems pins the documented behavior on empty and
// near-empty inputs: NumVars == 0 is a distinct Validate error (never a
// silent Optimal 0), an empty constraint list resolves at the origin
// (Unbounded when the objective improves off it, Optimal 0 otherwise), and
// single-row constant or degenerate systems get their mathematically
// correct status.
func TestDegenerateProblems(t *testing.T) {
	cases := []struct {
		name    string
		p       *Problem
		wantErr bool
		status  Status
		obj     float64
	}{
		{
			name:    "no variables",
			p:       &Problem{NumVars: 0, Sense: Maximize},
			wantErr: true,
		},
		{
			name:    "no variables with constraints",
			p:       &Problem{NumVars: 0, Constraints: []Constraint{c(map[int]float64{}, LE, 1)}},
			wantErr: true,
		},
		{
			name:   "empty constraints improving objective",
			p:      &Problem{NumVars: 1, Sense: Maximize, Objective: map[int]float64{0: 1}},
			status: Unbounded,
		},
		{
			name:   "empty constraints minimizing",
			p:      &Problem{NumVars: 1, Sense: Minimize, Objective: map[int]float64{0: 1}},
			status: Optimal, obj: 0,
		},
		{
			name:   "empty constraints worsening objective",
			p:      &Problem{NumVars: 2, Sense: Maximize, Objective: map[int]float64{0: -3, 1: -1}},
			status: Optimal, obj: 0,
		},
		{
			name:   "empty constraints zero objective",
			p:      &Problem{NumVars: 3, Sense: Maximize},
			status: Optimal, obj: 0,
		},
		{
			name: "single constant row infeasible",
			p: &Problem{NumVars: 1, Sense: Maximize, Objective: map[int]float64{0: 1},
				Constraints: []Constraint{c(map[int]float64{}, GE, 5)}},
			status: Infeasible,
		},
		{
			name: "single constant row redundant",
			p: &Problem{NumVars: 1, Sense: Minimize, Objective: map[int]float64{0: 2},
				Constraints: []Constraint{c(map[int]float64{}, LE, 5)}},
			status: Optimal, obj: 0,
		},
		{
			name: "single trivial equality",
			p: &Problem{NumVars: 1, Sense: Minimize, Objective: map[int]float64{0: 1},
				Constraints: []Constraint{c(map[int]float64{}, EQ, 0)}},
			status: Optimal, obj: 0,
		},
		{
			name: "single row pins variable",
			p: &Problem{NumVars: 1, Sense: Maximize, Objective: map[int]float64{0: 7},
				Constraints: []Constraint{c(map[int]float64{0: 1}, EQ, 3)}},
			status: Optimal, obj: 21,
		},
		{
			name: "single row all coefficients zero with nonzero rhs",
			p: &Problem{NumVars: 2, Sense: Maximize, Objective: map[int]float64{0: 1},
				Constraints: []Constraint{c(map[int]float64{0: 0, 1: 0}, EQ, 4)}},
			status: Infeasible,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sol, err := Solve(tc.p)
			if tc.wantErr {
				if err == nil {
					t.Fatalf("Solve accepted %s (got %+v)", tc.name, sol)
				}
				return
			}
			if err != nil {
				t.Fatalf("Solve: %v", err)
			}
			if sol.Status != tc.status {
				t.Fatalf("status = %v, want %v", sol.Status, tc.status)
			}
			if tc.status == Optimal && math.Abs(sol.Objective-tc.obj) > 1e-6 {
				t.Fatalf("objective = %v, want %v", sol.Objective, tc.obj)
			}
			// The degenerate paths must agree with the dense oracle too.
			dStatus, dObj, _, _ := denseSimplex(tc.p)
			if dStatus != tc.status || (tc.status == Optimal && math.Abs(dObj-tc.obj) > 1e-6) {
				t.Fatalf("dense oracle disagrees: %v %v", dStatus, dObj)
			}
		})
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (func() bool {
		for i := 0; i+len(sub) <= len(s); i++ {
			if s[i:i+len(sub)] == sub {
				return true
			}
		}
		return false
	})()
}
