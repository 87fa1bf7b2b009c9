package ilp

import (
	"context"
	"math"
	"math/rand"
	"testing"
)

// fixtureProblems collects the hand-written fixtures from the other test
// files plus a batch of random integer and pure-LP problems, so the
// sparse/dense differential runs over every shape the suite exercises.
func fixtureProblems() []*Problem {
	ps := []*Problem{
		{ // TestSimpleLPMax
			Sense: Maximize, NumVars: 2, Objective: map[int]float64{0: 3, 1: 2},
			Constraints: []Constraint{
				c(map[int]float64{0: 1, 1: 1}, LE, 4),
				c(map[int]float64{0: 1, 1: 3}, LE, 6),
			},
		},
		{ // TestSimpleLPMin
			Sense: Minimize, NumVars: 2, Objective: map[int]float64{0: 1, 1: 1},
			Constraints: []Constraint{
				c(map[int]float64{0: 1, 1: 2}, GE, 6),
				c(map[int]float64{0: 3, 1: 1}, GE, 9),
			},
		},
		{ // TestEqualityConstraints
			Sense: Maximize, NumVars: 2, Objective: map[int]float64{0: 1, 1: 1},
			Constraints: []Constraint{
				c(map[int]float64{0: 1, 1: 1}, EQ, 5),
				c(map[int]float64{0: 1, 1: -1}, EQ, 1),
			},
		},
		{ // TestInfeasible
			Sense: Maximize, NumVars: 1, Objective: map[int]float64{0: 1},
			Constraints: []Constraint{
				c(map[int]float64{0: 1}, LE, 3),
				c(map[int]float64{0: 1}, GE, 5),
			},
		},
		{ // TestUnbounded
			Sense: Maximize, NumVars: 2, Objective: map[int]float64{0: 1},
			Constraints: []Constraint{
				c(map[int]float64{1: 1}, LE, 3),
			},
		},
		{ // TestNegativeRHSNormalization
			Sense: Maximize, NumVars: 2, Objective: map[int]float64{0: 1, 1: 1},
			Constraints: []Constraint{
				c(map[int]float64{0: 1, 1: -1}, LE, -2),
				c(map[int]float64{1: 1}, LE, 5),
			},
		},
		{ // TestIntegerKnapsack relaxation
			Sense: Maximize, NumVars: 4, Objective: map[int]float64{0: 8, 1: 11, 2: 6, 3: 4},
			Constraints: []Constraint{
				c(map[int]float64{0: 5, 1: 7, 2: 4, 3: 3}, LE, 14),
				c(map[int]float64{0: 1}, LE, 1),
				c(map[int]float64{1: 1}, LE, 1),
				c(map[int]float64{2: 1}, LE, 1),
				c(map[int]float64{3: 1}, LE, 1),
			},
		},
		{ // TestNetworkFlowRootIntegral
			Sense: Maximize, NumVars: 4, Objective: map[int]float64{0: 10, 1: 5, 2: 2, 3: 7},
			Constraints: []Constraint{
				c(map[int]float64{0: 1}, EQ, 1),
				c(map[int]float64{1: 1, 2: 1, 0: -1}, EQ, 0),
				c(map[int]float64{3: 1, 1: -1, 2: -1}, EQ, 0),
			},
		},
		{ // TestBealeCycling
			Sense: Maximize, NumVars: 4, Objective: map[int]float64{0: 0.75, 1: -150, 2: 0.02, 3: -6},
			Constraints: []Constraint{
				{Coeffs: map[int]float64{0: 0.25, 1: -60, 2: -0.04, 3: 9}, Rel: LE, RHS: 0},
				{Coeffs: map[int]float64{0: 0.5, 1: -90, 2: -0.02, 3: 3}, Rel: LE, RHS: 0},
				{Coeffs: map[int]float64{2: 1}, Rel: LE, RHS: 1},
			},
		},
		{ // TestZeroObjective
			Sense: Minimize, NumVars: 2,
			Constraints: []Constraint{
				{Coeffs: map[int]float64{0: 1, 1: 1}, Rel: EQ, RHS: 7},
			},
		},
	}

	// The degenerate flow of TestHighlyDegenerateFlow.
	deg := &Problem{Sense: Maximize, NumVars: 3, Objective: map[int]float64{0: 1, 1: 2, 2: 3}}
	for _, r := range []Constraint{
		{Coeffs: map[int]float64{0: 1}, Rel: EQ, RHS: 4},
		{Coeffs: map[int]float64{0: 1, 1: -1}, Rel: EQ, RHS: 0},
		{Coeffs: map[int]float64{1: 1, 2: -1}, Rel: EQ, RHS: 0},
	} {
		deg.Constraints = append(deg.Constraints, r, r,
			Constraint{Coeffs: r.Coeffs, Rel: LE, RHS: r.RHS})
	}
	ps = append(ps, deg)

	// The long flow chain of TestLargeScaleFlowChain.
	chain := &Problem{Sense: Maximize, NumVars: 120, Objective: map[int]float64{}}
	chain.Constraints = append(chain.Constraints, Constraint{Coeffs: map[int]float64{0: 1}, Rel: EQ, RHS: 3})
	for i := 1; i < chain.NumVars; i++ {
		chain.Constraints = append(chain.Constraints, Constraint{
			Coeffs: map[int]float64{i - 1: 1, i: -1}, Rel: EQ, RHS: 0,
		})
		chain.Objective[i] = float64(i % 5)
	}
	ps = append(ps, chain)

	// Random problems in the style of TestRandomILPsAgainstBruteForce.
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(3)
		p := &Problem{Sense: Sense(rng.Intn(2)), NumVars: n, Objective: map[int]float64{}}
		for i := 0; i < n; i++ {
			p.Objective[i] = float64(rng.Intn(11) - 5)
			p.Constraints = append(p.Constraints, c(map[int]float64{i: 1}, LE, float64(1+rng.Intn(6))))
		}
		for r := 0; r < 1+rng.Intn(3); r++ {
			coeffs := map[int]float64{}
			for i := 0; i < n; i++ {
				if rng.Intn(2) == 0 {
					coeffs[i] = float64(rng.Intn(7) - 3)
				}
			}
			if len(coeffs) == 0 {
				coeffs[0] = 1
			}
			p.Constraints = append(p.Constraints, c(coeffs, Relation(rng.Intn(3)), float64(rng.Intn(13)-4)))
		}
		ps = append(ps, p)
	}
	return ps
}

// TestSparseDenseDifferential asserts the production sparse simplex and the
// retained dense oracle agree — identical status, objective within 1e-6 —
// on every fixture, both with plain constraints and with the rows packed
// into a Prefix.
func TestSparseDenseDifferential(t *testing.T) {
	for i, p := range fixtureProblems() {
		dStatus, dObj, _, _ := denseSimplex(p)

		st, obj, x, _ := sparseSimplex(p)
		if st != dStatus {
			t.Fatalf("fixture %d: sparse status %v, dense %v\n%s", i, st, dStatus, p)
		}
		if st == Optimal {
			if math.Abs(obj-dObj) > 1e-6 {
				t.Fatalf("fixture %d: sparse obj %v, dense %v\n%s", i, obj, dObj, p)
			}
			if !p.feasible(x, 1e-6) {
				t.Fatalf("fixture %d: sparse optimum infeasible: %v\n%s", i, x, p)
			}
		}

		// Same problem with every row pre-lowered into the Prefix.
		packed := &Problem{
			Sense: p.Sense, NumVars: p.NumVars, Objective: p.Objective,
			Prefix: Pack(p.Constraints),
		}
		pst, pobj, px, _ := sparseSimplex(packed)
		if pst != dStatus {
			t.Fatalf("fixture %d (packed): status %v, dense %v\n%s", i, pst, dStatus, p)
		}
		if pst == Optimal {
			if math.Abs(pobj-dObj) > 1e-6 {
				t.Fatalf("fixture %d (packed): obj %v, dense %v\n%s", i, pobj, dObj, p)
			}
			if !packed.feasible(px, 1e-6) {
				t.Fatalf("fixture %d (packed): optimum infeasible: %v", i, px)
			}
		}

		// Split: half the rows packed, half raw — the production layout of
		// package ipet (shared prefix + per-set tail).
		half := len(p.Constraints) / 2
		split := &Problem{
			Sense: p.Sense, NumVars: p.NumVars, Objective: p.Objective,
			Prefix:      Pack(p.Constraints[:half]),
			Constraints: p.Constraints[half:],
		}
		sst, sobj, _, _ := sparseSimplex(split)
		if sst != dStatus || (sst == Optimal && math.Abs(sobj-dObj) > 1e-6) {
			t.Fatalf("fixture %d (split): %v %v vs dense %v %v\n%s", i, sst, sobj, dStatus, dObj, p)
		}
	}
}

// TestSelfCheckSolve runs integer solves through Solve with the built-in
// sparse/dense self-check armed, covering the branch-and-bound re-solve
// path (which shares the Prefix across nodes).
func TestSelfCheckSolve(t *testing.T) {
	SetSelfCheck(true)
	defer SetSelfCheck(false)
	for i, p := range fixtureProblems() {
		q := &Problem{
			Sense: p.Sense, NumVars: p.NumVars, Objective: p.Objective,
			Prefix: Pack(p.Constraints),
		}
		// Branch and bound only over fixtures where every variable carries
		// an upper bound (unboxed integer problems, e.g. Beale's, can
		// branch astronomically).
		boxed := make([]bool, p.NumVars)
		for _, c := range p.Constraints {
			if len(c.Coeffs) == 1 && c.Rel == LE && c.RHS >= 0 {
				for v, coef := range c.Coeffs {
					if coef > 0 {
						boxed[v] = true
					}
				}
			}
		}
		q.Integer = true
		for _, b := range boxed {
			if !b {
				q.Integer = false
				break
			}
		}
		if _, err := SolveCtx(context.Background(), q); err != nil {
			t.Fatalf("fixture %d: %v\n%s", i, err, p)
		}
	}
}

// TestPackNormalization checks Pack's sign normalization and zero dropping.
func TestPackNormalization(t *testing.T) {
	rows := Pack([]Constraint{
		{Coeffs: map[int]float64{2: 1, 0: -1, 1: 0}, Rel: LE, RHS: -2},
		{Coeffs: map[int]float64{0: 3}, Rel: GE, RHS: 6},
	})
	r := rows[0]
	if r.RHS != 2 || r.Rel != GE {
		t.Fatalf("row 0 not normalized: %+v", r)
	}
	if len(r.Cols) != 2 || r.Cols[0] != 0 || r.Cols[1] != 2 || r.Vals[0] != 1 || r.Vals[1] != -1 {
		t.Fatalf("row 0 cols/vals wrong: %+v", r)
	}
	if got := r.unpack(); got.Coeffs[0] != 1 || got.Coeffs[2] != -1 || got.RHS != 2 || got.Rel != GE {
		t.Fatalf("unpack mismatch: %+v", got)
	}
	if rows[1].RHS != 6 || rows[1].Rel != GE || rows[1].Vals[0] != 3 {
		t.Fatalf("row 1 wrong: %+v", rows[1])
	}
}
