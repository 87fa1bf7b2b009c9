package ilp

import (
	"math"
	"math/rand"
	"testing"
)

// warmBase builds a bounded random base problem in the shape the analysis
// produces: a shared Prefix of equality/inequality rows plus box bounds
// that keep every direction bounded.
func warmBase(rng *rand.Rand, sense Sense, n int) *Problem {
	var rows []Constraint
	// Box bounds guarantee a bounded polytope.
	for j := 0; j < n; j++ {
		rows = append(rows, c(map[int]float64{j: 1}, LE, float64(3+rng.Intn(8))))
	}
	// A few coupling rows, including equalities (like flow conservation).
	for i := 0; i < n; i++ {
		coeffs := map[int]float64{}
		for j := 0; j < n; j++ {
			if rng.Intn(3) == 0 {
				coeffs[j] = float64(rng.Intn(5) - 2)
			}
		}
		if len(coeffs) == 0 {
			continue
		}
		rel := []Relation{LE, GE, EQ}[rng.Intn(3)]
		rhs := float64(rng.Intn(12))
		if rel == GE {
			rhs = 0 // keep the base feasible: every lhs >= 0 at the origin... not
			// generally true with negative coefficients, so use a small rhs.
			rhs = -float64(rng.Intn(4))
		}
		if rel == EQ {
			// x_a - x_b = 0 style rows are always satisfiable inside the box.
			coeffs = map[int]float64{rng.Intn(n): 1, (1 + rng.Intn(n-1)) % n: -1}
			rhs = 0
		}
		rows = append(rows, c(coeffs, rel, rhs))
	}
	obj := map[int]float64{}
	for j := 0; j < n; j++ {
		obj[j] = float64(rng.Intn(9) - 2)
	}
	return &Problem{
		Sense:     sense,
		NumVars:   n,
		Objective: obj,
		Prefix:    Pack(rows),
	}
}

func randomDelta(rng *rand.Rand, n int) []Constraint {
	k := 1 + rng.Intn(3)
	var set []Constraint
	for i := 0; i < k; i++ {
		coeffs := map[int]float64{}
		for j := 0; j < n; j++ {
			if rng.Intn(2) == 0 {
				coeffs[j] = float64(rng.Intn(5) - 2)
			}
		}
		if len(coeffs) == 0 {
			coeffs[rng.Intn(n)] = 1
		}
		rel := []Relation{LE, GE, EQ}[rng.Intn(3)]
		rhs := float64(rng.Intn(10) - 2)
		set = append(set, c(coeffs, rel, rhs))
	}
	return set
}

// TestWarmStartAgainstCold is the warm-path differential: many random
// (base, delta-set) pairs, both senses, warm dual-simplex result compared
// to the cold two-phase solve of the identical problem — with the
// dense-oracle self-check enabled so all three solvers must agree, and
// every unique claim must be the cold point.
func TestWarmStartAgainstCold(t *testing.T) {
	SetSelfCheck(true)
	defer SetSelfCheck(false)
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		sense := Maximize
		if trial%2 == 1 {
			sense = Minimize
		}
		n := 3 + rng.Intn(5)
		base := warmBase(rng, sense, n)
		w := NewWarmStart(base)
		if !w.Ready() {
			// Base infeasible/unbounded by construction is rare but legal;
			// the caller would go cold. Nothing warm to verify.
			continue
		}
		for si := 0; si < 4; si++ {
			set := randomDelta(rng, n)
			cold := &Problem{
				Sense: sense, NumVars: n, Objective: base.Objective,
				Prefix: base.Prefix, Constraints: set,
			}
			cStatus, cObj, _, _ := simplex(cold)
			status, obj, x, _, ok := w.SolveSet(set, 0, false)
			if !ok {
				t.Fatalf("trial %d set %d: warm solve gave up", trial, si)
			}
			if status != cStatus {
				t.Fatalf("trial %d set %d: warm %v, cold %v on\n%s", trial, si, status, cStatus, unpackProblem(cold))
			}
			if status == Optimal {
				if math.Abs(obj-cObj) > 1e-6 {
					t.Fatalf("trial %d set %d: warm obj %.9g, cold %.9g", trial, si, obj, cObj)
				}
				if !cold.Feasible(x, 1e-6) {
					t.Fatalf("trial %d set %d: warm optimum violates constraints: %v", trial, si, x)
				}
			}
		}
	}
}

// TestWarmStartCutoff: the incumbent cutoff must return Dominated exactly
// when the optimum is strictly worse than the cutoff, and never lie.
func TestWarmStartCutoff(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 100; trial++ {
		sense := Maximize
		if trial%2 == 1 {
			sense = Minimize
		}
		n := 3 + rng.Intn(4)
		base := warmBase(rng, sense, n)
		w := NewWarmStart(base)
		if !w.Ready() {
			continue
		}
		set := randomDelta(rng, n)
		status, obj, _, _, ok := w.SolveSet(set, 0, false)
		if !ok || status != Optimal {
			continue
		}
		// A cutoff strictly beyond the optimum must dominate the set; one
		// strictly behind it must let the solve finish with the same value.
		var beyond, behind float64
		if sense == Maximize {
			beyond, behind = obj+1, obj-1
		} else {
			beyond, behind = obj-1, obj+1
		}
		if st, _, _, _, ok := w.SolveSet(set, beyond, true); !ok || st != Dominated {
			t.Fatalf("trial %d: cutoff %.9g past optimum %.9g: status %v ok=%v", trial, beyond, obj, st, ok)
		}
		st, got, _, _, ok := w.SolveSet(set, behind, true)
		if !ok || st != Optimal || math.Abs(got-obj) > 1e-6 {
			t.Fatalf("trial %d: cutoff %.9g behind optimum %.9g: status %v obj %.9g", trial, behind, obj, st, got)
		}
	}
}

// TestWarmStartEmptyAndInfeasibleSets covers the degenerate delta shapes
// the analysis produces: an empty set (base answer reused) and a set that
// contradicts the base.
func TestWarmStartEmptyAndInfeasibleSets(t *testing.T) {
	base := &Problem{
		Sense:     Maximize,
		NumVars:   2,
		Objective: map[int]float64{0: 3, 1: 2},
		Prefix: Pack([]Constraint{
			c(map[int]float64{0: 1, 1: 1}, LE, 4),
			c(map[int]float64{0: 1, 1: 3}, LE, 6),
		}),
	}
	w := NewWarmStart(base)
	if !w.Ready() {
		t.Fatalf("base not ready: %v", w.BaseStatus())
	}
	status, obj, x, pivots, ok := w.SolveSet(nil, 0, false)
	if !ok || status != Optimal || math.Abs(obj-12) > 1e-6 || pivots != 0 {
		t.Fatalf("empty set: %v obj=%v pivots=%d ok=%v", status, obj, pivots, ok)
	}
	if math.Abs(x[0]-4) > 1e-6 {
		t.Fatalf("empty set values: %v", x)
	}
	status, _, _, _, ok = w.SolveSet([]Constraint{
		c(map[int]float64{0: 1, 1: 1}, GE, 100),
	}, 0, false)
	if !ok || status != Infeasible {
		t.Fatalf("contradictory set: %v ok=%v", status, ok)
	}
	// Equality deltas pin the optimum to an interior face: with x0 = 1 the
	// binding row is x0 + 3 x1 <= 6, so x1 = 5/3 and the objective is 19/3.
	status, obj, _, _, ok = w.SolveSet([]Constraint{
		c(map[int]float64{0: 1}, EQ, 1),
	}, 0, false)
	if !ok || status != Optimal || math.Abs(obj-19.0/3) > 1e-6 {
		t.Fatalf("equality set: %v obj=%v ok=%v (want 19/3)", status, obj, ok)
	}
}

// TestSolveCtxOptsCutoff: the cold path's cutoff mirrors the warm one at
// the integer level.
func TestSolveCtxOptsCutoff(t *testing.T) {
	p := &Problem{
		Sense:     Maximize,
		NumVars:   2,
		Integer:   true,
		Objective: map[int]float64{0: 3, 1: 2},
		Constraints: []Constraint{
			c(map[int]float64{0: 1, 1: 1}, LE, 4),
		},
	}
	sol, err := SolveCtxOpts(t.Context(), p, SolveOptions{Cutoff: 13, UseCutoff: true})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Dominated {
		t.Fatalf("cutoff above optimum: %+v", sol)
	}
	sol, err = SolveCtxOpts(t.Context(), p, SolveOptions{Cutoff: 11, UseCutoff: true})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal || math.Abs(sol.Objective-12) > 1e-6 {
		t.Fatalf("cutoff below optimum: %+v", sol)
	}
}
