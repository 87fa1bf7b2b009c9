package certify

import (
	"context"
	"math/big"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"cinderella/internal/ilp"
)

// seedPiece runs the seed solve of p at theta and derives its piece.
func seedPiece(p *ilp.Problem, rhsCoef [][]int64, theta []int64) (*ilp.ParamPiece, *ilp.Certificate, error) {
	status, _, cert, err := ilp.SolveSeed(ilp.Concretize(p, rhsCoef, theta))
	if err != nil {
		return nil, nil, err
	}
	if status == ilp.Unbounded {
		return nil, nil, nil
	}
	pc, err := DerivePiece(p, rhsCoef, theta, cert)
	return pc, cert, err
}

// TestParametricAgainstDense enumerates parametric pieces of random
// integer-data problems over a 1-D and 2-D parameter grid and checks every
// claim against the exact simplex run on the concretized problem: a
// feasible piece's affine value must equal the exact optimum at every
// covered grid point, and an infeasibility piece must only cover points the
// exact solver also rejects.
func TestParametricAgainstDense(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	trials := 150
	covered, solved := 0, 0
	for trial := 0; trial < trials; trial++ {
		n := 2 + rng.Intn(3)
		p := &ilp.Problem{Sense: ilp.Sense(rng.Intn(2)), NumVars: n, Objective: map[int]float64{}}
		for i := 0; i < n; i++ {
			p.Objective[i] = float64(rng.Intn(11) - 5)
			p.Constraints = append(p.Constraints, ilp.Constraint{
				Coeffs: map[int]float64{i: 1}, Rel: ilp.LE, RHS: float64(1 + rng.Intn(6)),
			})
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
			p.Constraints = append(p.Constraints, ilp.Constraint{
				Coeffs: coeffs, Rel: ilp.Relation(rng.Intn(3)), RHS: float64(rng.Intn(13) - 4),
			})
		}

		// Make one or two rows RHS-parametric.
		K := 1 + rng.Intn(2)
		rhsCoef := make([][]int64, len(p.Constraints))
		for picks := 0; picks < K; picks++ {
			row := rng.Intn(len(p.Constraints))
			coef := make([]int64, K)
			coef[picks] = int64(1 + rng.Intn(3))
			rhsCoef[row] = coef
		}

		// Enumerate pieces by walking the grid and solving at the first
		// uncovered point, exactly as the ipet layer does.
		lo, hi := int64(0), int64(6)
		var pieces []*ilp.ParamPiece
		grid := func(f func(theta []int64)) {
			theta := make([]int64, K)
			if K == 1 {
				for a := lo; a <= hi; a++ {
					theta[0] = a
					f(theta)
				}
				return
			}
			for a := lo; a <= hi; a++ {
				for b := lo; b <= hi; b++ {
					theta[0], theta[1] = a, b
					f(theta)
				}
			}
		}
		grid(func(theta []int64) {
			for _, pc := range pieces {
				if pc.Covers(theta) {
					return
				}
			}
			status, _, cert, err := ilp.SolveSeed(ilp.Concretize(p, rhsCoef, theta))
			solved++
			if err != nil {
				t.Fatalf("trial %d: SolveSeed: %v", trial, err)
			}
			if status == ilp.Unbounded {
				return
			}
			if pc, err := DerivePiece(p, rhsCoef, theta, cert); err == nil {
				pieces = append(pieces, pc)
			}
		})

		// Check every claim against the exact simplex.
		grid(func(theta []int64) {
			res, err := SolveExact(context.Background(), ilp.Concretize(p, rhsCoef, theta))
			if err != nil {
				t.Fatalf("trial %d θ=%v: SolveExact: %v", trial, theta, err)
			}
			for _, pc := range pieces {
				if !pc.Covers(theta) {
					continue
				}
				covered++
				if !pc.Feasible {
					if res.Status != ilp.Infeasible {
						t.Fatalf("trial %d θ=%v: piece claims infeasible, exact says %v\n%s", trial, theta, res.Status, p)
					}
					continue
				}
				if res.Status != ilp.Optimal {
					t.Fatalf("trial %d θ=%v: piece claims optimum, exact says %v\n%s", trial, theta, res.Status, p)
				}
				if got := big.NewRat(pc.Value.At(theta), 1); got.Cmp(res.Objective) != 0 {
					t.Fatalf("trial %d θ=%v: piece value %v, exact optimum %v\n%s", trial, theta, got, res.Objective, p)
				}
			}
		})
	}
	if covered == 0 {
		t.Fatalf("no grid point was ever covered by a piece (%d seed solves)", solved)
	}
	t.Logf("%d seed solves, %d covered grid-point checks", solved, covered)
}

// paramBox is max 3·x0 + 2·x1 over x0 + x1 <= θ, x1 <= 3, x0 <= 5: at θ = 6
// the optimum is x = (5, 1) with value 17 + 2·(θ - 6) on 5 <= θ <= 8.
func paramBox() (*ilp.Problem, [][]int64) {
	p := &ilp.Problem{
		Sense: ilp.Maximize, NumVars: 2, Objective: map[int]float64{0: 3, 1: 2},
		Constraints: []ilp.Constraint{
			cn(map[int]float64{0: 1, 1: 1}, ilp.LE, 0),
			cn(map[int]float64{1: 1}, ilp.LE, 3),
			cn(map[int]float64{0: 1}, ilp.LE, 5),
		},
	}
	return p, [][]int64{{1}, nil, nil}
}

// TestDerivePieceRejectsTampered feeds the derivation bases a broken seed
// solve could end on: each must be refused, or, for a swap that lands on
// another optimal basis, prove the same optimum at the seed.
func TestDerivePieceRejectsTampered(t *testing.T) {
	p, rhsCoef := paramBox()
	theta := []int64{6}
	pc, cert, err := seedPiece(p, rhsCoef, theta)
	if err != nil || pc == nil {
		t.Fatalf("genuine basis refused: %v", err)
	}
	if got := pc.Value.At(theta); got != 17 || !pc.Covers([]int64{5}) || !pc.Covers([]int64{8}) || pc.Covers([]int64{9}) {
		t.Fatalf("genuine piece %+v: value %d at the seed, want 17 on 5 <= θ <= 8", pc, got)
	}

	// Primal feasible, not dual feasible: the minimizer's basis (the
	// origin, all slacks basic) satisfies every row at the seed, but the
	// maximization prices x0 and x1 positive there.
	minP := *p
	minP.Sense = ilp.Minimize
	_, _, minCert, err := ilp.SolveSeed(ilp.Concretize(&minP, rhsCoef, theta))
	if err != nil || minCert == nil {
		t.Fatalf("minimizing seed solve: %v", err)
	}
	if _, err := DerivePiece(p, rhsCoef, theta, minCert); err == nil || !strings.Contains(err.Error(), "reduced cost") {
		t.Errorf("primal-feasible, dual-infeasible basis: got %v, want a reduced-cost rejection", err)
	}

	// Every single-column swap: x0, x1 and three slacks.
	const total = 5
	rejected := 0
	for i := range cert.Basis {
		for j := 0; j < total; j++ {
			if slices.Contains(cert.Basis, j) {
				continue
			}
			c := &ilp.Certificate{Basis: slices.Clone(cert.Basis)}
			c.Basis[i] = j
			got, err := DerivePiece(p, rhsCoef, theta, c)
			if err != nil {
				rejected++
				continue
			}
			if v := got.Value.At(theta); v != 17 {
				t.Errorf("swapped basis %v derived value %d at the seed, optimum is 17", c.Basis, v)
			}
		}
	}
	if rejected == 0 {
		t.Error("no basis with a swapped column was refused")
	}

	for name, c := range map[string]*ilp.Certificate{
		"nil":              nil,
		"warm":             {Warm: true, Basis: cert.Basis},
		"truncated":        {Basis: cert.Basis[:2]},
		"duplicate column": {Basis: []int{cert.Basis[0], cert.Basis[0], cert.Basis[2]}},
		"phase-1 mark":     {Phase1: true, Basis: cert.Basis},
	} {
		if _, err := DerivePiece(p, rhsCoef, theta, c); err == nil {
			t.Errorf("%s certificate derived a piece", name)
		}
	}
}

// paramGap is x0 + x1 <= θ and x0 + x1 >= θ + 2: infeasible at every θ,
// proved by y = (1, -1), which yields the region 1 >= 0.
func paramGap() (*ilp.Problem, [][]int64) {
	p := &ilp.Problem{
		Sense: ilp.Maximize, NumVars: 2, Objective: map[int]float64{0: 1, 1: 1},
		Constraints: []ilp.Constraint{
			cn(map[int]float64{0: 1, 1: 1}, ilp.LE, 0),
			cn(map[int]float64{0: 1, 1: 1}, ilp.GE, 2),
		},
	}
	return p, [][]int64{{1}, {1}}
}

// TestDerivePiecePhase1 derives the infeasibility piece of a phase-1 basis
// and refuses the same basis once a new column breaks the Farkas condition;
// Verify refuses a phase-1 certificate outright.
func TestDerivePiecePhase1(t *testing.T) {
	p, rhsCoef := paramGap()
	theta := []int64{3}
	pc, cert, err := seedPiece(p, rhsCoef, theta)
	if err != nil || pc == nil {
		t.Fatalf("genuine phase-1 basis refused: %v", err)
	}
	if !cert.Phase1 || pc.Feasible || len(pc.Region) != 1 ||
		pc.Region[0].C0 != 1 || pc.Region[0].Coef[0] != 0 {
		t.Fatalf("phase-1 piece %+v from %+v, want the region 1 >= 0", pc, cert)
	}
	if _, err := Verify(ilp.Concretize(p, rhsCoef, theta), cert); err == nil || !strings.Contains(err.Error(), "phase-1") {
		t.Errorf("Verify on a phase-1 certificate: got %v, want a rejection", err)
	}

	// A new column x2 in the >= row prices at yᵀA = -1 < 0 (and makes the
	// problem feasible). The auxiliary columns shift right by one.
	q := &ilp.Problem{Sense: p.Sense, NumVars: 3, Objective: p.Objective,
		Constraints: slices.Clone(p.Constraints)}
	q.Constraints[1] = cn(map[int]float64{0: 1, 1: 1, 2: 1}, ilp.GE, 2)
	shifted := &ilp.Certificate{Phase1: true, Basis: slices.Clone(cert.Basis)}
	for i, j := range shifted.Basis {
		if j >= p.NumVars {
			shifted.Basis[i] = j + 1
		}
	}
	if _, err := DerivePiece(q, rhsCoef, theta, shifted); err == nil || !strings.Contains(err.Error(), "column 2") {
		t.Errorf("phase-1 basis whose duals price column 2 negative: got %v, want a Farkas rejection", err)
	}
}
