package certify

import (
	"context"
	"math"
	"math/big"
	"math/rand"
	"strings"
	"testing"

	"cinderella/internal/ilp"
)

func cn(coeffs map[int]float64, rel ilp.Relation, rhs float64) ilp.Constraint {
	return ilp.Constraint{Coeffs: coeffs, Rel: rel, RHS: rhs}
}

// randomProblems generates boxed random problems (every variable carries an
// upper bound, so integer solves terminate) across senses and relation
// kinds, in the style of the ilp differential suite.
func randomProblems(seed int64, trials int, integer bool) []*ilp.Problem {
	rng := rand.New(rand.NewSource(seed))
	var ps []*ilp.Problem
	for trial := 0; trial < trials; trial++ {
		n := 2 + rng.Intn(3)
		p := &ilp.Problem{
			Sense: ilp.Sense(rng.Intn(2)), NumVars: n,
			Objective: map[int]float64{}, Integer: integer,
		}
		var rows []ilp.Constraint
		for i := 0; i < n; i++ {
			p.Objective[i] = float64(rng.Intn(11) - 5)
			rows = append(rows, cn(map[int]float64{i: 1}, ilp.LE, float64(1+rng.Intn(6))))
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
			rows = append(rows, cn(coeffs, ilp.Relation(rng.Intn(3)), float64(rng.Intn(13)-4)))
		}
		// Exercise the shared-prefix layout half the time.
		if rng.Intn(2) == 0 {
			half := len(rows) / 2
			p.Prefix = ilp.Pack(rows[:half])
			p.Constraints = rows[half:]
		} else {
			p.Constraints = rows
		}
		ps = append(ps, p)
	}
	return ps
}

// TestCertifyColdDifferential runs the float64 solver with certificates on
// random problems and checks that every certificate verifies exactly, that
// the exact objective matches the float one, and that the exact rational
// solver reproduces status and optimum independently.
func TestCertifyColdDifferential(t *testing.T) {
	ctx := context.Background()
	certified := 0
	for i, p := range randomProblems(7, 150, true) {
		sol, err := ilp.SolveCtxOpts(ctx, p, ilp.SolveOptions{WantCert: true})
		if err != nil {
			t.Fatalf("problem %d: solve: %v", i, err)
		}
		ex, err := SolveExact(ctx, p)
		if err != nil {
			t.Fatalf("problem %d: exact: %v", i, err)
		}
		if ex.Status != sol.Status {
			t.Fatalf("problem %d: float status %v, exact %v\n%s", i, sol.Status, ex.Status, p)
		}
		if sol.Status == ilp.Optimal {
			exObj, _ := ex.Objective.Float64()
			if math.Abs(exObj-sol.Objective) > 1e-6 {
				t.Fatalf("problem %d: float obj %v, exact %v\n%s", i, sol.Objective, exObj, p)
			}
		}
		if sol.Cert == nil {
			continue
		}
		certified++
		res, err := Verify(p, sol.Cert)
		if err != nil {
			t.Fatalf("problem %d: certificate rejected: %v\n%s", i, err, p)
		}
		if res.Objective.Cmp(ex.Objective) != 0 {
			t.Fatalf("problem %d: certified obj %s, exact obj %s\n%s",
				i, res.Objective.RatString(), ex.Objective.RatString(), p)
		}
	}
	if certified < 50 {
		t.Fatalf("only %d certificates emitted; root-integral rate suspiciously low", certified)
	}
}

// TestCertifyDensePath certifies the dense oracle's solves: all three
// solver paths must emit checkable certificates.
func TestCertifyDensePath(t *testing.T) {
	certified := 0
	for i, p := range randomProblems(11, 80, false) {
		sol, err := ilp.SolveDenseCert(p)
		if err != nil {
			t.Fatalf("problem %d: %v", i, err)
		}
		if sol.Cert == nil {
			continue
		}
		certified++
		res, err := Verify(p, sol.Cert)
		if err != nil {
			t.Fatalf("problem %d: dense certificate rejected: %v\n%s", i, err, p)
		}
		got, _ := res.Objective.Float64()
		if math.Abs(got-sol.Objective) > 1e-6 {
			t.Fatalf("problem %d: dense obj %v, certified %v", i, sol.Objective, got)
		}
	}
	if certified == 0 {
		t.Fatal("no dense certificates emitted")
	}
}

// TestCertifyWarmPath certifies warm dual-simplex solves over a shared
// base, with per-set deltas covering <=, >= and = (the = case exercises
// the pair-split lowering): on box-only bases, which the structural
// presolve cannot reduce, and on presolvable bases, whose certificates
// name reduced columns and carry the presolve record. Each certificate is
// verified both by Verify and by one WarmChecker per base, and its exact
// objective must equal the exact optimum of the unreduced problem.
func TestCertifyWarmPath(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	ctx := context.Background()
	certified := map[bool]int{}
	for trial := 0; trial < 120; trial++ {
		reducible := trial%2 == 1
		var base *ilp.Problem
		if reducible {
			base = presolvableBase(rng)
		} else {
			n := 3 + rng.Intn(3)
			base = &ilp.Problem{
				Sense: ilp.Sense(rng.Intn(2)), NumVars: n, Objective: map[int]float64{},
			}
			var baseRows []ilp.Constraint
			for i := 0; i < n; i++ {
				base.Objective[i] = float64(rng.Intn(9) - 3)
				baseRows = append(baseRows, cn(map[int]float64{i: 1}, ilp.LE, float64(2+rng.Intn(6))))
			}
			base.Prefix = ilp.Pack(baseRows)
		}
		w := ilp.NewWarmStart(base, nil)
		if !w.Ready() {
			t.Fatalf("trial %d: base not ready", trial)
		}
		if got := w.PresolveRecord() != nil; got != reducible {
			t.Fatalf("trial %d: presolve record present = %v, want %v", trial, got, reducible)
		}
		checker, err := NewWarmChecker(base, w.PresolveRecord())
		if err != nil {
			t.Fatalf("trial %d: checker rejects the presolve record: %v", trial, err)
		}
		for s := 0; s < 4; s++ {
			set := randomDelta(rng, base.NumVars)
			r := solveSet(w, set, ilp.SetSolveOptions{WantCert: true})
			if !r.OK || r.Status != ilp.Optimal || r.Cert == nil {
				continue
			}
			certified[reducible]++
			full := &ilp.Problem{
				Sense: base.Sense, NumVars: base.NumVars, Objective: base.Objective,
				Prefix: base.Prefix, Constraints: set,
			}
			res, err := Verify(full, r.Cert)
			if err != nil {
				t.Fatalf("trial %d set %d: warm certificate rejected: %v\n%s", trial, s, err, full)
			}
			viaChecker, err := checker.Verify(full, r.Cert)
			if err != nil || viaChecker.Objective.Cmp(res.Objective) != 0 {
				t.Fatalf("trial %d set %d: checker gives %v, %v; Verify %s", trial, s, viaChecker, err, res.Objective.RatString())
			}
			got, _ := res.Objective.Float64()
			if math.Abs(got-r.Objective) > 1e-6 {
				t.Fatalf("trial %d set %d: warm obj %v, certified %v", trial, s, r.Objective, got)
			}
			ex, err := SolveExact(ctx, full)
			if err != nil || ex.Status != ilp.Optimal {
				t.Fatalf("trial %d set %d: exact re-solve: %v %v", trial, s, ex, err)
			}
			if res.Objective.Cmp(ex.Objective) != 0 {
				t.Fatalf("trial %d set %d: certified %s, exact %s",
					trial, s, res.Objective.RatString(), ex.Objective.RatString())
			}
		}
	}
	for _, reducible := range []bool{false, true} {
		if certified[reducible] < 20 {
			t.Fatalf("only %d warm certificates exercised (presolved %v)", certified[reducible], reducible)
		}
	}
}

// TestVerifyRejectsTamperedCertificate corrupts a valid certificate in the
// ways a broken solver would and asserts Verify refuses each.
func TestVerifyRejectsTamperedCertificate(t *testing.T) {
	p := &ilp.Problem{
		Sense: ilp.Maximize, NumVars: 2, Objective: map[int]float64{0: 3, 1: 2},
		Constraints: []ilp.Constraint{
			cn(map[int]float64{0: 1, 1: 1}, ilp.LE, 4),
			cn(map[int]float64{0: 1, 1: 3}, ilp.LE, 6),
		},
	}
	sol, err := ilp.SolveCtxOpts(context.Background(), p, ilp.SolveOptions{WantCert: true})
	if err != nil || sol.Status != ilp.Optimal || sol.Cert == nil {
		t.Fatalf("setup solve: %+v %v", sol, err)
	}
	if _, err := Verify(p, sol.Cert); err != nil {
		t.Fatalf("genuine certificate rejected: %v", err)
	}

	tamper := func(name string, mutate func(c *ilp.Certificate)) {
		c := &ilp.Certificate{Warm: sol.Cert.Warm, Basis: append([]int(nil), sol.Cert.Basis...)}
		mutate(c)
		if _, err := Verify(p, c); err == nil {
			t.Errorf("%s: tampered certificate verified", name)
		}
	}
	tamper("basis swapped to slack", func(c *ilp.Certificate) { c.Basis[0] = 2 }) // x0 out, slack 0 in: suboptimal vertex
	tamper("duplicate column", func(c *ilp.Certificate) { c.Basis[1] = c.Basis[0] })
	tamper("out of range", func(c *ilp.Certificate) { c.Basis[0] = 99 })
	tamper("truncated", func(c *ilp.Certificate) { c.Basis = c.Basis[:1] })
	if _, err := Verify(p, nil); err == nil {
		t.Error("nil certificate verified")
	}

	// Two dependent rows, and a basis naming both of their columns: the
	// basis matrix [[1 1] [2 2]] is singular.
	dep := &ilp.Problem{
		Sense: ilp.Maximize, NumVars: 2, Objective: map[int]float64{0: 1, 1: 1},
		Constraints: []ilp.Constraint{
			cn(map[int]float64{0: 1, 1: 1}, ilp.LE, 4),
			cn(map[int]float64{0: 2, 1: 2}, ilp.LE, 8),
		},
	}
	if _, err := Verify(dep, &ilp.Certificate{Basis: []int{0, 1}}); err == nil || !strings.Contains(err.Error(), "singular") {
		t.Errorf("singular basis: got %v, want a singular-matrix rejection", err)
	}
}

// TestVerifyEscapePaths runs the checker on problems whose exact check
// cannot stay in int64 arithmetic. In both, the optimal vertex has two
// coupled basic variables, so the basis solves eliminate through a 2×2
// kernel: with coefficient 0.1, whose float64 value is a fraction over
// 2^55, the pivot's reciprocal and the entry it updates share no
// denominator; with coefficients near 2^40, the updated entry's numerator
// is near 2^80. On each, the genuine certificate must verify to
// SolveExact's optimum, and every basis obtained by swapping one basic
// column for a nonbasic one must either be rejected or prove that same
// optimum (an alternative optimal basis); at least one must be rejected.
func TestVerifyEscapePaths(t *testing.T) {
	const e40 = 1 << 40
	cases := []struct {
		name string
		p    *ilp.Problem
		// schur is the entry eliminating the kernel's first column leaves
		// behind, a₁₁ − a₁₀·a₀₁/a₀₀; it does not fit int64.
		schur num
	}{
		{
			name: "non-integral coefficient",
			p: &ilp.Problem{
				Sense: ilp.Maximize, NumVars: 2, Objective: map[int]float64{0: 1, 1: 1},
				Constraints: []ilp.Constraint{
					cn(map[int]float64{0: 0.1, 1: 1}, ilp.LE, 4),
					cn(map[int]float64{0: 1, 1: 0.1}, ilp.LE, 4),
				},
			},
			schur: sub(numFloat(0.1), quo(numInt(1), numFloat(0.1))),
		},
		{
			name: "products overflow int64",
			p: &ilp.Problem{
				Sense: ilp.Maximize, NumVars: 2, Objective: map[int]float64{0: 1, 1: 1},
				Constraints: []ilp.Constraint{
					cn(map[int]float64{0: e40 + 1, 1: 1}, ilp.LE, 2*e40),
					cn(map[int]float64{0: 1, 1: e40 + 3}, ilp.LE, 2*e40),
				},
			},
			schur: sub(numInt(e40+3), quo(numInt(1), numInt(e40+1))),
		},
	}
	ctx := context.Background()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.schur.r == nil {
				t.Fatalf("premise: kernel entry %s fits int64", tc.schur)
			}
			sol, err := ilp.SolveCtxOpts(ctx, tc.p, ilp.SolveOptions{WantCert: true})
			if err != nil || sol.Status != ilp.Optimal || sol.Cert == nil {
				t.Fatalf("solve: %+v %v", sol, err)
			}
			ex, err := SolveExact(ctx, tc.p)
			if err != nil || ex.Status != ilp.Optimal {
				t.Fatalf("exact solve: %+v %v", ex, err)
			}
			res, err := Verify(tc.p, sol.Cert)
			if err != nil {
				t.Fatalf("genuine certificate rejected: %v", err)
			}
			if res.Objective.Cmp(ex.Objective) != 0 {
				t.Fatalf("certified objective %s, exact %s", res.Objective.RatString(), ex.Objective.RatString())
			}

			total := tc.p.NumVars + len(tc.p.Constraints) // one slack per <= row
			basic := map[int]bool{}
			for _, j := range sol.Cert.Basis {
				basic[j] = true
			}
			rejected := 0
			for i := range sol.Cert.Basis {
				for j := 0; j < total; j++ {
					if basic[j] {
						continue
					}
					c := &ilp.Certificate{Basis: append([]int(nil), sol.Cert.Basis...)}
					c.Basis[i] = j
					got, err := Verify(tc.p, c)
					if err != nil {
						rejected++
						continue
					}
					if got.Objective.Cmp(ex.Objective) != 0 {
						t.Errorf("basis %v proved %s, exact optimum is %s",
							c.Basis, got.Objective.RatString(), ex.Objective.RatString())
					}
				}
			}
			if rejected == 0 {
				t.Error("no tampered basis was rejected")
			}
			t.Logf("optimum %s on basis %v; %d tampered bases rejected",
				ex.Objective.RatString(), sol.Cert.Basis, rejected)
		})
	}
}

// TestSolveExactKnapsack pins the exact branch-and-bound on the knapsack
// fixture whose root relaxation is fractional.
func TestSolveExactKnapsack(t *testing.T) {
	p := &ilp.Problem{
		Sense: ilp.Maximize, NumVars: 4, Integer: true,
		Objective: map[int]float64{0: 8, 1: 11, 2: 6, 3: 4},
		Constraints: []ilp.Constraint{
			cn(map[int]float64{0: 5, 1: 7, 2: 4, 3: 3}, ilp.LE, 14),
			cn(map[int]float64{0: 1}, ilp.LE, 1),
			cn(map[int]float64{1: 1}, ilp.LE, 1),
			cn(map[int]float64{2: 1}, ilp.LE, 1),
			cn(map[int]float64{3: 1}, ilp.LE, 1),
		},
	}
	ex, err := SolveExact(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Status != ilp.Optimal || ex.Objective.Cmp(big.NewRat(21, 1)) != 0 {
		t.Fatalf("exact knapsack: %v %v, want optimal 21", ex.Status, ex.Objective)
	}
	if ex.RootIntegral {
		t.Fatal("knapsack root should be fractional")
	}
	if !ratsIntegral(ex.X) {
		t.Fatalf("exact optimum not integral: %v", ex.X)
	}
}

// TestSolveExactDegenerate covers the no-rows and infeasible corners.
func TestSolveExactDegenerate(t *testing.T) {
	ctx := context.Background()
	unb := &ilp.Problem{Sense: ilp.Maximize, NumVars: 1, Objective: map[int]float64{0: 1}}
	if ex, err := SolveExact(ctx, unb); err != nil || ex.Status != ilp.Unbounded {
		t.Fatalf("unbounded: %+v %v", ex, err)
	}
	inf := &ilp.Problem{
		Sense: ilp.Maximize, NumVars: 1, Objective: map[int]float64{0: 1},
		Constraints: []ilp.Constraint{
			cn(map[int]float64{0: 1}, ilp.LE, 3),
			cn(map[int]float64{0: 1}, ilp.GE, 5),
		},
	}
	if ex, err := SolveExact(ctx, inf); err != nil || ex.Status != ilp.Infeasible {
		t.Fatalf("infeasible: %+v %v", ex, err)
	}
	origin := &ilp.Problem{Sense: ilp.Minimize, NumVars: 2, Objective: map[int]float64{0: 1, 1: 1}}
	if ex, err := SolveExact(ctx, origin); err != nil || ex.Status != ilp.Optimal || ex.Objective.Sign() != 0 {
		t.Fatalf("origin: %+v %v", ex, err)
	}
}

// gaussSolve solves M·z = rhs by dense Gaussian elimination with nonzero
// pivoting in big.Rat, consuming M and rhs. Returns ok=false when M is
// singular. It is the reference solveSparse is fuzzed against.
func gaussSolve(M [][]*big.Rat, rhs []*big.Rat) ([]*big.Rat, bool) {
	m := len(M)
	tmp := new(big.Rat)
	for col := 0; col < m; col++ {
		pr := -1
		for r := col; r < m; r++ {
			if M[r][col].Sign() != 0 {
				pr = r
				break
			}
		}
		if pr < 0 {
			return nil, false
		}
		M[col], M[pr] = M[pr], M[col]
		rhs[col], rhs[pr] = rhs[pr], rhs[col]
		inv := new(big.Rat).Inv(M[col][col])
		for j := col; j < m; j++ {
			M[col][j].Mul(M[col][j], inv)
		}
		rhs[col].Mul(rhs[col], inv)
		for r := 0; r < m; r++ {
			if r == col {
				continue
			}
			f := M[r][col]
			if f.Sign() == 0 {
				continue
			}
			f = new(big.Rat).Set(f)
			for j := col; j < m; j++ {
				tmp.Mul(f, M[col][j])
				M[r][j].Sub(M[r][j], tmp)
			}
			tmp.Mul(f, rhs[col])
			rhs[r].Sub(rhs[r], tmp)
		}
	}
	return rhs, true
}

// Shapes of the systems sparseSystem draws.
const (
	shapeRandom   = iota // a few random entries per row
	shapeSingular        // random, then one row replaced by a combination of two others
	shapeCyclic          // triangular with a cycle closing a kernel, rows and columns permuted
	numShapes
)

// sparseSystem draws an n×n system of the given shape as a dense matrix
// and right-hand side. With large set, entries sit near 2^40 or 2^61, so
// the elimination's products and sums overflow int64; with fractional set,
// some entries are fractions with denominators up to 2^20.
func sparseSystem(seed int64, n, shape int, large, fractional bool) ([][]*big.Rat, []*big.Rat) {
	rng := rand.New(rand.NewSource(seed))
	val := func() *big.Rat {
		v := int64(1 + rng.Intn(4))
		if large {
			if rng.Intn(2) == 0 {
				v = 1<<40 + rng.Int63n(1<<30)
			} else {
				v = 1<<61 + rng.Int63n(1<<40)
			}
		}
		if rng.Intn(2) == 0 {
			v = -v
		}
		r := big.NewRat(v, 1)
		if fractional && rng.Intn(3) == 0 {
			r.Quo(r, big.NewRat(1+rng.Int63n(1<<20), 1))
		}
		return r
	}
	A := make([][]*big.Rat, n)
	for i := range A {
		A[i] = ratZeros(n)
	}
	switch shape {
	case shapeRandom, shapeSingular:
		for i := range A {
			for k := 0; k < 1+rng.Intn(3); k++ {
				A[i][rng.Intn(n)] = val()
			}
		}
		if shape == shapeSingular {
			// Row k becomes α·row i + β·row j (row i alone when n < 3,
			// the zero row when n == 1).
			k, i, j := rng.Intn(n), rng.Intn(n), rng.Intn(n)
			alpha, beta := big.NewRat(int64(rng.Intn(5)-2), 1), big.NewRat(int64(rng.Intn(5)-2), 1)
			row := ratZeros(n)
			for c := 0; c < n; c++ {
				if i != k {
					row[c].Add(row[c], new(big.Rat).Mul(alpha, A[i][c]))
				}
				if j != k && j != i {
					row[c].Add(row[c], new(big.Rat).Mul(beta, A[j][c]))
				}
			}
			A[k] = row
		}
	case shapeCyclic:
		for i := range A {
			A[i][i] = val()
			for c := i + 1; c < n; c++ {
				if rng.Intn(4) == 0 {
					A[i][c] = val()
				}
			}
		}
		// A cycle i0 → i1 → … → i0 below the diagonal couples its rows
		// into a kernel no singleton peeling can clear.
		cyc := rng.Perm(n)[:min(n, 2+rng.Intn(5))]
		for t := range cyc {
			A[cyc[(t+1)%len(cyc)]][cyc[t]] = val()
		}
		rp, cp := rng.Perm(n), rng.Perm(n)
		P := make([][]*big.Rat, n)
		for i := range P {
			P[i] = make([]*big.Rat, n)
			for c := range P[i] {
				P[i][c] = A[rp[i]][cp[c]]
			}
		}
		A = P
	}
	b := make([]*big.Rat, n)
	for i := range b {
		b[i] = big.NewRat(int64(rng.Intn(21)-10), 1)
		if large && rng.Intn(2) == 0 {
			b[i] = val()
		}
	}
	return A, b
}

// FuzzSparseSolve checks solveSparse against the dense big.Rat reference
// gaussSolve: both must agree exactly on singularity and on every entry of
// the solution, and every returned value must be in canonical form
// (promoted exactly when it does not fit int64). The sparse rows are given
// with split and explicit-zero entries, which solveSparse must merge and
// drop. A second right-hand side, -3 times the first, rides along: the
// solve eliminates once for both, so its solution must be -3 times the
// first exactly.
func FuzzSparseSolve(f *testing.F) {
	f.Add(int64(1), uint8(6), uint8(shapeRandom))
	f.Add(int64(2), uint8(9), uint8(shapeSingular))
	f.Add(int64(3), uint8(14), uint8(shapeCyclic))
	f.Add(int64(4), uint8(12), uint8(shapeCyclic|8))
	f.Add(int64(5), uint8(10), uint8(shapeRandom|8|16))
	f.Fuzz(func(t *testing.T, seed int64, size, shape uint8) {
		n := 1 + int(size)%24
		kind := int(shape) % numShapes
		large, fractional := shape&8 != 0, shape&16 != 0
		A, b := sparseSystem(seed, n, kind, large, fractional)

		rng := rand.New(rand.NewSource(seed ^ 0x5eed))
		rows := make([]sparseRow, n)
		rhs := make([]num, n)
		for i := range A {
			rhs[i] = ratNum(new(big.Rat).Set(b[i]))
			for c, v := range A[i] {
				switch {
				case v.Sign() == 0:
					if rng.Intn(8) == 0 {
						rows[i].cols = append(rows[i].cols, c)
						rows[i].vals = append(rows[i].vals, num{})
					}
				case rng.Intn(4) == 0:
					// Split v into two entries of the same column.
					part := big.NewRat(int64(rng.Intn(7)-3), 1)
					rows[i].cols = append(rows[i].cols, c, c)
					rows[i].vals = append(rows[i].vals, ratNum(part), ratNum(new(big.Rat).Sub(v, part)))
				default:
					rows[i].cols = append(rows[i].cols, c)
					rows[i].vals = append(rows[i].vals, ratNum(new(big.Rat).Set(v)))
				}
			}
		}
		scaled := make([]num, n)
		for i := range rhs {
			scaled[i] = mul(numInt(-3), rhs[i])
		}
		z, ok := solveSparse(rows, rhs, scaled)
		want, wantOK := gaussSolve(A, b)
		if ok != wantOK {
			t.Fatalf("n=%d shape=%d: sparse nonsingular=%v, dense nonsingular=%v", n, kind, ok, wantOK)
		}
		if kind == shapeSingular && ok {
			t.Fatalf("n=%d: the singular shape drew a nonsingular matrix", n)
		}
		if !ok {
			return
		}
		got := z[0]
		for i := range want {
			if z[1][i].bigView().Cmp(new(big.Rat).Mul(big.NewRat(-3, 1), want[i])) != 0 {
				t.Fatalf("n=%d shape=%d: second right-hand side z[%d] = %s, want -3·%s", n, kind, i, z[1][i], want[i].RatString())
			}
			if got[i].bigView().Cmp(want[i]) != 0 {
				t.Fatalf("n=%d shape=%d: z[%d] = %s, want %s", n, kind, i, got[i], want[i].RatString())
			}
			if want := ratNum(new(big.Rat).Set(want[i])); (got[i].r == nil) != (want.r == nil) {
				t.Fatalf("z[%d] = %s is not in canonical form", i, got[i])
			}
		}
	})
}

// TestNumMatchesBigRat checks every num operation against big.Rat over
// values at the edges of the int64 form: zero and units, fractions,
// ±MaxInt64 and its neighbours, MinInt64 and 2^63 (which must be promoted),
// and values far beyond int64.
func TestNumMatchesBigRat(t *testing.T) {
	const maxI = math.MaxInt64
	pow2 := func(e uint) *big.Rat { return new(big.Rat).SetInt(new(big.Int).Lsh(big.NewInt(1), e)) }
	vals := []*big.Rat{
		big.NewRat(0, 1), big.NewRat(1, 1), big.NewRat(-1, 1), big.NewRat(7, 3), big.NewRat(-5, 8),
		big.NewRat(maxI, 1), big.NewRat(-maxI, 1), big.NewRat(maxI-1, 1), big.NewRat(1<<62, 1),
		big.NewRat(-(1 << 62), 1), big.NewRat(1, maxI), big.NewRat(-1, maxI), big.NewRat(maxI, maxI-1),
		big.NewRat(math.MinInt64, 1), pow2(63), pow2(70), new(big.Rat).Quo(pow2(70), big.NewRat(-3, 1)),
		new(big.Rat).Inv(pow2(64)), new(big.Rat).SetFloat64(0.1), big.NewRat(3037000499, 1),
		big.NewRat(3037000500, 1), big.NewRat(1, 3037000500),
	}
	canonical := func(what string, got num, want *big.Rat) {
		t.Helper()
		if got.bigView().Cmp(want) != 0 {
			t.Fatalf("%s = %s, want %s", what, got, want.RatString())
		}
		fits := want.Num().IsInt64() && want.Denom().IsInt64() && want.Num().Int64() != math.MinInt64
		if (got.r == nil) != fits {
			t.Fatalf("%s = %s: promoted=%v, want %v", what, got, got.r != nil, !fits)
		}
		if got.String() != want.RatString() {
			t.Fatalf("%s prints %q, want %q", what, got.String(), want.RatString())
		}
	}
	for _, x := range vals {
		a := ratNum(new(big.Rat).Set(x))
		canonical("ratNum("+x.RatString()+")", a, x)
		canonical("-"+x.RatString(), a.neg(), new(big.Rat).Neg(x))
		if a.sign() != x.Sign() || a.isInt() != x.IsInt() || a.isZero() != (x.Sign() == 0) {
			t.Fatalf("%s: sign/isInt/isZero disagree", x.RatString())
		}
		for _, y := range vals {
			b := ratNum(new(big.Rat).Set(y))
			pair := x.RatString() + " " + y.RatString()
			canonical("add "+pair, add(a, b), new(big.Rat).Add(x, y))
			canonical("sub "+pair, sub(a, b), new(big.Rat).Sub(x, y))
			canonical("mul "+pair, mul(a, b), new(big.Rat).Mul(x, y))
			if y.Sign() != 0 {
				canonical("quo "+pair, quo(a, b), new(big.Rat).Quo(x, y))
			}
			if got, want := cmp(a, b), x.Cmp(y); got != want {
				t.Fatalf("cmp %s = %d, want %d", pair, got, want)
			}
		}
	}
	for _, f := range []float64{0, 1.5, -2, 1 << 53, 1<<53 + 2, 1 << 60, 0.1, -1e-300, 1e300, math.MaxFloat64} {
		want := new(big.Rat).SetFloat64(f)
		canonical("numFloat", numFloat(f), want)
	}
}
