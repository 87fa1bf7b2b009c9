package certify

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"cinderella/internal/ilp"
)

// presolvableBase draws a base with structure the presolve substitutes
// away: a fixed root, an equal pair, box rows at least as large as the
// root's value (so the base stays feasible) and, sometimes, a pair forced
// to zero. It is the generator of the ilp package's presolve equivalence
// test.
func presolvableBase(rng *rand.Rand) *ilp.Problem {
	n := 4 + rng.Intn(5)
	obj := map[int]float64{}
	for j := 0; j < n; j++ {
		obj[j] = float64(rng.Intn(9) + 1)
	}
	rows := []ilp.Constraint{
		cn(map[int]float64{0: 1}, ilp.EQ, float64(1+rng.Intn(3))),
		cn(map[int]float64{1: 1, 2: -1}, ilp.EQ, 0),
	}
	for j := 0; j < n; j++ {
		rows = append(rows, cn(map[int]float64{j: 1}, ilp.LE, float64(3+rng.Intn(8))))
	}
	if rng.Intn(2) == 0 && n > 4 {
		rows = append(rows, cn(map[int]float64{3: 1, 4: 1}, ilp.EQ, 0))
	}
	sense := ilp.Maximize
	if rng.Intn(2) == 0 {
		sense = ilp.Minimize
	}
	return &ilp.Problem{Sense: sense, NumVars: n, Objective: obj, Prefix: ilp.Pack(rows)}
}

// randomDelta draws one or two per-set rows over the original variables,
// presolved-away ones included.
func randomDelta(rng *rand.Rand, n int) []ilp.Constraint {
	var set []ilp.Constraint
	for r := 0; r < 1+rng.Intn(2); r++ {
		coeffs := map[int]float64{}
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				coeffs[i] = float64(rng.Intn(5) - 2)
			}
		}
		set = append(set, cn(coeffs, ilp.Relation(rng.Intn(3)), float64(rng.Intn(9)-2)))
	}
	return set
}

// solveSet lowers every row of set into w and solves them warm.
func solveSet(w *ilp.WarmStart, set []ilp.Constraint, opts ilp.SetSolveOptions) ilp.SetSolution {
	rows := make([]*ilp.WarmRow, len(set))
	for i := range set {
		rows[i] = w.LowerRow(&set[i])
	}
	return w.SolveRows(rows, opts)
}

// TestPresolvedCertificatesDifferential: on random presolvable bases every
// warm certificate the presolved warm start emits must verify through the
// base's checker, and its exact objective must equal the exact optimum of
// the unreduced problem.
func TestPresolvedCertificatesDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(0xC0FFEE))
	ctx := context.Background()
	verified := 0
	for trial := 0; trial < 150; trial++ {
		base := presolvableBase(rng)
		w := ilp.NewWarmStart(base, nil)
		if !w.Ready() || w.PresolveRecord() == nil {
			t.Fatalf("trial %d: no presolved warm start (ready %v)", trial, w.Ready())
		}
		checker, err := NewWarmChecker(base, w.PresolveRecord())
		if err != nil {
			t.Fatalf("trial %d: checker rejects the presolve record: %v", trial, err)
		}
		for s := 0; s < 4; s++ {
			set := randomDelta(rng, base.NumVars)
			r := solveSet(w, set, ilp.SetSolveOptions{WantCert: true})
			if !r.OK || r.Status != ilp.Optimal {
				continue
			}
			full := &ilp.Problem{Sense: base.Sense, NumVars: base.NumVars, Objective: base.Objective,
				Prefix: base.Prefix, Constraints: set}
			res, err := checker.Verify(full, r.Cert)
			if err != nil {
				t.Fatalf("trial %d set %d: presolved certificate rejected: %v\n%s", trial, s, err, full)
			}
			ex, err := SolveExact(ctx, full)
			if err != nil || ex.Status != ilp.Optimal {
				t.Fatalf("trial %d set %d: exact solve %+v %v", trial, s, ex, err)
			}
			if res.Objective.Cmp(ex.Objective) != 0 {
				t.Fatalf("trial %d set %d: certified %s, unreduced exact optimum %s",
					trial, s, res.Objective.RatString(), ex.Objective.RatString())
			}
			verified++
		}
	}
	if verified < 200 {
		t.Fatalf("only %d presolved certificates verified", verified)
	}
}

// chainedBase is a base whose presolve derives, in this order, x0 = 1 (row
// 1), x2 = x3 (row 2), x4 = x5 = 0 (row 3), then x1 = 2 (row 0, which only
// fixes x1 once x0 is known), leaving the class {x2, x3} under rows 4 and 5.
func chainedBase() *ilp.Problem {
	return &ilp.Problem{
		Sense: ilp.Maximize, NumVars: 6,
		Objective: map[int]float64{0: 1, 1: 1, 2: 2, 3: 1, 4: 5, 5: 5},
		Prefix: ilp.Pack([]ilp.Constraint{
			cn(map[int]float64{0: 1, 1: 1}, ilp.EQ, 3),
			cn(map[int]float64{0: 1}, ilp.EQ, 1),
			cn(map[int]float64{2: 1, 3: -1}, ilp.EQ, 0),
			cn(map[int]float64{4: 1, 5: 1}, ilp.LE, 0),
			cn(map[int]float64{2: 1}, ilp.LE, 5),
			cn(map[int]float64{3: 1, 1: 1}, ilp.LE, 9),
		}),
	}
}

// TestWarmCheckerRejectsTamperedRecord corrupts a genuine presolve record
// in the ways a faulty presolve would, and forges records whose facts come
// from inequality rows; each such record must fail to replay. A genuine
// record with a certificate whose basis has one column
// swapped must fail to verify unless the swap lands on another optimal
// basis of the same optimum.
func TestWarmCheckerRejectsTamperedRecord(t *testing.T) {
	base := chainedBase()
	w := ilp.NewWarmStart(base, nil)
	rec := w.PresolveRecord()
	if !w.Ready() || rec == nil {
		t.Fatal("chained base not presolved")
	}
	find := func(kind ilp.PresolveKind, row int32) int {
		i := slices.IndexFunc(rec.Facts, func(f ilp.PresolveFact) bool { return f.Kind == kind && f.Row == row })
		if i < 0 {
			t.Fatalf("record lacks the %v fact of row %d: %+v", kind, row, rec.Facts)
		}
		return i
	}
	fixX0, merge, zero, fixX1 := find(ilp.PresolveFix, 1), find(ilp.PresolveMerge, 2), find(ilp.PresolveZero, 3), find(ilp.PresolveFix, 0)
	if fixX1 < fixX0 {
		t.Fatalf("x1 fixed before x0: %+v", rec.Facts)
	}
	if _, err := NewWarmChecker(base, rec); err != nil {
		t.Fatalf("genuine record rejected: %v", err)
	}

	tamper := func(name string, mutate func(r *ilp.PresolveRecord)) {
		t.Helper()
		r := &ilp.PresolveRecord{NumVars: rec.NumVars, Facts: slices.Clone(rec.Facts), Rows: slices.Clone(rec.Rows)}
		mutate(r)
		if _, err := NewWarmChecker(base, r); err == nil {
			t.Errorf("%s: tampered record replayed", name)
		} else {
			t.Logf("%s: %v", name, err)
		}
	}
	tamper("wrong fixed value", func(r *ilp.PresolveRecord) { r.Facts[fixX0].Value = 2 })
	tamper("merge its row does not imply", func(r *ilp.PresolveRecord) { r.Facts[merge].Row = 4 })
	tamper("merge of the wrong pair", func(r *ilp.PresolveRecord) { r.Facts[merge].With = 5 })
	tamper("zero its row does not force", func(r *ilp.PresolveRecord) { r.Facts[zero].Row = 5 })
	tamper("fact that only follows from a later fact", func(r *ilp.PresolveRecord) {
		f := r.Facts[fixX1]
		r.Facts = slices.Delete(r.Facts, fixX1, fixX1+1)
		r.Facts = slices.Insert(r.Facts, fixX0, f)
	})
	tamper("row the facts reduce to a constant", func(r *ilp.PresolveRecord) { r.Rows = append(r.Rows, 1) })
	tamper("record over another variable count", func(r *ilp.PresolveRecord) { r.NumVars++ })

	// Facts drawn from inequality rows have the right shape but do not
	// follow: 2·x0 <= 6 bounds x0 without fixing it at 3, and x1 - x2 <= 0
	// orders x1 and x2 without equating them. Either would narrow the
	// reduced problem below the original's optimum.
	ineq := &ilp.Problem{
		Sense: ilp.Maximize, NumVars: 3,
		Objective: map[int]float64{0: 1, 1: 1, 2: 1},
		Prefix: ilp.Pack([]ilp.Constraint{
			cn(map[int]float64{0: 2}, ilp.LE, 6),
			cn(map[int]float64{1: 1, 2: -1}, ilp.LE, 0),
			cn(map[int]float64{1: 1, 2: 1}, ilp.LE, 4),
		}),
	}
	for name, r := range map[string]*ilp.PresolveRecord{
		"fix recorded against an inequality row": {NumVars: 3, Rows: []int32{1, 2},
			Facts: []ilp.PresolveFact{{Kind: ilp.PresolveFix, Row: 0, Var: 0, Value: 3}}},
		"merge recorded against an inequality row": {NumVars: 3, Rows: []int32{0, 2},
			Facts: []ilp.PresolveFact{{Kind: ilp.PresolveMerge, Row: 1, Var: 1, With: 2}}},
	} {
		if _, err := NewWarmChecker(ineq, r); err == nil {
			t.Errorf("%s: forged record replayed", name)
		} else {
			t.Logf("%s: %v", name, err)
		}
	}

	checker, err := NewWarmChecker(base, rec)
	if err != nil {
		t.Fatal(err)
	}
	set := []ilp.Constraint{cn(map[int]float64{2: 1, 4: 1}, ilp.LE, 4)}
	sol := solveSet(w, set, ilp.SetSolveOptions{WantCert: true})
	if !sol.OK || sol.Status != ilp.Optimal || sol.Cert == nil {
		t.Fatalf("set solve: %+v", sol)
	}
	full := &ilp.Problem{Sense: base.Sense, NumVars: base.NumVars, Objective: base.Objective,
		Prefix: base.Prefix, Constraints: set}
	genuine, err := checker.Verify(full, sol.Cert)
	if err != nil {
		t.Fatalf("genuine certificate rejected: %v", err)
	}
	other := &ilp.Certificate{Warm: true, Basis: sol.Cert.Basis,
		Presolve: &ilp.PresolveRecord{NumVars: rec.NumVars, Facts: rec.Facts, Rows: rec.Rows}}
	if _, err := checker.Verify(full, other); err == nil {
		t.Error("certificate naming another presolve record verified")
	}

	// Standard form of the claim: the reduced column, a slack per base row
	// (both <=), and the delta row's slack.
	total := 1 + len(rec.Rows) + 1
	rejected := 0
	for i := range sol.Cert.Basis {
		for j := 0; j < total; j++ {
			if slices.Contains(sol.Cert.Basis, j) {
				continue
			}
			c := &ilp.Certificate{Warm: true, Basis: slices.Clone(sol.Cert.Basis), Presolve: rec}
			c.Basis[i] = j
			got, err := checker.Verify(full, c)
			if err != nil {
				rejected++
				continue
			}
			if got.Objective.Cmp(genuine.Objective) != 0 {
				t.Errorf("swapped basis %v proved %s, optimum is %s", c.Basis, got.Objective.RatString(), genuine.Objective.RatString())
			}
		}
	}
	if rejected == 0 {
		t.Error("no basis with a swapped column was rejected")
	}
}
