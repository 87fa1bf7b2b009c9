package ipet

import (
	"errors"
	"strings"
	"testing"

	"cinderella/internal/constraint"
	"cinderella/internal/ilp"
)

// concreteAt runs the fully concrete path for one parameter point: bind the
// symbols, fresh one-shot analyzer, Estimate. It is the oracle every
// formula answer must bit-match.
func concreteAt(t *testing.T, annots string, params map[string]int64, opts Options) (*Estimate, error) {
	t.Helper()
	prog := checkDataProgram(t)
	bound, err := parseAnnots(t, annots).Bind(params)
	if err != nil {
		return nil, err
	}
	an, err := New(prog, "check_data", opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := an.Apply(bound); err != nil {
		return nil, err
	}
	return an.Estimate()
}

// TestParametrizeLoopBound: a symbolic loop upper bound swept over its
// domain — every point the formula covers must bit-match the concrete
// solver in both directions, with no fallbacks.
func TestParametrizeLoopBound(t *testing.T) {
	const annots = `
func check_data {
    loop 1: 1 .. n1
    (x4 = 0 & x6 = 1) | (x4 = 1 & x6 = 0)
    x4 = x9
}
`
	prog := checkDataProgram(t)
	opts := DefaultOptions()
	sess, err := Prepare(prog, "check_data", opts)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := sess.Parametrize(parseAnnots(t, annots), []ParamSpec{{Name: "n1", Lo: 1, Hi: 16}})
	if err != nil {
		t.Fatal(err)
	}
	if pb.Pieces() == 0 {
		t.Fatal("no pieces enumerated")
	}
	for n := int64(1); n <= 16; n++ {
		w, _, wok := pb.Eval([]int64{n})
		b, _, bok := pb.EvalBCET([]int64{n})
		want, err := concreteAt(t, annots, map[string]int64{"n1": n}, opts)
		if err != nil {
			t.Fatalf("n1=%d: concrete oracle: %v", n, err)
		}
		if !wok || !bok {
			t.Fatalf("n1=%d: formula does not cover the point (pieces: %d)", n, pb.Pieces())
		}
		if w != want.WCET.Cycles || b != want.BCET.Cycles {
			t.Fatalf("n1=%d: formula [%d, %d], concrete [%d, %d]", n, b, w, want.BCET.Cycles, want.WCET.Cycles)
		}
	}
	st := pb.Stats()
	if st.ParamFallbacks != 0 {
		t.Fatalf("expected no fallbacks on a fully covered sweep, got %d", st.ParamFallbacks)
	}
	if st.FormulaEvals != 32 {
		t.Fatalf("FormulaEvals = %d, want 32", st.FormulaEvals)
	}
	if st.ParamRegions != pb.Pieces() {
		t.Fatalf("ParamRegions = %d, Pieces = %d", st.ParamRegions, pb.Pieces())
	}
	if !strings.Contains(pb.Describe(), "WCET(n1)") {
		t.Fatalf("Describe missing WCET header:\n%s", pb.Describe())
	}
}

// TestParametrizeFormulaSymbol: a parameter inside a functionality formula
// (annotation constant), including values that make the scenario
// infeasible — the formula must agree with the concrete path on both the
// bound and the infeasibility, via the typed error.
func TestParametrizeFormulaSymbol(t *testing.T) {
	const annots = `
func check_data {
    loop 1: 1 .. 10
    (x4 = 0 & x6 = 1) | (x4 = 1 & x6 = 0)
    x4 = x9
    x2 = n1
}
`
	prog := checkDataProgram(t)
	opts := DefaultOptions()
	sess, err := Prepare(prog, "check_data", opts)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := sess.Parametrize(parseAnnots(t, annots), []ParamSpec{{Name: "n1", Lo: 0, Hi: 14}})
	if err != nil {
		t.Fatal(err)
	}
	feasiblePoints := 0
	for n := int64(0); n <= 14; n++ {
		got, gotErr := pb.EstimateAt([]int64{n})
		want, wantErr := concreteAt(t, annots, map[string]int64{"n1": n}, opts)
		var gotInf, wantInf *InfeasibleError
		switch {
		case errors.As(gotErr, &gotInf) && errors.As(wantErr, &wantInf):
			continue
		case gotErr != nil || wantErr != nil:
			t.Fatalf("n1=%d: formula err %v, concrete err %v", n, gotErr, wantErr)
		}
		feasiblePoints++
		if got.WCET.Cycles != want.WCET.Cycles || got.BCET.Cycles != want.BCET.Cycles {
			t.Fatalf("n1=%d: formula [%d, %d], concrete [%d, %d]",
				n, got.BCET.Cycles, got.WCET.Cycles, want.BCET.Cycles, want.WCET.Cycles)
		}
	}
	if feasiblePoints == 0 {
		t.Fatal("every swept point was infeasible; the test exercised nothing")
	}
}

// TestParametrizeCertified: under Options.Certify every retained feasible
// piece is re-verified through the exact certificate checker, and the
// synthesized reports carry Certified.
func TestParametrizeCertified(t *testing.T) {
	const annots = `
func check_data {
    loop 1: 1 .. n1
    (x4 = 0 & x6 = 1) | (x4 = 1 & x6 = 0)
    x4 = x9
}
`
	prog := checkDataProgram(t)
	opts := DefaultOptions()
	opts.Certify = true
	sess, err := Prepare(prog, "check_data", opts)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := sess.Parametrize(parseAnnots(t, annots), []ParamSpec{{Name: "n1", Lo: 2, Hi: 9}})
	if err != nil {
		t.Fatal(err)
	}
	if !pb.Certified() {
		t.Fatal("Certified() false under Options.Certify")
	}
	est, err := pb.EstimateAt([]int64{5})
	if err != nil {
		t.Fatal(err)
	}
	if !est.WCET.Certified || !est.BCET.Certified {
		t.Fatalf("formula report not certified: %+v %+v", est.WCET, est.BCET)
	}
	want, err := concreteAt(t, annots, map[string]int64{"n1": 5}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if est.WCET.Cycles != want.WCET.Cycles || est.BCET.Cycles != want.BCET.Cycles {
		t.Fatalf("certified formula [%d, %d], concrete [%d, %d]",
			est.BCET.Cycles, est.WCET.Cycles, want.BCET.Cycles, want.WCET.Cycles)
	}
}

// TestParametrizeChecksEveryPiece corrupts the objective of the WCET seed
// solves while an uncertified Parametrize runs: negating the positive
// coefficients of the solver's internal maximization turns each WCET solve
// into a BCET solve and leaves the BCET solves alone. The exact derivation
// checks each piece's basis whatever Options.Certify says, so the bases
// the corrupted solves end on are refused, and every answer the formula
// gives — a piece's or the fallback's — still equals a fresh concrete
// estimate.
func TestParametrizeChecksEveryPiece(t *testing.T) {
	prog := checkDataProgram(t)
	opts := DefaultOptions()
	refused := 0
	for _, tc := range []struct {
		annots string
		spec   ParamSpec
	}{
		{`
func check_data {
    loop 1: 1 .. n1
    (x4 = 0 & x6 = 1) | (x4 = 1 & x6 = 0)
    x4 = x9
}
`, ParamSpec{Name: "n1", Lo: 1, Hi: 16}},
		{`
func check_data {
    loop 1: 1 .. 10
    (x4 = 0 & x6 = 1) | (x4 = 1 & x6 = 0)
    x4 = x9
    x2 = n1
}
`, ParamSpec{Name: "n1", Lo: 0, Hi: 14}},
	} {
		sess, err := Prepare(prog, "check_data", opts)
		if err != nil {
			t.Fatal(err)
		}
		pb, err := func() (*ParamBound, error) {
			ilp.SetFaultInjector(func(s ilp.FaultSite, v float64) float64 {
				if s == ilp.FaultObjective && v > 0 {
					return -v
				}
				return v
			})
			defer ilp.SetFaultInjector(nil)
			return sess.Parametrize(parseAnnots(t, tc.annots), []ParamSpec{tc.spec})
		}()
		if err != nil {
			t.Fatal(err)
		}
		for n := tc.spec.Lo; n <= tc.spec.Hi; n++ {
			want, wantErr := concreteAt(t, tc.annots, map[string]int64{"n1": n}, opts)
			if w, _, ok := pb.Eval([]int64{n}); ok && (wantErr != nil || w != want.WCET.Cycles) {
				t.Errorf("n1=%d: formula WCET %d, concrete %v (err %v)", n, w, want, wantErr)
			}
			if b, _, ok := pb.EvalBCET([]int64{n}); ok && (wantErr != nil || b != want.BCET.Cycles) {
				t.Errorf("n1=%d: formula BCET %d, concrete %v (err %v)", n, b, want, wantErr)
			}
			got, gotErr := pb.EstimateAt([]int64{n})
			var gotInf, wantInf *InfeasibleError
			switch {
			case errors.As(gotErr, &gotInf) && errors.As(wantErr, &wantInf):
			case gotErr != nil || wantErr != nil:
				t.Errorf("n1=%d: formula err %v, concrete err %v", n, gotErr, wantErr)
			case got.WCET.Cycles != want.WCET.Cycles || got.BCET.Cycles != want.BCET.Cycles:
				t.Errorf("n1=%d: formula [%d, %d], concrete [%d, %d]",
					n, got.BCET.Cycles, got.WCET.Cycles, want.BCET.Cycles, want.WCET.Cycles)
			}
		}
		st := pb.Stats()
		refused += st.RejectedPieces
		t.Logf("%d seed solves, %d pieces kept, %d refused; %d formula answers, %d fallbacks",
			st.EnumSolves, pb.Pieces(), st.RejectedPieces, st.FormulaEvals, st.ParamFallbacks)
	}
	if refused == 0 {
		t.Error("no corrupted seed was refused")
	}
}

// TestParametrizeFallback: a query outside the declared domain box is
// answered by the concrete fallback and counted as such.
func TestParametrizeFallback(t *testing.T) {
	const annots = `
func check_data {
    loop 1: 1 .. n1
    (x4 = 0 & x6 = 1) | (x4 = 1 & x6 = 0)
    x4 = x9
}
`
	prog := checkDataProgram(t)
	opts := DefaultOptions()
	sess, err := Prepare(prog, "check_data", opts)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := sess.Parametrize(parseAnnots(t, annots), []ParamSpec{{Name: "n1", Lo: 1, Hi: 8}})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := pb.Eval([]int64{20}); ok {
		t.Fatal("Eval claimed coverage outside the domain box")
	}
	est, err := pb.EstimateAt([]int64{20})
	if err != nil {
		t.Fatal(err)
	}
	want, err := concreteAt(t, annots, map[string]int64{"n1": 20}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if est.WCET.Cycles != want.WCET.Cycles || est.BCET.Cycles != want.BCET.Cycles {
		t.Fatalf("fallback [%d, %d], concrete [%d, %d]",
			est.BCET.Cycles, est.WCET.Cycles, want.BCET.Cycles, want.WCET.Cycles)
	}
	if st := pb.Stats(); st.ParamFallbacks != 1 || est.Stats.ParamFallbacks != 1 {
		t.Fatalf("fallback not counted: bound stats %+v, report stats %+v", st, est.Stats)
	}
}

// TestUnboundSymbolError: symbolic annotations reaching a concrete Estimate
// fail with the typed, positioned error instead of a silent zero.
func TestUnboundSymbolError(t *testing.T) {
	prog := checkDataProgram(t)
	an, err := New(prog, "check_data", DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	f, err := parseAnnotsNamed(t, "param.ann", `
func check_data {
    loop 1: 1 .. n1
    (x4 = 0 & x6 = 1) | (x4 = 1 & x6 = 0)
    x4 = x9
}
`)
	if err != nil {
		t.Fatal(err)
	}
	if err := an.Apply(f); err != nil {
		t.Fatalf("Apply must accept symbolic bounds: %v", err)
	}
	_, err = an.Estimate()
	var ue *UnboundSymbolError
	if !errors.As(err, &ue) {
		t.Fatalf("Estimate error = %v, want *UnboundSymbolError", err)
	}
	if len(ue.Symbols) != 1 || ue.Symbols[0] != "n1" {
		t.Fatalf("Symbols = %v, want [n1]", ue.Symbols)
	}
	if ue.File != "param.ann" || ue.Line == 0 {
		t.Fatalf("error not positioned: %+v", ue)
	}
	if !strings.Contains(err.Error(), "param.ann") || !strings.Contains(err.Error(), "n1") {
		t.Fatalf("error message lacks position or symbol: %v", err)
	}
}

// TestParametrizeValidation pins the spec-validation failures.
func TestParametrizeValidation(t *testing.T) {
	const annots = `
func check_data {
    loop 1: 1 .. n1
    (x4 = 0 & x6 = 1) | (x4 = 1 & x6 = 0)
    x4 = x9
}
`
	prog := checkDataProgram(t)
	sess, err := Prepare(prog, "check_data", DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	file := parseAnnots(t, annots)
	cases := []struct {
		name  string
		specs []ParamSpec
		want  string
	}{
		{"missing", []ParamSpec{{Name: "n2", Lo: 1, Hi: 4}}, "no domain was declared"},
		{"unused", []ParamSpec{{Name: "n1", Lo: 1, Hi: 4}, {Name: "n2", Lo: 1, Hi: 4}}, "does not occur"},
		{"empty-domain", []ParamSpec{{Name: "n1", Lo: 5, Hi: 2}}, "empty domain"},
		{"invalid-bound", []ParamSpec{{Name: "n1", Lo: 0, Hi: 4}}, "lower bound 1 above upper bound 0"},
		{"none", nil, "at least one parameter"},
	}
	for _, tc := range cases {
		_, err := sess.Parametrize(file, tc.specs)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

// TestParamEvalNoAllocs: the Eval hot path must not allocate.
func TestParamEvalNoAllocs(t *testing.T) {
	const annots = `
func check_data {
    loop 1: 1 .. n1
    (x4 = 0 & x6 = 1) | (x4 = 1 & x6 = 0)
    x4 = x9
}
`
	prog := checkDataProgram(t)
	sess, err := Prepare(prog, "check_data", DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	pb, err := sess.Parametrize(parseAnnots(t, annots), []ParamSpec{{Name: "n1", Lo: 1, Hi: 16}})
	if err != nil {
		t.Fatal(err)
	}
	params := []int64{7}
	allocs := testing.AllocsPerRun(200, func() {
		if _, _, ok := pb.Eval(params); !ok {
			t.Fatal("Eval lost coverage")
		}
		if _, _, ok := pb.EvalBCET(params); !ok {
			t.Fatal("EvalBCET lost coverage")
		}
	})
	if allocs != 0 {
		t.Fatalf("Eval allocates %.1f objects per call, want 0", allocs)
	}
}

// parseAnnotsNamed parses with a file name so positions are stamped.
func parseAnnotsNamed(t *testing.T, name, src string) (*constraint.File, error) {
	t.Helper()
	return constraint.ParseNamed(name, src)
}
