package constraint

import (
	"strings"
	"testing"
)

func parse(t *testing.T, src string) *File {
	t.Helper()
	f, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return f
}

func TestParseCheckDataAnnotations(t *testing.T) {
	// The running example of the paper: Fig. 5's constraints (14)-(17).
	f := parse(t, `
; check_data from Park's thesis
func check_data {
    loop 1: 1 .. 10
    (x3 = 0 & x5 = 1) | (x3 = 1 & x5 = 0)
    x3 = x8
}
`)
	sec, ok := f.Section("check_data")
	if !ok {
		t.Fatal("missing section")
	}
	if len(sec.LoopBounds) != 1 || sec.LoopBounds[0].Lo != 1 || sec.LoopBounds[0].Hi != 10 {
		t.Fatalf("loop bounds: %+v", sec.LoopBounds)
	}
	if len(sec.Formulas) != 2 {
		t.Fatalf("formulas: %d", len(sec.Formulas))
	}
	// First formula expands to exactly two conjunctive sets.
	sets, err := DNF(sec.Formulas[0], 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(sets) != 2 || len(sets[0]) != 2 || len(sets[1]) != 2 {
		t.Fatalf("sets = %v", sets)
	}
}

func TestCoefficients(t *testing.T) {
	f := parse(t, `
func f {
    x2 <= 10 x1
    2*x3 + 3 x4 - x5 >= 7
}
`)
	sec, _ := f.Section("f")
	a := sec.Formulas[0].(*Atom)
	x1 := Var{Func: "f", Kind: VarBlock, Index: 1}
	x2 := Var{Func: "f", Kind: VarBlock, Index: 2}
	if a.Rel.Op != OpLE || a.Rel.Terms[x2] != 1 || a.Rel.Terms[x1] != -10 || a.Rel.RHS != 0 {
		t.Fatalf("rel = %v", a.Rel)
	}
	b := sec.Formulas[1].(*Atom)
	if b.Rel.Op != OpGE || b.Rel.RHS != 7 {
		t.Fatalf("rel = %v", b.Rel)
	}
	x3 := Var{Func: "f", Kind: VarBlock, Index: 3}
	x5 := Var{Func: "f", Kind: VarBlock, Index: 5}
	if b.Rel.Terms[x3] != 2 || b.Rel.Terms[x5] != -1 {
		t.Fatalf("terms = %v", b.Rel.Terms)
	}
}

func TestChainedComparison(t *testing.T) {
	f := parse(t, "func f { 1 <= x2 <= 10 }\n")
	sec, _ := f.Section("f")
	and, ok := sec.Formulas[0].(*And)
	if !ok || len(and.Parts) != 2 {
		t.Fatalf("formula = %#v", sec.Formulas[0])
	}
	sets, _ := DNF(sec.Formulas[0], 10)
	if len(sets) != 1 || len(sets[0]) != 2 {
		t.Fatalf("sets = %v", sets)
	}
}

func TestStrictComparisons(t *testing.T) {
	f := parse(t, "func f { x1 < 5\n x2 > 3 }\n")
	sec, _ := f.Section("f")
	a := sec.Formulas[0].(*Atom)
	if a.Rel.Op != OpLE || a.Rel.RHS != 4 {
		t.Fatalf("x1 < 5 normalized to %v", a.Rel)
	}
	b := sec.Formulas[1].(*Atom)
	if b.Rel.Op != OpGE || b.Rel.RHS != 4 {
		t.Fatalf("x2 > 3 normalized to %v", b.Rel)
	}
}

func TestQualifiedAndContextVars(t *testing.T) {
	// Fig. 6 / eq (18): x12 = check_data.x8 @ f1.
	f := parse(t, `
func task {
    x12 = check_data.x8 @ f1
    d2 + f1 >= 1
    x1 = other.x3 @ other.f2
}
`)
	sec, _ := f.Section("task")
	a := sec.Formulas[0].(*Atom)
	want := Var{Func: "check_data", Kind: VarBlock, Index: 8, CallSiteFunc: "task", CallSite: 1}
	if a.Rel.Terms[want] != -1 {
		t.Fatalf("terms = %v", a.Rel.Terms)
	}
	b := sec.Formulas[1].(*Atom)
	d2 := Var{Func: "task", Kind: VarEdge, Index: 2}
	f1 := Var{Func: "task", Kind: VarCall, Index: 1}
	if b.Rel.Terms[d2] != 1 || b.Rel.Terms[f1] != 1 {
		t.Fatalf("terms = %v", b.Rel.Terms)
	}
	c := sec.Formulas[2].(*Atom)
	ctxVar := Var{Func: "other", Kind: VarBlock, Index: 3, CallSiteFunc: "other", CallSite: 2}
	if c.Rel.Terms[ctxVar] != -1 {
		t.Fatalf("terms = %v", c.Rel.Terms)
	}
}

func TestDNFCrossProductDoubling(t *testing.T) {
	// Each added disjunction doubles the set count (Section III.D).
	src := `
func f {
    (x1 = 0 | x1 = 1)
    (x2 = 0 | x2 = 1)
    (x3 = 0 | x3 = 1)
}
`
	f := parse(t, src)
	sec, _ := f.Section("f")
	sets, err := CrossProduct(sec.Formulas, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(sets) != 8 {
		t.Fatalf("sets = %d, want 8", len(sets))
	}
}

func TestDNFLimit(t *testing.T) {
	var parts []Formula
	for i := 1; i <= 20; i++ {
		parts = append(parts, &Or{Parts: []Formula{
			&Atom{Rel: Rel{Op: OpEQ, Terms: map[Var]int64{{Func: "f", Kind: VarBlock, Index: i}: 1}}},
			&Atom{Rel: Rel{Op: OpEQ, Terms: map[Var]int64{{Func: "f", Kind: VarBlock, Index: i}: 1}, RHS: 1}},
		}})
	}
	if _, err := CrossProduct(parts, 1000); err == nil {
		t.Fatal("expected DNF limit error")
	}
}

func TestSatisfied(t *testing.T) {
	x1 := Var{Func: "f", Kind: VarBlock, Index: 1}
	x2 := Var{Func: "f", Kind: VarBlock, Index: 2}
	cs := ConjunctiveSet{
		{Terms: map[Var]int64{x1: 1}, Op: OpEQ, RHS: 1},
		{Terms: map[Var]int64{x2: 1, x1: -10}, Op: OpLE, RHS: 0},
		{Terms: map[Var]int64{x2: 1}, Op: OpGE, RHS: 1},
	}
	if !cs.Satisfied(map[Var]int64{x1: 1, x2: 10}) {
		t.Fatal("satisfying assignment rejected")
	}
	if cs.Satisfied(map[Var]int64{x1: 1, x2: 11}) {
		t.Fatal("x2 > 10x1 accepted")
	}
	if cs.Satisfied(map[Var]int64{x1: 0, x2: 0}) {
		t.Fatal("x1 = 0 accepted")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		src string
		sub string
	}{
		{"fnc f {}", "expected \"func\""},
		{"func f { x1 }", "expected comparison"},
		{"func f { x1 = }", "expected term"},
		{"func f { loop 0: 1 .. 2 }", "1-based"},
		{"func f { loop 1: 5 .. 2 }", "bad loop bound"},
		{"func f { y3 = 1 }", "not a variable"},
		{"func f { x1 = x2 @ d3 }", "must be a call site"},
		{"func f { x1 = 1 ", "unterminated"},
		{"func f { x1 = 1 } func f { x2 = 1 }", "duplicate section"},
		{"func f { x1 = 1 $ }", "unexpected character"},
		{"func f { x0 = 1 }", "not a variable"},
	}
	for _, c := range cases {
		_, err := Parse(c.src)
		if err == nil {
			t.Errorf("Parse(%q) succeeded, want %q", c.src, c.sub)
			continue
		}
		if !strings.Contains(err.Error(), c.sub) {
			t.Errorf("Parse(%q) = %q, want containing %q", c.src, err, c.sub)
		}
	}
}

func TestRelString(t *testing.T) {
	x1 := Var{Func: "f", Kind: VarBlock, Index: 1}
	x2 := Var{Func: "f", Kind: VarBlock, Index: 2}
	r := Rel{Terms: map[Var]int64{x1: -10, x2: 1}, Op: OpLE, RHS: 0}
	s := r.String()
	if !strings.Contains(s, "10 f.x1") || !strings.Contains(s, "<= 0") {
		t.Fatalf("String = %q", s)
	}
	empty := Rel{Op: OpEQ, RHS: 3}
	if empty.String() != "0 = 3" {
		t.Fatalf("empty = %q", empty.String())
	}
}

// TestDNFSemanticEquivalence property-checks that an assignment satisfies
// the original formula iff it satisfies at least one expanded set.
func TestDNFSemanticEquivalence(t *testing.T) {
	src := `
func f {
    (x1 = 0 & x2 >= 2) | (x1 = 1 & x2 <= 1) | x3 >= 5
}
`
	f := parse(t, src)
	formula := f.Sections[0].Formulas[0]
	sets, err := DNF(formula, 100)
	if err != nil {
		t.Fatal(err)
	}
	x := func(i int) Var { return Var{Func: "f", Kind: VarBlock, Index: i} }

	var evalFormula func(fm Formula, a map[Var]int64) bool
	evalFormula = func(fm Formula, a map[Var]int64) bool {
		switch n := fm.(type) {
		case *Atom:
			return ConjunctiveSet{n.Rel}.Satisfied(a)
		case *And:
			for _, p := range n.Parts {
				if !evalFormula(p, a) {
					return false
				}
			}
			return true
		case *Or:
			for _, p := range n.Parts {
				if evalFormula(p, a) {
					return true
				}
			}
			return false
		}
		return false
	}

	for v1 := int64(0); v1 <= 2; v1++ {
		for v2 := int64(0); v2 <= 3; v2++ {
			for v3 := int64(0); v3 <= 6; v3 += 3 {
				a := map[Var]int64{x(1): v1, x(2): v2, x(3): v3}
				direct := evalFormula(formula, a)
				viaDNF := false
				for _, s := range sets {
					if s.Satisfied(a) {
						viaDNF = true
						break
					}
				}
				if direct != viaDNF {
					t.Fatalf("assign %v: direct=%v dnf=%v", a, direct, viaDNF)
				}
			}
		}
	}
}

// TestRelStringTable pins Rel.String byte for byte: variables sorted by
// their rendered names, signs folded into the joining operators, unit
// coefficients elided, call-site contexts rendered as @caller.f<n>, and
// parameter symbols appended to the right-hand side in name order.
func TestRelStringTable(t *testing.T) {
	x := func(fn string, i int) Var { return Var{Func: fn, Kind: VarBlock, Index: i} }
	d := func(fn string, i int) Var { return Var{Func: fn, Kind: VarEdge, Index: i} }
	f := func(fn string, i int) Var { return Var{Func: fn, Kind: VarCall, Index: i} }
	x8f1 := Var{Func: "check_data", Kind: VarBlock, Index: 8, CallSiteFunc: "task", CallSite: 1}
	for _, c := range []struct {
		rel  Rel
		want string
	}{
		{Rel{Terms: map[Var]int64{x("f", 1): -10, x("f", 2): 1, d("g", 3): 2}, Op: OpLE},
			"-10 f.x1 + f.x2 + 2 g.d3 <= 0"},
		{Rel{Terms: map[Var]int64{x("f", 3): -1, f("f", 2): 3}, Op: OpGE, RHS: -5},
			"3 f.f2 - f.x3 >= -5"},
		{Rel{Terms: map[Var]int64{x("f", 10): 1, x("f", 9): -4, x("f", 1): 1}, Op: OpEQ, RHS: 7},
			"f.x1 + f.x10 - 4 f.x9 = 7"},
		{Rel{Terms: map[Var]int64{x("task", 12): 1, x8f1: -1}, Op: OpEQ},
			"-check_data.x8@task.f1 + task.x12 = 0"},
		{Rel{Terms: map[Var]int64{x("f", 2): 1}, Op: OpLE, RHS: 3, Syms: map[string]int64{"n1": 2, "m": -1}},
			"f.x2 <= 3 - m + 2 n1"},
		{Rel{Terms: map[Var]int64{d("f", 4): 1}, Op: OpGE, Syms: map[string]int64{"n2": 1}},
			"f.d4 >= 0 + n2"},
		{Rel{Op: OpEQ, RHS: 3}, "0 = 3"},
	} {
		if got := c.rel.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}
