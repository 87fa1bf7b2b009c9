package ipet

import (
	"reflect"
	"testing"

	"cinderella/internal/asm"
	"cinderella/internal/cfg"
	"cinderella/internal/constraint"
	"cinderella/internal/ilp"
)

// callContextProgram: main branches to one of two call sites of store, so
// store gets two contexts (the paper's x8.f1 / x8.f2 device of eq. 18).
// The then-arm around f1 carries extra multiply work, making the two
// disjuncts below genuinely different in cost.
const callContextProgram = `
main:
        beq  r1, r0, .La
        call store
        mul  r2, r2, r2
        mul  r2, r2, r2
        jmp  .Lend
.La:    call store
.Lend:  halt
store:
        add  r3, r2, r0
        ret
`

func contextAnalyzer(t *testing.T, annots string, mutate func(*Options)) *Analyzer {
	t.Helper()
	exe, err := asm.Assemble(callContextProgram)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := cfg.Build(exe)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	if mutate != nil {
		mutate(&opts)
	}
	an, err := New(prog, "main", opts)
	if err != nil {
		t.Fatal(err)
	}
	f, err := constraint.Parse(annots)
	if err != nil {
		t.Fatal(err)
	}
	if err := an.Apply(f); err != nil {
		t.Fatal(err)
	}
	return an
}

// TestContextSetsNotDeduped: two DNF sets that differ only in which call
// context they pin (store.x1 @ f1 = 1 versus store.x1 @ f2 = 1) lower to
// different variable columns and must never be merged by canonical dedup —
// their extreme-case solves genuinely differ.
func TestContextSetsNotDeduped(t *testing.T) {
	annots := `func main {
    (store.x1 @ f1 = 1 & store.x1 @ f2 = 0) | (store.x1 @ f1 = 0 & store.x1 @ f2 = 1)
}
`
	an := contextAnalyzer(t, annots, nil)
	est, err := an.Estimate()
	if err != nil {
		t.Fatal(err)
	}
	if est.NumSets != 2 || est.PrunedSets != 0 || est.SolvedSets != 2 {
		t.Fatalf("sets = %d pruned = %d solved = %d, want 2/0/2",
			est.NumSets, est.PrunedSets, est.SolvedSets)
	}
	if est.Stats.Deduped != 0 {
		t.Fatalf("context-distinct sets were deduped: %+v", est.Stats)
	}
	// The mul-heavy f1 arm must win the worst case, the bare f2 arm the
	// best case — distinct winning sets prove the sets were solved apart.
	if est.WCET.SetIndex == est.BCET.SetIndex {
		t.Fatalf("WCET and BCET report the same set %d; contexts collapsed", est.WCET.SetIndex)
	}
	if est.WCET.Cycles <= est.BCET.Cycles {
		t.Fatalf("bounds not separated: WCET %d, BCET %d", est.WCET.Cycles, est.BCET.Cycles)
	}

	// And the incremental machinery must agree with the exhaustive path.
	ref, err := an.ExhaustiveEstimate()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(reportOf(ref), reportOf(est)) {
		t.Fatalf("incremental diverges from exhaustive:\nref:  %+v\nfast: %+v", reportOf(ref), reportOf(est))
	}
}

// TestContextNullPruning: a disjunct contradictory within ONE context
// (f1 = 0 and f1 = 1) is trivially null, but a disjunct assigning different
// values to DIFFERENT contexts is satisfiable and must survive pruning.
func TestContextNullPruning(t *testing.T) {
	annots := `func main {
    (store.x1 @ f1 = 0 & store.x1 @ f1 = 1) | (store.x1 @ f1 = 0 & store.x1 @ f2 = 1)
}
`
	an := contextAnalyzer(t, annots, nil)
	est, err := an.Estimate()
	if err != nil {
		t.Fatal(err)
	}
	if est.NumSets != 2 || est.PrunedSets != 1 || est.SolvedSets != 1 {
		t.Fatalf("sets = %d pruned = %d solved = %d, want 2/1/1",
			est.NumSets, est.PrunedSets, est.SolvedSets)
	}
}

// setKeyOf is the canonical key of one set given as rows, built through a
// key table the way a solver plan builds it.
func setKeyOf(rows ...ilp.Constraint) string {
	atoms := make([]atomRow, len(rows))
	set := make([]int32, len(rows))
	for i, r := range rows {
		atoms[i] = atomRow{row: r}
		set[i] = int32(i)
	}
	key, _ := newKeyTable(atoms, false).setKey(set, nil)
	return key
}

// TestCanonicalSetKey pins the key's invariances at the lowered-ILP level:
// row order and homogeneous-equality sign are normalized away; distinct
// variable columns (the lowered form of distinct call contexts) are not.
func TestCanonicalSetKey(t *testing.T) {
	row := func(coeffs map[int]float64, rel ilp.Relation, rhs float64) ilp.Constraint {
		return ilp.Constraint{Coeffs: coeffs, Rel: rel, RHS: rhs}
	}
	a := []ilp.Constraint{
		row(map[int]float64{0: 1}, ilp.EQ, 1),
		row(map[int]float64{1: 1}, ilp.EQ, 0),
	}
	b := []ilp.Constraint{ // same rows, reversed order
		row(map[int]float64{1: 1}, ilp.EQ, 0),
		row(map[int]float64{0: 1}, ilp.EQ, 1),
	}
	c := []ilp.Constraint{ // same shape, different column
		row(map[int]float64{2: 1}, ilp.EQ, 1),
		row(map[int]float64{1: 1}, ilp.EQ, 0),
	}
	if setKeyOf(a...) != setKeyOf(b...) {
		t.Fatal("row order changed the canonical key")
	}
	if setKeyOf(a...) == setKeyOf(c...) {
		t.Fatal("distinct variable columns produced the same key")
	}
	// x0 - x1 = 0 and -x0 + x1 = 0 describe the same hyperplane.
	d := []ilp.Constraint{row(map[int]float64{0: 1, 1: -1}, ilp.EQ, 0)}
	e := []ilp.Constraint{row(map[int]float64{0: -1, 1: 1}, ilp.EQ, 0)}
	if setKeyOf(d...) != setKeyOf(e...) {
		t.Fatal("homogeneous equality sign changed the canonical key")
	}
	// Row fusion ambiguity: two one-row sets concatenated differently must
	// not collide with a differently split pair.
	f := []ilp.Constraint{row(map[int]float64{0: 1}, ilp.LE, 5)}
	g := []ilp.Constraint{
		row(map[int]float64{0: 1}, ilp.LE, 5),
		row(map[int]float64{0: 1}, ilp.LE, 5),
	}
	if setKeyOf(f...) == setKeyOf(g...) {
		t.Fatal("duplicate row count ignored by the canonical key")
	}
}
