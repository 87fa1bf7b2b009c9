package constraint

import (
	"reflect"
	"testing"
)

// TestExpandIndexForm pins the index form against the relation form: atoms
// are numbered in AppendAtoms order, each set's indices materialize to the
// CrossProduct set of the same position, and an atom shared by many sets
// appears once in Atoms.
func TestExpandIndexForm(t *testing.T) {
	fs := parseFormulas(t,
		"(x2 = 1 & x3 = 0) | (x2 = 0 & x3 = 1)\n"+
			"x9 <= 4\n"+
			"(x5 = 1 & x6 = 0) | (x5 = 0 & (x6 = 1 | x6 = 2))")
	e, err := Expand(fs, 64)
	if err != nil {
		t.Fatal(err)
	}
	var atoms []*Atom
	for _, f := range fs {
		atoms = AppendAtoms(atoms, f)
	}
	if !reflect.DeepEqual(e.Atoms, atoms) {
		t.Fatalf("Expand numbered %d atoms differently from AppendAtoms (%d)", len(e.Atoms), len(atoms))
	}
	if len(e.Atoms) != 10 {
		t.Fatalf("got %d atoms, want 10", len(e.Atoms))
	}
	sets, err := CrossProduct(fs, 64)
	if err != nil {
		t.Fatal(err)
	}
	if len(e.Sets) != 6 || len(sets) != 6 || len(e.Widened) != 6 {
		t.Fatalf("got %d index sets, %d relation sets, %d flags; want 6 each", len(e.Sets), len(sets), len(e.Widened))
	}
	for i := range sets {
		if e.Widened[i] {
			t.Errorf("set %d flagged widened by Expand", i)
		}
		if !reflect.DeepEqual(setStrings(e.Rels(i)), setStrings(sets[i])) {
			t.Errorf("set %d: index form %v, relation form %v", i, setStrings(e.Rels(i)), setStrings(sets[i]))
		}
	}
	// The first set conjoins the first disjuncts in formula order.
	if got, want := e.Sets[0], []int32{0, 1, 4, 5, 6}; !reflect.DeepEqual(got, want) {
		t.Errorf("set 0 = %v, want %v", got, want)
	}
	if _, err := Expand(fs, 5); err == nil {
		t.Error("Expand under cap 5 should fail for 6 sets")
	}
}

// TestExpandWidenSharesAtoms: a widened formula's hull rows are atoms of the
// formula itself, so widening adds no atoms.
func TestExpandWidenSharesAtoms(t *testing.T) {
	fs := parseFormulas(t,
		"(x1 = 0 & x5 <= 2) | (x1 >= 1 & x5 <= 2)\n"+
			"(x2 = 0 & x6 <= 3) | (x2 >= 1 & x6 <= 3)")
	e, err := ExpandWiden(fs, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(e.Atoms) != 8 {
		t.Fatalf("got %d atoms, want 8", len(e.Atoms))
	}
	if len(e.Sets) != 2 {
		t.Fatalf("got %d sets, want 2", len(e.Sets))
	}
	for i := range e.Sets {
		if !e.Widened[i] {
			t.Errorf("set %d not flagged widened", i)
		}
		if got := setStrings(e.Rels(i)); got[len(got)-1] != "f.x6 <= 3" {
			t.Errorf("set %d = %v, want the shared row f.x6 <= 3 last", i, got)
		}
	}
	// Appending the hull to one set must not leak into its siblings.
	if len(e.Sets[0]) != 3 || len(e.Sets[1]) != 3 {
		t.Errorf("widened set lengths %d, %d; want 3, 3", len(e.Sets[0]), len(e.Sets[1]))
	}
}
