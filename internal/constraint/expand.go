package constraint

import "fmt"

// Set expansion. A list of formulas denotes "a set of constraint sets, where
// at least one constraint set member must be satisfied" (Section III.D):
// the cross product of the formulas' disjunctive normal forms, whose size
// "is doubled every time a functionality constraint with disjunction
// operator is added". The expansion runs over atom indices: each atom of
// the formulas is numbered once, and a constraint set is a list of those
// numbers. A consumer that lowers relations (package ipet) therefore lowers
// each atom once, however many sets it appears in.
//
// Widening: a sound over-approximation of a formula by a single
// conjunctive set. The cross product is worst-case exponential; when an
// analysis must bound the number of conjunctive sets it keeps, a
// disjunction can be replaced by the relations shared by all of its
// disjuncts. Dropping the non-shared rows only enlarges the feasible region
// (it is a superset of the union of the disjuncts' regions), so a WCET
// maximized — or a BCET minimized — over the widened set still encloses
// the true bound. The price is tightness, never soundness.

// Expansion is the cross product of a list of formulas in index form.
type Expansion struct {
	// Atoms lists every atom of the formulas once, in AppendAtoms order.
	Atoms []*Atom
	// Sets holds one list of indices into Atoms per conjunctive set, in
	// the order the cross product conjoins the relations. The lists are
	// read-only; they may share backing arrays.
	Sets [][]int32
	// Widened[i] marks set i as touched by widening (ExpandWiden only).
	Widened []bool
}

// Rels materializes set i as relations.
func (e *Expansion) Rels(i int) ConjunctiveSet {
	cs := make(ConjunctiveSet, len(e.Sets[i]))
	for k, ai := range e.Sets[i] {
		cs[k] = e.Atoms[ai].Rel
	}
	return cs
}

// AppendAtoms appends the atoms of f to dst depth first, left to right.
// Expand numbers atoms in this order, formula by formula, so the atoms of
// formulas[0..n) appended in turn line up with Expansion.Atoms.
func AppendAtoms(dst []*Atom, f Formula) []*Atom {
	switch x := f.(type) {
	case *Atom:
		dst = append(dst, x)
	case *And:
		for _, p := range x.Parts {
			dst = AppendAtoms(dst, p)
		}
	case *Or:
		for _, p := range x.Parts {
			dst = AppendAtoms(dst, p)
		}
	}
	return dst
}

// Expand computes the cross product of the formulas over atom indices.
// maxSets guards against blowup: an expansion that would exceed it fails.
func Expand(formulas []Formula, maxSets int) (*Expansion, error) {
	return expand(formulas, maxSets, false)
}

// ExpandWiden is Expand with graceful degradation: a formula whose
// expansion would push the running product past maxSets is widened (see
// Widen) instead of failing the whole expansion, and every set the widened
// formula touched is flagged in Widened, so callers can mark the resulting
// bound as sound-but-not-exact. When no formula overflows, the result is
// identical to Expand and no set is flagged.
func ExpandWiden(formulas []Formula, maxSets int) (*Expansion, error) {
	if maxSets < 1 {
		maxSets = 1
	}
	return expand(formulas, maxSets, true)
}

// node is a formula in index form.
type node struct {
	kind  nodeKind
	atom  int32
	parts []node
}

type nodeKind uint8

const (
	nodeAtom nodeKind = iota
	nodeAnd
	nodeOr
)

// expander numbers atoms and expands index-form formulas.
type expander struct {
	atoms   []*Atom
	maxSets int
	keys    []string // relKey per atom, filled on first use by widening
}

func (e *expander) compile(f Formula) (node, error) {
	var n node
	switch x := f.(type) {
	case *Atom:
		e.atoms = append(e.atoms, x)
		return node{kind: nodeAtom, atom: int32(len(e.atoms) - 1)}, nil
	case *And:
		n.kind = nodeAnd
		n.parts = make([]node, len(x.Parts))
		for i, p := range x.Parts {
			c, err := e.compile(p)
			if err != nil {
				return n, err
			}
			n.parts[i] = c
		}
	case *Or:
		n.kind = nodeOr
		n.parts = make([]node, len(x.Parts))
		for i, p := range x.Parts {
			c, err := e.compile(p)
			if err != nil {
				return n, err
			}
			n.parts[i] = c
		}
	default:
		return n, fmt.Errorf("constraint: unknown formula node %T", f)
	}
	return n, nil
}

func (e *expander) overflow() error {
	return fmt.Errorf("constraint: DNF expansion exceeds %d sets", e.maxSets)
}

// fits reports whether an a×b product stays within maxSets.
func (e *expander) fits(a, b int) bool {
	return b == 0 || a <= e.maxSets/b
}

func expand(formulas []Formula, maxSets int, widen bool) (*Expansion, error) {
	e := &expander{maxSets: maxSets}
	nodes := make([]node, len(formulas))
	for i, f := range formulas {
		n, err := e.compile(f)
		if err != nil {
			return nil, err
		}
		nodes[i] = n
	}
	out := [][]int32{{}}
	flags := []bool{false}
	for _, n := range nodes {
		sub, err := e.dnf(n)
		if err == nil && e.fits(len(out), len(sub)) {
			out, flags = product(out, sub, flags)
			continue
		}
		if !widen {
			if err == nil {
				err = e.overflow()
			}
			return nil, err
		}
		rows := e.widen(n)
		for i := range out {
			out[i] = append(out[i], rows...)
			flags[i] = true
		}
	}
	return &Expansion{Atoms: e.atoms, Sets: out, Widened: flags}, nil
}

// dnf expands one index-form formula into its conjunctive sets.
func (e *expander) dnf(n node) ([][]int32, error) {
	switch n.kind {
	case nodeAtom:
		return [][]int32{{n.atom}}, nil
	case nodeOr:
		var out [][]int32
		for _, p := range n.parts {
			sub, err := e.dnf(p)
			if err != nil {
				return nil, err
			}
			out = append(out, sub...)
			if len(out) > e.maxSets {
				return nil, e.overflow()
			}
		}
		return out, nil
	}
	out := [][]int32{{}}
	for _, p := range n.parts {
		sub, err := e.dnf(p)
		if err != nil {
			return nil, err
		}
		if !e.fits(len(out), len(sub)) {
			return nil, e.overflow()
		}
		out, _ = product(out, sub, nil)
	}
	return out, nil
}

// product conjoins every set of a with every set of b, a-major: set
// (i, j) is a[i] followed by b[j]. All result sets share one backing array
// (capacity-clipped, so appending to one never clobbers another). flags,
// when non-nil, carries a per-set flag of a through to its products.
func product(a, b [][]int32, flags []bool) ([][]int32, []bool) {
	if len(a) == 0 || len(b) == 0 {
		if flags != nil {
			flags = []bool{}
		}
		return nil, flags
	}
	na, nb := 0, 0
	for _, s := range a {
		na += len(s)
	}
	for _, s := range b {
		nb += len(s)
	}
	arena := make([]int32, 0, na*len(b)+nb*len(a))
	out := make([][]int32, 0, len(a)*len(b))
	var nf []bool
	if flags != nil {
		nf = make([]bool, 0, len(a)*len(b))
	}
	for i, x := range a {
		for _, y := range b {
			lo := len(arena)
			arena = append(arena, x...)
			arena = append(arena, y...)
			out = append(out, arena[lo:len(arena):len(arena)])
			if flags != nil {
				nf = append(nf, flags[i])
			}
		}
	}
	return out, nf
}

// widen collapses an index-form formula to one conjunctive set that every
// satisfying assignment of the formula also satisfies: atoms and
// conjunctions keep all their relations, a disjunction keeps only the
// relations common to all of its (recursively widened) parts.
func (e *expander) widen(n node) []int32 {
	switch n.kind {
	case nodeAtom:
		return []int32{n.atom}
	case nodeAnd:
		var out []int32
		for _, p := range n.parts {
			out = append(out, e.widen(p)...)
		}
		return out
	}
	parts := make([][]int32, len(n.parts))
	for i, p := range n.parts {
		parts[i] = e.widen(p)
	}
	if e.keys == nil {
		e.keys = make([]string, len(e.atoms))
		for i, a := range e.atoms {
			e.keys[i] = relKey(a.Rel)
		}
	}
	return union(parts, func(i int32) string { return e.keys[i] })
}

// relKey is the canonical identity used when intersecting relation lists:
// Rel.String() sorts variables and normalizes coefficient rendering, so
// syntactically reordered copies of one fact compare equal.
func relKey(r Rel) string { return r.String() }

// union returns the entries common to every list by key — the widened
// conjunction whose feasible region contains the union of the lists'
// regions. Entries keep the first list's order, a repeated key adds
// nothing, and with zero lists the result is empty (unconstrained).
func union(lists [][]int32, key func(int32) string) []int32 {
	if len(lists) == 0 {
		return []int32{}
	}
	keep := make([]int32, 0, len(lists[0]))
	seen := map[string]bool{}
	for _, r := range lists[0] {
		k := key(r)
		if seen[k] {
			continue
		}
		seen[k] = true
		inAll := true
		for _, other := range lists[1:] {
			found := false
			for _, o := range other {
				if key(o) == k {
					found = true
					break
				}
			}
			if !found {
				inAll = false
				break
			}
		}
		if inAll {
			keep = append(keep, r)
		}
	}
	return keep
}

// ConjunctiveSet is one conjunction of relations produced by expansion.
type ConjunctiveSet []Rel

// DNF expands a formula into disjunctive normal form: a set of conjunctive
// constraint sets, at least one of which must hold. maxSets guards against
// blowup.
func DNF(f Formula, maxSets int) ([]ConjunctiveSet, error) {
	ex := &expander{maxSets: maxSets}
	n, err := ex.compile(f)
	if err != nil {
		return nil, err
	}
	sets, err := ex.dnf(n)
	if err != nil {
		return nil, err
	}
	e := &Expansion{Atoms: ex.atoms, Sets: sets}
	return e.allRels(), nil
}

// CrossProduct combines the DNF expansions of several formulas into the
// overall set of constraint sets ("by intersecting all the functionality
// constraints we will obtain two functionality constraint sets"). It is
// Expand with every set materialized as relations.
func CrossProduct(formulas []Formula, maxSets int) ([]ConjunctiveSet, error) {
	e, err := Expand(formulas, maxSets)
	if err != nil {
		return nil, err
	}
	return e.allRels(), nil
}

// CrossProductWiden is ExpandWiden with every set materialized as
// relations; widened flags the sets widening touched.
func CrossProductWiden(formulas []Formula, maxSets int) ([]ConjunctiveSet, []bool, error) {
	e, err := ExpandWiden(formulas, maxSets)
	if err != nil {
		return nil, nil, err
	}
	sets := e.allRels()
	if sets == nil {
		sets = []ConjunctiveSet{} // an emptied product is an empty list, not nil
	}
	return sets, e.Widened, nil
}

func (e *Expansion) allRels() []ConjunctiveSet {
	if e.Sets == nil {
		return nil
	}
	out := make([]ConjunctiveSet, len(e.Sets))
	for i := range e.Sets {
		out[i] = e.Rels(i)
	}
	return out
}

// Widen collapses a formula to one conjunctive set that every satisfying
// assignment of the formula also satisfies (see the widening note above).
func Widen(f Formula) ConjunctiveSet {
	e := &expander{}
	n, err := e.compile(f)
	if err != nil {
		return nil
	}
	idx := e.widen(n)
	cs := make(ConjunctiveSet, len(idx))
	for k, ai := range idx {
		cs[k] = e.atoms[ai].Rel
	}
	return cs
}

// Union returns the relations common to every given set — the widened
// conjunction whose feasible region contains the union of the sets'
// regions. Rows keep the first set's order; with zero sets the result is
// the empty (unconstrained) set.
func Union(sets ...ConjunctiveSet) ConjunctiveSet {
	var rels []Rel
	lists := make([][]int32, len(sets))
	for i, cs := range sets {
		for _, r := range cs {
			lists[i] = append(lists[i], int32(len(rels)))
			rels = append(rels, r)
		}
	}
	keys := make([]string, len(rels))
	for i, r := range rels {
		keys[i] = relKey(r)
	}
	idx := union(lists, func(i int32) string { return keys[i] })
	out := make(ConjunctiveSet, len(idx))
	for k, i := range idx {
		out[k] = rels[i]
	}
	return out
}
