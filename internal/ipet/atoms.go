package ipet

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"

	"cinderella/internal/constraint"
	"cinderella/internal/ilp"
)

// Annotation relations in index form. Apply resolves every atom of the
// reachable formulas to ILP columns once (atomRow), in the numbering
// constraint.Expand uses, and set expansion yields each conjunctive set as
// a list of atom indices. Everything a set needs — its null-set check, its
// cache keys, its warm-start rows — is assembled from per-atom data built
// once per solver plan, so the per-set cost is a walk over a few integers
// however many sets share an atom. Only sets that reach a cold or certified
// solve materialize their rows as ilp.Constraint values.

// atomRow is one annotation relation resolved against the variable layout.
// The row carries no Name: diagnostics format the atom's relation.
type atomRow struct {
	atom *constraint.Atom
	row  ilp.Constraint
}

// reachableFormulas lists the formulas of the annotation sections whose
// function is in the call tree, in file order — the formulas Apply
// resolved.
func (a *Analyzer) reachableFormulas() []constraint.Formula {
	var formulas []constraint.Formula
	if a.annots != nil {
		for _, sec := range a.annots.Sections {
			if _, reachable := a.ctxByFunc[sec.Func]; !reachable {
				continue
			}
			formulas = append(formulas, sec.Formulas...)
		}
	}
	return formulas
}

// expand computes the cross product of the reachable formulas over the
// analyzer's atom table, widening overflowing formulas when widen is set.
func (a *Analyzer) expand(widen bool) (*constraint.Expansion, error) {
	expand := constraint.Expand
	if widen {
		expand = constraint.ExpandWiden
	}
	exp, err := expand(a.reachableFormulas(), a.Opts.MaxSets)
	if err != nil {
		return nil, err
	}
	if len(exp.Atoms) != len(a.atoms) {
		return nil, fmt.Errorf("ipet: internal error: expansion numbers %d atoms, Apply resolved %d", len(exp.Atoms), len(a.atoms))
	}
	for k, at := range exp.Atoms {
		if at != a.atoms[k].atom {
			return nil, fmt.Errorf("ipet: internal error: expansion atom %d is not the resolved atom", k)
		}
	}
	return exp, nil
}

// buildSets expands the functionality annotations into conjunctive
// constraint sets of atom indices, pruning trivially-null sets when
// enabled. With Opts.WidenSets, formulas whose expansion would overflow
// Opts.MaxSets are soundly widened instead of failing; widened[i] flags
// the surviving sets touched by widening. Pruning a widened set is sound:
// its feasible region contains every region it replaced, so widened-null
// implies all-null.
func (a *Analyzer) buildSets() (sets [][]int32, widened []bool, total, pruned int, err error) {
	exp, err := a.expand(a.Opts.WidenSets)
	if err != nil {
		return nil, nil, 0, 0, err
	}
	total = len(exp.Sets)
	var nc *nullChecker
	if a.Opts.PruneNullSets {
		nc = newNullChecker(a.atoms)
	}
	for i, set := range exp.Sets {
		if nc != nil && nc.null(set) {
			pruned++
			continue
		}
		sets = append(sets, set)
		widened = append(widened, exp.Widened[i])
	}
	return sets, widened, total, pruned, nil
}

// nullFact is an atom's part in the null-set test: a relation over a
// single variable (by its resolved coefficient map, zero entries included)
// with a nonzero coefficient bounds that variable by val from the side rel
// gives. v < 0 marks an atom the test ignores.
type nullFact struct {
	v   int
	rel ilp.Relation
	val float64
}

func newNullFact(c *ilp.Constraint) nullFact {
	if len(c.Coeffs) != 1 {
		return nullFact{v: -1}
	}
	var v int
	var coef float64
	for vv, cc := range c.Coeffs {
		v, coef = vv, cc
	}
	if coef == 0 {
		return nullFact{v: -1}
	}
	rel := c.Rel
	if coef < 0 {
		switch rel {
		case ilp.LE:
			rel = ilp.GE
		case ilp.GE:
			rel = ilp.LE
		}
	}
	return nullFact{v: v, rel: rel, val: c.RHS / coef}
}

// nullChecker detects trivially-null sets: contradictions among a set's
// single-variable relations by interval intersection — the paper's example
// being "x_i >= 1 intersected with x_i = 0". Its scratch is reused across
// the sets of one expansion.
type nullChecker struct {
	facts []nullFact
	slot  []int32 // per variable: 1 + its index in ivs, 0 when untouched
	ivs   []interval
}

type interval struct {
	v      int
	lo, hi float64
}

func newNullChecker(atoms []atomRow) *nullChecker {
	nc := &nullChecker{facts: make([]nullFact, len(atoms))}
	maxV := -1
	for k := range atoms {
		f := newNullFact(&atoms[k].row)
		nc.facts[k] = f
		maxV = max(maxV, f.v)
	}
	nc.slot = make([]int32, maxV+1)
	return nc
}

func (nc *nullChecker) null(set []int32) bool {
	null := false
	for _, ai := range set {
		f := &nc.facts[ai]
		if f.v < 0 {
			continue
		}
		if nc.slot[f.v] == 0 {
			// Variables are nonnegative.
			nc.ivs = append(nc.ivs, interval{v: f.v, lo: 0, hi: math.Inf(1)})
			nc.slot[f.v] = int32(len(nc.ivs))
		}
		b := &nc.ivs[nc.slot[f.v]-1]
		switch f.rel {
		case ilp.EQ:
			b.lo = math.Max(b.lo, f.val)
			b.hi = math.Min(b.hi, f.val)
		case ilp.LE:
			b.hi = math.Min(b.hi, f.val)
		case ilp.GE:
			b.lo = math.Max(b.lo, f.val)
		}
		if b.lo > b.hi+1e-9 {
			null = true
			break
		}
	}
	for _, b := range nc.ivs {
		nc.slot[b.v] = 0
	}
	nc.ivs = nc.ivs[:0]
	return null
}

// keyTable holds the per-atom encodings the per-set cache keys are
// assembled from.
type keyTable struct {
	// canon lists the distinct canonical row encodings in sorted order;
	// rank[k] is atom k's position in it.
	canon []string
	rank  []int32
	// exact[k] is atom k's order-sensitive packed encoding (packedRowsKey),
	// built only when asked for.
	exact []string
}

func newKeyTable(atoms []atomRow, withExact bool) *keyTable {
	rows := make([]ilp.Constraint, len(atoms))
	for k := range atoms {
		rows[k] = atoms[k].row
	}
	packed := ilp.Pack(rows)
	enc := make([]string, len(packed))
	for k := range packed {
		enc[k] = canonicalRowKey(&packed[k])
	}
	canon := slices.Clone(enc)
	slices.Sort(canon)
	t := &keyTable{canon: slices.Compact(canon), rank: make([]int32, len(enc))}
	for k, e := range enc {
		r, _ := slices.BinarySearch(t.canon, e)
		t.rank[k] = int32(r)
	}
	if withExact {
		t.exact = make([]string, len(packed))
		for k := range packed {
			t.exact[k] = packedRowsKey(packed[k : k+1])
		}
	}
	return t
}

// canonicalRowKey encodes one packed row for the order-free set key:
// Pack already sign-normalized it (rhs >= 0); a homogeneous equality (rhs
// 0) stays sign-ambiguous, so it is oriented by its first coefficient.
func canonicalRowKey(r *ilp.PackedRow) string {
	flip := r.Rel == ilp.EQ && r.RHS == 0 && len(r.Vals) > 0 && r.Vals[0] < 0
	b := make([]byte, 0, 9+12*len(r.Cols))
	b = append(b, byte(r.Rel))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(r.RHS))
	for k, col := range r.Cols {
		v := r.Vals[k]
		if flip {
			v = -v
		}
		b = binary.LittleEndian.AppendUint32(b, uint32(col))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return string(b)
}

// setKey is the canonical key of a set: its rows' canonical encodings
// sorted and length-prefixed, names excluded. Two sets with equal keys
// describe the identical feasible region, so one solve answers both.
// Context-qualified facts (x12 = x8 @ f1) lower to context-specific
// variable columns and therefore never collide with their aggregate
// counterparts. ranks is scratch, returned for reuse.
func (t *keyTable) setKey(set []int32, ranks []int32) (string, []int32) {
	ranks = ranks[:0]
	n := 0
	for _, ai := range set {
		r := t.rank[ai]
		ranks = append(ranks, r)
		n += 4 + len(t.canon[r])
	}
	slices.Sort(ranks)
	var sb strings.Builder
	sb.Grow(n)
	for _, r := range ranks {
		var lb [4]byte
		binary.LittleEndian.PutUint32(lb[:], uint32(len(t.canon[r])))
		sb.Write(lb[:])
		sb.WriteString(t.canon[r])
	}
	return sb.String(), ranks
}

// warmRow is one atom's row lowered into a direction's warm-start tableau,
// built by the first solve that needs it.
type warmRow struct {
	once sync.Once
	row  *ilp.WarmRow
}
