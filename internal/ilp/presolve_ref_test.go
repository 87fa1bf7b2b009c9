package ilp_test

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"cinderella/internal/asm"
	"cinderella/internal/bench"
	"cinderella/internal/cfg"
	"cinderella/internal/constraint"
	"cinderella/internal/ilp"
	"cinderella/internal/ipet"
)

// referencePresolve is the structural presolve as it ran before the
// worklist rewrite: every fixpoint pass re-reduces every row through a
// coefficient map, and the reduced rows are packed and deduplicated by a
// string key. It is kept here as the oracle the worklist presolve must
// reproduce exactly.
func referencePresolve(prefix []ilp.PackedRow, n int) (col []int32, fixed []float64, rows []ilp.PackedRow, ok, infeasible bool) {
	const tol = 1e-7 // the ilp package's presolve tolerance
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	find := func(v int) int {
		for parent[v] != v {
			parent[v] = parent[parent[v]]
			v = parent[v]
		}
		return v
	}
	hasVal := make([]bool, n)
	val := make([]float64, n)
	bad, changed := false, false
	fix := func(v int, x float64) {
		r := find(v)
		if x < 0 {
			if x < -tol {
				bad = true
				return
			}
			x = 0
		}
		if hasVal[r] {
			if math.Abs(val[r]-x) > tol {
				bad = true
			}
			return
		}
		hasVal[r], val[r] = true, x
		changed = true
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra == rb {
			return
		}
		if ra > rb {
			ra, rb = rb, ra
		}
		parent[rb] = ra
		if hasVal[rb] {
			if hasVal[ra] && math.Abs(val[ra]-val[rb]) > tol {
				bad = true
				return
			}
			hasVal[ra], val[ra] = true, val[rb]
		}
		changed = true
	}
	terms := map[int]float64{}
	for {
		changed = false
		for ri := range prefix {
			r := &prefix[ri]
			clear(terms)
			rhs := r.RHS
			for k, cv := range r.Cols {
				rt := find(int(cv))
				if hasVal[rt] {
					rhs -= r.Vals[k] * val[rt]
					continue
				}
				terms[rt] += r.Vals[k]
				if terms[rt] == 0 {
					delete(terms, rt)
				}
			}
			pos, neg := 0, 0
			for _, c := range terms {
				if c > 0 {
					pos++
				} else {
					neg++
				}
			}
			switch r.Rel {
			case ilp.EQ:
				switch {
				case len(terms) == 0:
					if math.Abs(rhs) > tol {
						bad = true
					}
				case len(terms) == 1:
					for rt, c := range terms {
						fix(rt, rhs/c)
					}
				case math.Abs(rhs) <= tol && (pos == 0 || neg == 0):
					for rt := range terms {
						fix(rt, 0)
					}
				case len(terms) == 2 && math.Abs(rhs) <= tol:
					var vs [2]int
					var cs [2]float64
					i := 0
					for rt, c := range terms {
						vs[i], cs[i] = rt, c
						i++
					}
					if cs[0] == -cs[1] {
						union(vs[0], vs[1])
					}
				}
			case ilp.LE:
				if len(terms) == 0 {
					if rhs < -tol {
						bad = true
					}
				} else if neg == 0 {
					if rhs < -tol {
						bad = true
					} else if rhs <= tol {
						for rt := range terms {
							fix(rt, 0)
						}
					}
				}
			case ilp.GE:
				if len(terms) == 0 {
					if rhs > tol {
						bad = true
					}
				} else if pos == 0 {
					if rhs > tol {
						bad = true
					} else if rhs >= -tol {
						for rt := range terms {
							fix(rt, 0)
						}
					}
				}
			}
			if bad {
				return nil, nil, nil, false, true
			}
		}
		if !changed {
			break
		}
	}

	col = make([]int32, n)
	fixed = make([]float64, n)
	nRed := 0
	rootCol := map[int]int32{}
	for v := 0; v < n; v++ {
		rt := find(v)
		if hasVal[rt] {
			col[v], fixed[v] = -1, val[rt]
			continue
		}
		c, seen := rootCol[rt]
		if !seen {
			c = int32(nRed)
			rootCol[rt] = c
			nRed++
		}
		col[v] = c
	}
	if nRed == n || nRed == 0 {
		return nil, nil, nil, false, false
	}
	var reduced []ilp.Constraint
	for ri := range prefix {
		r := &prefix[ri]
		coeffs := map[int]float64{}
		rhs := r.RHS
		for k, cv := range r.Cols {
			if col[cv] < 0 {
				rhs -= r.Vals[k] * fixed[cv]
				continue
			}
			j := int(col[cv])
			coeffs[j] += r.Vals[k]
			if coeffs[j] == 0 {
				delete(coeffs, j)
			}
		}
		if len(coeffs) == 0 {
			holds := r.Rel == ilp.LE && rhs >= -tol || r.Rel == ilp.GE && rhs <= tol || r.Rel == ilp.EQ && math.Abs(rhs) <= tol
			if !holds {
				return nil, nil, nil, false, true
			}
			continue
		}
		reduced = append(reduced, ilp.Constraint{Coeffs: coeffs, Rel: r.Rel, RHS: rhs})
	}
	seen := map[string]bool{}
	for _, pr := range ilp.Pack(reduced) {
		key := rowKey(&pr)
		if seen[key] {
			continue
		}
		seen[key] = true
		rows = append(rows, pr)
	}
	return col, fixed, rows, true, false
}

// rowKey serializes a packed row for exact-duplicate detection.
func rowKey(r *ilp.PackedRow) string {
	b := make([]byte, 0, 16+12*len(r.Cols))
	b = append(b, byte(r.Rel))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(r.RHS))
	for k, c := range r.Cols {
		b = binary.LittleEndian.AppendUint32(b, uint32(c))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(r.Vals[k]))
	}
	return string(b)
}

func floatBits(vs []float64) []uint64 {
	out := make([]uint64, len(vs))
	for i, v := range vs {
		out[i] = math.Float64bits(v)
	}
	return out
}

// presolveBases returns the warm-start base rows of the Table I programs
// and the 16- to 256-set path-explosion chains, as the estimate builds
// them without first-iteration splitting: structural rows, then loop
// bounds.
func presolveBases(tb testing.TB) map[string]struct {
	prefix []ilp.PackedRow
	n      int
} {
	tb.Helper()
	opts := ipet.DefaultOptions()
	opts.Workers = 1
	bases := map[string]struct {
		prefix []ilp.PackedRow
		n      int
	}{}
	add := func(name string, an *ipet.Analyzer) {
		rows := append(an.StructuralConstraints(), an.LoopBoundConstraints()...)
		bases[name] = struct {
			prefix []ilp.PackedRow
			n      int
		}{ilp.Pack(rows), an.NumVars()}
	}
	for _, bm := range bench.All() {
		bt, err := bm.Build(opts)
		if err != nil {
			tb.Fatal(err)
		}
		add(bm.Name, bt.An)
	}
	for k := 4; k <= 8; k++ {
		an, err := explosionAnalyzer(k, opts)
		if err != nil {
			tb.Fatal(err)
		}
		add(fmt.Sprintf("chain%d", 1<<k), an)
	}
	return bases
}

// explosionAnalyzer builds the analyzer of the k-diamond path-explosion
// chain (2^k functionality sets).
func explosionAnalyzer(k int, opts ipet.Options) (*ipet.Analyzer, error) {
	asmText, annots := bench.ExplosionAsm(k)
	exe, err := asm.Assemble(asmText)
	if err != nil {
		return nil, err
	}
	prog, err := cfg.Build(exe)
	if err != nil {
		return nil, err
	}
	an, err := ipet.New(prog, "main", opts)
	if err != nil {
		return nil, err
	}
	f, err := constraint.Parse(annots)
	if err != nil {
		return nil, err
	}
	if err := an.Apply(f); err != nil {
		return nil, err
	}
	return an, nil
}

// TestPresolveMatchesReference: the worklist presolve derives exactly the
// reduced problem of the pass-based reference — the same classes and
// reduced columns, the same fixed values, and the same reduced rows in the
// same order, bit for bit — on every Table I base and chain base.
func TestPresolveMatchesReference(t *testing.T) {
	bases := presolveBases(t)
	names := make([]string, 0, len(bases))
	for name := range bases {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		b := bases[name]
		wantCol, wantFixed, wantRows, wantOK, wantInf := referencePresolve(b.prefix, b.n)
		pre := ilp.NewPresolve(b.prefix, b.n)
		col, fixed, rows, ok := pre.Reduction()
		if wantInf || !wantOK {
			t.Fatalf("%s: reference presolve reduced nothing (infeasible %v)", name, wantInf)
		}
		if !ok {
			t.Errorf("%s: presolve reduced nothing", name)
			continue
		}
		if !reflect.DeepEqual(col, wantCol) {
			t.Errorf("%s: reduced columns differ:\ngot  %v\nwant %v", name, col, wantCol)
		}
		if !reflect.DeepEqual(floatBits(fixed), floatBits(wantFixed)) {
			t.Errorf("%s: fixed values differ:\ngot  %v\nwant %v", name, fixed, wantFixed)
		}
		if len(rows) != len(wantRows) {
			t.Errorf("%s: %d reduced rows, want %d", name, len(rows), len(wantRows))
			continue
		}
		for i := range rows {
			g, w := rows[i], wantRows[i]
			if g.Rel != w.Rel || math.Float64bits(g.RHS) != math.Float64bits(w.RHS) ||
				!reflect.DeepEqual(g.Cols, w.Cols) || !reflect.DeepEqual(floatBits(g.Vals), floatBits(w.Vals)) {
				t.Errorf("%s: reduced row %d is %+v, want %+v", name, i, g, w)
			}
		}
		t.Logf("%s: %d variables, %d rows -> %d reduced rows", name, b.n, len(b.prefix), len(rows))
	}
}

// TestPresolveAllocations gates the presolve's allocations on dhry's base:
// at least 3x fewer than the pass-based reference. The race runtime drops
// sync.Pool items, so the gate runs only without it.
func TestPresolveAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector on: the pooled presolve scratch is dropped")
	}
	b := presolveBases(t)["dhry"]
	got := testing.AllocsPerRun(20, func() { ilp.NewPresolve(b.prefix, b.n) })
	ref := testing.AllocsPerRun(20, func() { referencePresolve(b.prefix, b.n) })
	t.Logf("dhry base presolve: %.0f allocs, reference %.0f", got, ref)
	if got*3 > ref {
		t.Errorf("dhry base presolve makes %.0f allocations, reference %.0f: want at least 3x fewer", got, ref)
	}
}

// BenchmarkPresolveDhry measures the presolve of dhry's warm-start base.
func BenchmarkPresolveDhry(b *testing.B) {
	base := presolveBases(b)["dhry"]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ilp.NewPresolve(base.prefix, base.n)
	}
}
