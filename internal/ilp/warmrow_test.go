package ilp

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// presolvableBase is warmBase with a fixed root and an equal pair in front,
// so the structural presolve has variables to substitute away.
func presolvableBase(rng *rand.Rand, sense Sense, n int) *Problem {
	p := warmBase(rng, sense, n)
	head := Pack([]Constraint{
		c(map[int]float64{0: 1}, EQ, float64(1+rng.Intn(3))),
		c(map[int]float64{1: 1, 2: -1}, EQ, 0),
	})
	p.Prefix = append(head, p.Prefix...)
	return p
}

// deltaPool draws per-set rows the way an annotation's relations look to
// the warm path: a few columns each, zero coefficients included (they keep
// an otherwise empty row alive without a presolve), any relation, small
// right-hand sides of either sign.
func deltaPool(rng *rand.Rand, n, size int) []Constraint {
	pool := make([]Constraint, size)
	for i := range pool {
		coeffs := map[int]float64{}
		for k := 0; k < 1+rng.Intn(3); k++ {
			coeffs[rng.Intn(n)] = float64(rng.Intn(5) - 2)
		}
		pool[i] = c(coeffs, Relation(rng.Intn(3)), float64(rng.Intn(10)-2))
	}
	return pool
}

// inlineRow is the reference the lowered rows must reproduce: the
// tableau-space coefficients written into a fresh row and eliminated in
// place against the base rows, right-hand side included, reading the given
// copy of the base right-hand sides.
func inlineRow(w *WarmStart, cols []int32, vals []float64, negate bool, rhs float64, baseRHS []float64) ([]float64, float64) {
	b := w.base
	r := make([]float64, b.total)
	for k, j := range cols {
		v := vals[k]
		if negate {
			v = -v
		}
		r[j] = v
	}
	for i := 0; i < b.m; i++ {
		f := r[b.basis[i]]
		if f == 0 {
			continue
		}
		ri := b.tab[i]
		for j := 0; j <= b.hi[i]; j++ {
			if ri[j] != 0 {
				r[j] -= f * ri[j]
			}
		}
		rhs -= f * baseRHS[i]
	}
	return r, rhs
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestWarmRowsLoweredOnce: a solve over rows lowered once and shared by
// many sets must match a solve that lowers the same rows at solve time —
// same status, objective bits, pivots, suspect count and certificate
// basis — on presolved and unpresolved bases, with and without a fault
// injected into the base right-hand sides the solve copies. Each lowered
// row must also reproduce, bit for bit, the tableau row an in-place
// elimination at solve time writes.
func TestWarmRowsLoweredOnce(t *testing.T) {
	faultRHS := func(site FaultSite, v float64) float64 {
		if site == FaultWarmBase {
			return v*1.001 + 0.25
		}
		return v
	}
	for _, cfg := range []struct {
		name     string
		presolve bool
		fault    bool
	}{
		{"presolved", true, false},
		{"presolved/fault", true, true},
		{"unpresolved", false, false},
		{"unpresolved/fault", false, true},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			defer SetFaultInjector(nil)
			rng := rand.New(rand.NewSource(0x5EED))
			compared := 0
			for trial := 0; trial < 80; trial++ {
				sense := Sense(trial % 2)
				n := 4 + rng.Intn(5)
				base := presolvableBase(rng, sense, n)
				var w *WarmStart
				if cfg.presolve {
					w = NewWarmStart(base, nil)
				} else {
					w = newWarmStart(base, nil)
				}
				if !w.Ready() {
					continue
				}
				if cfg.presolve && w.red == nil {
					continue // presolve fixed everything or nothing: no reduced base
				}
				if !cfg.presolve && w.red != nil {
					t.Fatalf("trial %d: presolve active in an unreduced warm start", trial)
				}
				if cfg.fault {
					SetFaultInjector(faultRHS)
				}
				baseRHS := make([]float64, w.base.m)
				for i := range baseRHS {
					baseRHS[i] = injectFault(FaultWarmBase, w.base.tab[i][w.base.total])
				}

				pool := deltaPool(rng, n, 8)
				lowered := make([]*WarmRow, len(pool))
				for i := range pool {
					lowered[i] = w.LowerRow(&pool[i])
					lr := lowered[i]
					if lr.fate != rowKeep {
						continue
					}
					// Load the row alone into a solve's tableau and compare
					// what lands there with an in-place elimination.
					var sc scratch
					k := 1
					if pool[i].Rel == EQ {
						k = 2
					}
					_, total := w.loadDelta(&sc, []*WarmRow{lr}, k)
					m0, total0 := w.base.m, w.base.total
					cols, vals, rhs := sortedCoeffsRHS(w, &pool[i])
					at := m0
					for _, o := range []struct {
						negate bool
						rhs    float64
						on     bool
					}{
						{false, rhs, pool[i].Rel != GE},
						{true, -rhs, pool[i].Rel != LE},
					} {
						if !o.on {
							continue
						}
						want, wantRHS := inlineRow(w, cols, vals, o.negate, o.rhs, baseRHS)
						got := sc.tab[at]
						if !sameBits(got[:total0], want) || math.Float64bits(got[total]) != math.Float64bits(wantRHS) {
							t.Fatalf("trial %d row %d (negate %v): loaded row %v | %v, inline elimination %v | %v",
								trial, i, o.negate, got[:total0], got[total], want, wantRHS)
						}
						for j := total0; j < total; j++ {
							want := 0.0
							if j == total0+at-m0 {
								want = 1 // the row's own slack
							}
							if got[j] != want {
								t.Fatalf("trial %d row %d: slack column %d = %v, want %v", trial, i, j, got[j], want)
							}
						}
						at++
					}
				}

				for si := 0; si < 12; si++ {
					k := 1 + rng.Intn(4)
					set := make([]Constraint, k)
					rows := make([]*WarmRow, k)
					for j := range set {
						p := rng.Intn(len(pool))
						set[j], rows[j] = pool[p], lowered[p]
					}
					opts := SetSolveOptions{Cutoff: float64(rng.Intn(40)), UseCutoff: rng.Intn(3) == 0,
						WantCert: true, NoX: true}
					got := w.SolveRows(rows, opts)
					want := w.solveSet(set, opts)
					if got.Status != want.Status || math.Float64bits(got.Objective) != math.Float64bits(want.Objective) ||
						got.Pivots != want.Pivots || got.Suspect != want.Suspect || got.OK != want.OK ||
						got.XIntegral != want.XIntegral || !reflect.DeepEqual(got.Cert, want.Cert) {
						t.Fatalf("trial %d set %d: rows lowered once %+v, lowered at solve time %+v", trial, si, got, want)
					}
					opts.NoX = false
					if gx, wx := w.SolveRows(rows, opts).X, w.solveSet(set, opts).X; !sameBits(gx, wx) {
						t.Fatalf("trial %d set %d: assignment %v, lowered at solve time %v", trial, si, gx, wx)
					}
					compared++
				}
				SetFaultInjector(nil)
			}
			if compared < 300 {
				t.Fatalf("only %d sets compared", compared)
			}
		})
	}
}

// sortedCoeffsRHS is a delta row in the tableau's variable space before
// elimination: substituted through the presolve when one is active.
func sortedCoeffsRHS(w *WarmStart, c *Constraint) ([]int32, []float64, float64) {
	if w.red == nil {
		cols, vals := sortedCoeffs(c.Coeffs)
		return cols, vals, c.RHS
	}
	cols, vals, rhs, _ := w.red.lowerDelta(c)
	return cols, vals, rhs
}
