package certify

import (
	"context"
	"fmt"
	"math/big"

	"cinderella/internal/ilp"
)

// ExactResult is the outcome of SolveExact.
type ExactResult struct {
	Status ilp.Status
	// Objective and X are the exact optimum (problem's own sense) when
	// Status is Optimal.
	Objective *big.Rat
	X         []*big.Rat
	// LPSolves / Pivots count the exact-arithmetic work performed.
	LPSolves int
	Pivots   int
	// RootIntegral reports that the root relaxation was already integral.
	RootIntegral bool
}

// SolveExact solves p from scratch in exact rational arithmetic: a
// two-phase primal simplex under Bland's rule (termination guaranteed —
// there is no tolerance to mis-set) with a branch-and-bound layer for
// Integer problems. It is the correctness-first slow path a certifying
// caller falls back to when a float64 result has no certificate or its
// certificate fails to verify; the problems of this domain are small, so
// "slow" is relative.
func SolveExact(ctx context.Context, p *ilp.Problem) (*ExactResult, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	res := &ExactResult{}
	status, obj, x, pivots := exactLP(p, nil)
	res.LPSolves++
	res.Pivots += pivots
	if status != ilp.Optimal {
		res.Status = status
		return res, nil
	}
	if !p.Integer || ratsIntegral(x) {
		res.RootIntegral = ratsIntegral(x)
		res.Status = ilp.Optimal
		res.Objective = obj
		res.X = x
		return res, nil
	}

	// Branch and bound, depth-first with exact best-bound pruning, in the
	// internal maximization sense (Minimize compares reversed).
	better := func(a, b *big.Rat) bool {
		if p.Sense == ilp.Maximize {
			return a.Cmp(b) > 0
		}
		return a.Cmp(b) < 0
	}
	type node struct {
		extra []ilp.Constraint
		bound *big.Rat
	}
	var best *ExactResult
	stack := []node{{bound: obj}}
	nodes := 0
	for len(stack) > 0 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		nd := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if best != nil && !better(nd.bound, best.Objective) {
			continue
		}
		nodes++
		if nodes > ilp.MaxNodes {
			return nil, fmt.Errorf("certify: exact branch-and-bound node limit exceeded (%d)", ilp.MaxNodes)
		}
		status, obj, x, pivots := exactLP(p, nd.extra)
		res.LPSolves++
		res.Pivots += pivots
		if status == ilp.Unbounded {
			res.Status = ilp.Unbounded
			return res, nil
		}
		if status != ilp.Optimal {
			continue
		}
		if best != nil && !better(obj, best.Objective) {
			continue
		}
		if bi := firstFractional(x); bi < 0 {
			best = &ExactResult{Status: ilp.Optimal, Objective: obj, X: x}
			continue
		} else {
			floor := ratFloorFloat(x[bi])
			left := append(append([]ilp.Constraint{}, nd.extra...),
				ilp.Constraint{Coeffs: map[int]float64{bi: 1}, Rel: ilp.LE, RHS: floor})
			right := append(append([]ilp.Constraint{}, nd.extra...),
				ilp.Constraint{Coeffs: map[int]float64{bi: 1}, Rel: ilp.GE, RHS: floor + 1})
			stack = append(stack, node{extra: left, bound: obj}, node{extra: right, bound: obj})
		}
	}
	if best == nil {
		res.Status = ilp.Infeasible
		return res, nil
	}
	res.Status = ilp.Optimal
	res.Objective = best.Objective
	res.X = best.X
	return res, nil
}

// exactLP solves the LP relaxation of p with extra branching rows appended,
// exactly, via the cold standard form.
func exactLP(p *ilp.Problem, extra []ilp.Constraint) (ilp.Status, *big.Rat, []*big.Rat, int) {
	q := p
	if len(extra) > 0 {
		q = &ilp.Problem{
			Sense:       p.Sense,
			NumVars:     p.NumVars,
			Objective:   p.Objective,
			Prefix:      p.Prefix,
			Constraints: append(append([]ilp.Constraint{}, p.Constraints...), extra...),
		}
	}
	sf := coldForm(q)
	cInt := make([]*big.Rat, sf.total)
	for j, v := range internalObj(q, sf.total) {
		cInt[j] = v.rat()
	}

	if sf.m == 0 {
		// The origin is the only basic point of the nonnegative orthant.
		for j := 0; j < sf.n; j++ {
			if cInt[j].Sign() > 0 {
				return ilp.Unbounded, nil, nil, 0
			}
		}
		return ilp.Optimal, new(big.Rat), ratZeros(sf.n), 0
	}

	// Dense rational tableau; rhs at column total.
	t := &exactTab{
		m:     sf.m,
		total: sf.total,
		tab:   make([][]*big.Rat, sf.m),
		basis: append([]int(nil), sf.initBasis...),
	}
	for i := range t.tab {
		t.tab[i] = ratZeros(sf.total + 1)
		for k, col := range sf.rows[i].cols {
			t.tab[i][col].Add(t.tab[i][col], sf.rows[i].vals[k].bigView())
		}
		t.tab[i][sf.total] = sf.rows[i].rhs.rat()
	}

	artStart := sf.total - sf.numArt
	if sf.numArt > 0 {
		obj1 := ratZeros(sf.total)
		for j := artStart; j < sf.total; j++ {
			obj1[j].SetInt64(-1)
		}
		t.optimize(obj1, sf.total) // bounded by 0: cannot be unbounded
		for i, b := range t.basis {
			if b >= artStart && t.tab[i][sf.total].Sign() != 0 {
				return ilp.Infeasible, nil, nil, t.pivots
			}
		}
		// Drive zero-valued artificials out of the basis where a nonzero
		// real/slack pivot exists; redundant rows keep theirs at zero.
		for i, b := range t.basis {
			if b < artStart {
				continue
			}
			for j := 0; j < artStart; j++ {
				if t.tab[i][j].Sign() != 0 {
					t.pivot(i, j)
					break
				}
			}
		}
	}

	if !t.optimize(cInt, artStart) {
		return ilp.Unbounded, nil, nil, t.pivots
	}

	x := ratZeros(sf.n)
	for i, b := range t.basis {
		if b < sf.n {
			x[b].Set(t.tab[i][sf.total])
		}
	}
	obj := new(big.Rat)
	tmp := new(big.Rat)
	for j, v := range q.Objective {
		tmp.SetFloat64(v)
		tmp.Mul(tmp, x[j])
		obj.Add(obj, tmp)
	}
	return ilp.Optimal, obj, x, t.pivots
}

type exactTab struct {
	m, total int
	tab      [][]*big.Rat // m rows × (total+1)
	basis    []int
	pivots   int
}

// optimize runs primal simplex (maximization) under Bland's rule: entering
// column is the lowest-index one with positive reduced cost, leaving row
// the exact minimum ratio with ties broken by lowest basic column. Returns
// false when unbounded.
func (t *exactTab) optimize(obj []*big.Rat, allowed int) bool {
	// Price out the basis: rc_j = c_j − Σ_i c_B(i)·tab[i][j].
	rc := ratZeros(t.total)
	tmp := new(big.Rat)
	for j := 0; j < t.total; j++ {
		rc[j].Set(obj[j])
	}
	for i, b := range t.basis {
		cb := obj[b]
		if cb.Sign() == 0 {
			continue
		}
		for j := 0; j < t.total; j++ {
			if t.tab[i][j].Sign() != 0 {
				tmp.Mul(cb, t.tab[i][j])
				rc[j].Sub(rc[j], tmp)
			}
		}
	}
	ratio := new(big.Rat)
	for {
		enter := -1
		for j := 0; j < allowed; j++ {
			if rc[j].Sign() > 0 {
				enter = j
				break
			}
		}
		if enter < 0 {
			return true
		}
		leave := -1
		var bestRatio *big.Rat
		for i := 0; i < t.m; i++ {
			a := t.tab[i][enter]
			if a.Sign() <= 0 {
				continue
			}
			ratio.Quo(t.tab[i][t.total], a)
			switch {
			case leave < 0 || ratio.Cmp(bestRatio) < 0:
				leave = i
				bestRatio = new(big.Rat).Set(ratio)
			case ratio.Cmp(bestRatio) == 0 && t.basis[i] < t.basis[leave]:
				leave = i
			}
		}
		if leave < 0 {
			return false
		}
		f := new(big.Rat).Set(rc[enter])
		t.pivot(leave, enter)
		pr := t.tab[leave]
		for j := 0; j <= t.total; j++ {
			if j < t.total && pr[j].Sign() != 0 {
				tmp.Mul(f, pr[j])
				rc[j].Sub(rc[j], tmp)
			}
		}
		rc[enter].SetInt64(0)
	}
}

func (t *exactTab) pivot(row, col int) {
	t.pivots++
	pr := t.tab[row]
	inv := new(big.Rat).Inv(pr[col])
	for j := 0; j <= t.total; j++ {
		if pr[j].Sign() != 0 {
			pr[j].Mul(pr[j], inv)
		}
	}
	tmp := new(big.Rat)
	for i := 0; i < t.m; i++ {
		if i == row {
			continue
		}
		ri := t.tab[i]
		f := ri[col]
		if f.Sign() == 0 {
			continue
		}
		f = new(big.Rat).Set(f)
		for j := 0; j <= t.total; j++ {
			if pr[j].Sign() != 0 {
				tmp.Mul(f, pr[j])
				ri[j].Sub(ri[j], tmp)
			}
		}
	}
	t.basis[row] = col
}

func ratZeros(n int) []*big.Rat {
	z := make([]*big.Rat, n)
	for i := range z {
		z[i] = new(big.Rat)
	}
	return z
}

func ratsIntegral(x []*big.Rat) bool {
	for _, v := range x {
		if !v.IsInt() {
			return false
		}
	}
	return true
}

// firstFractional returns the lowest-index non-integral entry, or -1.
func firstFractional(x []*big.Rat) int {
	for i, v := range x {
		if !v.IsInt() {
			return i
		}
	}
	return -1
}

// ratFloorFloat returns floor(v) as a float64; branching bounds in this
// domain are far below 2^53, so the conversion is exact.
func ratFloorFloat(v *big.Rat) float64 {
	q := new(big.Int).Quo(v.Num(), v.Denom())
	// big.Int Quo truncates toward zero; adjust for negative non-integers.
	if v.Sign() < 0 && !v.IsInt() {
		q.Sub(q, big.NewInt(1))
	}
	f, _ := new(big.Rat).SetInt(q).Float64()
	return f
}
