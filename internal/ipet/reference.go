package ipet

import (
	"fmt"
	"math"

	"cinderella/internal/ilp"
)

// ExhaustiveEstimate is the analysis as the paper states it, kept as the
// reference Estimate is tested against (the way ilp keeps its dense
// simplex): each surviving set's full integer program is solved cold
// by ilp.Solve, in set order and for each direction, a later set wins only
// when strictly better, and the winner's counts come from its own solve.
// It runs none of Estimate's machinery — set dedup, warm starts, incumbent
// pruning, session caches, the worker pool, the winners' finishing solves —
// and ignores Workers, Certify, Deadline and Budget. For analyses without
// widened sets its bounds, counts and winning sets equal Estimate's; it
// fills in no certificate-layer fields and, of the work counters, only
// LPSolves, Branches and Stats.Pivots.
func (a *Analyzer) ExhaustiveEstimate() (*Estimate, error) {
	if err := checkNoSymbols(a.annots); err != nil {
		return nil, err
	}
	sets, _, total, pruned, err := a.buildSets()
	if err != nil {
		return nil, err
	}
	if len(sets) == 0 {
		return nil, &InfeasibleError{Sets: total, AllNull: true}
	}
	est := &Estimate{NumSets: total, PrunedSets: pruned, SolvedSets: len(sets), AllRootIntegral: true}
	plan := &solverPlan{atoms: a.atoms}
	loops := ilp.Pack(a.LoopBoundConstraints())
	for di, rep := range []*BoundReport{&est.WCET, &est.BCET} {
		db := &a.dirBases[di]
		d := &direction{sense: db.sense, obj: db.obj, prefix: a.prefix(db, loops)}
		rep.SetIndex = -1
		for si, set := range sets {
			sol, err := ilp.Solve(plan.problem(d, set))
			if err != nil {
				return nil, err
			}
			est.LPSolves += sol.Stats.LPSolves
			est.Branches += sol.Stats.Branches
			est.Stats.Pivots += sol.Stats.Pivots
			switch sol.Status {
			case ilp.Infeasible:
				continue
			case ilp.Unbounded:
				return nil, fmt.Errorf("ipet: ILP unbounded — a loop lacks a bound")
			}
			est.AllRootIntegral = est.AllRootIntegral && sol.Stats.RootIntegral
			cycles := int64(math.Round(sol.Objective))
			if rep.SetIndex < 0 || d.sense == ilp.Maximize && cycles > rep.Cycles ||
				d.sense == ilp.Minimize && cycles < rep.Cycles {
				*rep = BoundReport{Cycles: cycles, Counts: a.aggregateCounts(sol.Values), SetIndex: si, Exact: true}
			}
		}
		if rep.SetIndex < 0 {
			return nil, &InfeasibleError{Sets: total}
		}
	}
	return est, nil
}
