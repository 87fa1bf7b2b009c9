package ipet

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/big"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cinderella/internal/ilp"
	"cinderella/internal/ilp/certify"
	"cinderella/internal/march"
)

// BoundReport is one extreme-case estimate: the cycle bound, the block
// counts that achieve it (aggregated over contexts, per function), and the
// functionality constraint set that produced it.
type BoundReport struct {
	Cycles int64
	// Counts maps function name to per-block execution counts x_i at the
	// optimum, summed over call contexts. Nil when the bound is a pure
	// relaxation envelope (no solved set achieved it).
	Counts map[string][]int64
	// SetIndex identifies the winning functionality constraint set; -1
	// when the bound is the relaxation envelope over unsolved sets.
	SetIndex int
	// Exact reports that Cycles is the true ILP extreme: every constraint
	// set was solved un-widened and none was abandoned to a deadline,
	// budget, or crash. A non-exact bound is still sound — WCET from
	// above, BCET from below — just possibly loose.
	Exact bool
	// Slack bounds the looseness of a non-exact bound when an exactly
	// solved set is available as a witness: the true extreme lies within
	// Slack cycles of Cycles (on the inside). Zero when Exact; -1 when no
	// exact witness exists and the looseness is unknown.
	Slack int64
	// Certified reports that, under Options.Certify, every per-set claim
	// this bound reduces over was backed by an exact rational check: a
	// verified optimal-basis certificate or an exact re-solve. Always false
	// without Certify, and false for envelope reports (an unsolved set has
	// no claim to certify).
	Certified bool
	// RecheckedSets counts the distinct per-set claims of this direction
	// that the certificate layer could not vouch for and re-solved exactly
	// (rejected or missing certificates, infeasibility claims, suspect
	// solves). Zero without Options.Certify.
	RecheckedSets int
}

// Stats breaks down the work of one Estimate across the incremental
// cross-product machinery (set dedup, warm-started dual simplex, incumbent
// pruning). Set counters are per expansion; job counters are per
// (direction, distinct set) solve. Work counters (WarmSolves, ColdSolves,
// Pivots) and the incumbent counters depend on solve timing when Workers >
// 1 and IncumbentPrune is on; everything the analysis reports — bounds,
// counts, winning sets — does not.
type Stats struct {
	// SetsTotal is the number of conjunctive sets after DNF expansion.
	SetsTotal int
	// PrunedNull counts trivially-null sets dropped before any solve.
	PrunedNull int
	// Deduped counts surviving sets answered by a canonically identical
	// earlier set instead of their own solve.
	Deduped int
	// IncumbentSkipped counts solve jobs abandoned once the LP relaxation
	// proved the set strictly worse than the shared incumbent.
	IncumbentSkipped int
	// Solved counts solve jobs carried to completion (optimal or
	// infeasible).
	Solved int
	// WarmSolves counts jobs concluded by the warm dual-simplex path plus
	// the winners' finishing warm solves (finishDir), which also test the
	// optimum for uniqueness; ColdSolves counts full two-phase solves (base
	// solves, fallbacks, disabled warm start, and the canonicalizing
	// re-solve of a winner whose optimum is not unique or has no warm
	// base).
	WarmSolves int
	ColdSolves int
	// Pivots counts simplex pivots across every solve of the estimate —
	// the primary cost metric the warm start attacks.
	Pivots int
	// NetworkSolves counts cold LP solves answered by the solver's
	// min-cost-flow fast path (annotation-light sets whose rows are
	// network-expressible — the paper's polynomial-time route).
	NetworkSolves int
	// RevisedPivots counts the subset of Pivots performed by the revised
	// (factored-basis) simplex kernel; Refactorizations counts that
	// kernel's basis refactorizations.
	RevisedPivots    int
	Refactorizations int
	// CacheHits counts per-set solve jobs answered by a prepared session's
	// persistent cross-estimate cache with no simplex work at all. Always
	// zero for analyzers made by New; see Prepare. Cache-answered jobs are
	// not counted in Solved, WarmSolves, or ColdSolves.
	CacheHits int
	// BuildTime covers set expansion, canonicalization, prefix packing and
	// base solves; SolveTime covers the per-set solve fan-out and reduce.
	BuildTime time.Duration
	SolveTime time.Duration
	// SetsWidened counts sets whose constraints were soundly relaxed: sets
	// produced by Options.WidenSets collapsing an overflowing disjunction,
	// plus solve jobs that crashed and were absorbed into the relaxation
	// envelope rather than silently dropped.
	SetsWidened int
	// SetsUnsolved counts per-set solve jobs never carried to completion
	// because the deadline or pivot budget expired (or the job crashed);
	// their contribution to the bound is the relaxation envelope.
	SetsUnsolved int
	// DeadlineHit reports that Options.Deadline expired during the solve.
	DeadlineHit bool
	// SuspectPivots counts float64 simplex pivots whose pivot element fell
	// outside the well-conditioned magnitude window — the ill-conditioning
	// signal that, under Options.Certify, routes a claim to the exact
	// fallback.
	SuspectPivots int
	// CertFailures counts per-set claims whose certificate was rejected by
	// the exact checker (or whose certified value contradicted the claim);
	// each was re-solved exactly, except a winner's finishing warm solve,
	// which falls back to the (verified) cold re-solve. Zero without
	// Options.Certify — and zero on a healthy solver.
	CertFailures int
	// ExactResolves counts exact rational re-solves performed under
	// Options.Certify: one per claim without a verifiable certificate.
	// Resolves splits it by cause and always sums to it.
	ExactResolves int
	Resolves      ResolveCauses
	// FormulaEvals counts queries of this report answered by a parametric
	// piecewise-linear formula with no simplex work (ParamBound.EstimateAt);
	// ParamRegions is the formula's total piece count; ParamFallbacks counts
	// queries the formula could not cover that fell back to a concrete
	// warm-started solve. All zero for plain Estimate calls.
	FormulaEvals   int
	ParamRegions   int
	ParamFallbacks int
	// ArtifactHits and ArtifactMisses count per-function prepare artifacts
	// (CFG skeletons, block-cost tables, packed structural row templates)
	// served from, respectively built into, the process-wide
	// content-addressed cache (internal/prepcache) when the session was
	// prepared. They are recorded once into the session ledger at Prepare
	// time and are zero in per-Estimate stats.
	ArtifactHits   int
	ArtifactMisses int
}

// ResolveCauses splits Stats.ExactResolves by why a float64 claim could
// not stand on a verified certificate; each exact re-solve counts under
// exactly one cause, taken in the order of the fields.
type ResolveCauses struct {
	// Suspect counts claims whose solve crossed numerically suspect
	// pivots; their certificates are not consulted.
	Suspect int
	// Rejected counts claims found wrong: the exact checker refused their
	// certificate, or the exact re-solve overturned them (another status,
	// or another optimum than the claim or an already certified bound).
	Rejected int
	// Infeasible counts infeasibility claims and Dominated counts
	// incumbent-domination claims; neither kind carries a certificate.
	Infeasible int
	Dominated  int
	// MissingCert counts the remaining claims that carried no certificate:
	// optima found by branch and bound, and unboundedness claims.
	MissingCert int
}

// note counts one exact re-solve of a claim with the given status.
func (c *ResolveCauses) note(status ilp.Status, suspect, rejected bool) {
	switch {
	case suspect:
		c.Suspect++
	case rejected:
		c.Rejected++
	case status == ilp.Infeasible:
		c.Infeasible++
	case status == ilp.Dominated:
		c.Dominated++
	default:
		c.MissingCert++
	}
}

func (c ResolveCauses) total() int {
	return c.Suspect + c.Rejected + c.Infeasible + c.Dominated + c.MissingCert
}

func (c *ResolveCauses) add(d ResolveCauses) {
	c.Suspect += d.Suspect
	c.Rejected += d.Rejected
	c.Infeasible += d.Infeasible
	c.Dominated += d.Dominated
	c.MissingCert += d.MissingCert
}

// String lists the nonzero causes, as in "infeasible 10, rejected 2".
func (c ResolveCauses) String() string {
	var parts []string
	for _, f := range []struct {
		name string
		n    int
	}{
		{"suspect", c.Suspect}, {"rejected", c.Rejected}, {"infeasible", c.Infeasible},
		{"dominated", c.Dominated}, {"missing certificate", c.MissingCert},
	} {
		if f.n > 0 {
			parts = append(parts, fmt.Sprintf("%s %d", f.name, f.n))
		}
	}
	return strings.Join(parts, ", ")
}

// Estimate is the full result of a timing analysis: the estimated bound
// [BCET, WCET] of Fig. 1 plus the solver statistics the paper reports.
type Estimate struct {
	WCET BoundReport
	BCET BoundReport
	// NumSets is the number of functionality constraint sets after DNF
	// expansion (the "Sets" column of Table I).
	NumSets int
	// PrunedSets counts trivially-null sets dropped before solving (dhry:
	// 8 generated, 5 pruned, 3 solved).
	PrunedSets int
	// SolvedSets is NumSets - PrunedSets.
	SolvedSets int
	// LPSolves and Branches accumulate ILP work across all solves.
	LPSolves int
	Branches int
	// AllRootIntegral reports whether every ILP solved at the first LP
	// relaxation — the paper's Section VI observation.
	AllRootIntegral bool
	// Stats details the incremental-solving work (dedup, warm start,
	// incumbent pruning) behind this estimate.
	Stats Stats
}

// firstIterSplit adds the Section IV refinement to a worst-case objective:
// blocks of cache-resident loops get a first-iteration variable xf with
// xf <= x and xf <= (loop entries); the objective charges full miss costs
// only to xf and steady-state costs to the rest.
type objective struct {
	coeffs map[int]float64
	extra  []ilp.Constraint
	nVars  int
}

// addCost accumulates an integer cycle cost into an objective coefficient,
// guarding the exactly-representable integer range of float64: beyond
// ±2^53 (ilp.MaxExactCoeff) the float sum could silently round away cycles
// and corrupt the bound, so the analysis errors out instead of wrapping.
// Within the guard every partial sum is an exact integer.
func addCost(coeffs map[int]float64, x int, c int64) error {
	v := coeffs[x] + float64(c)
	if math.Abs(v) > float64(ilp.MaxExactCoeff) {
		return fmt.Errorf("ipet: objective coefficient of variable %d overflows the exact float64 integer range (|%.6g| > 2^53); block costs are too large to analyze soundly", x, v)
	}
	coeffs[x] = v
	return nil
}

func (a *Session) worstObjective() (objective, error) {
	obj := objective{coeffs: make(map[int]float64, a.numBlockVars()), nVars: a.nVars}
	for _, ctx := range a.contexts {
		fc := a.Prog.Funcs[ctx.Func]
		costs := a.costs[ctx.Func]

		// innermost[b] is the smallest cache-resident loop containing b.
		var innermost map[int]int
		if a.Opts.SplitFirstIteration {
			innermost = map[int]int{}
			for li := range fc.Loops {
				if !march.LoopCacheResident(fc, &fc.Loops[li], a.Opts.March.Cache) {
					continue
				}
				for _, b := range fc.Loops[li].Blocks {
					cur, ok := innermost[b]
					if !ok || len(fc.Loops[li].Blocks) < len(fc.Loops[cur].Blocks) {
						innermost[b] = li
					}
				}
			}
		}

		for b := range fc.Blocks {
			x := a.blockVar(ctx.ID, b)
			li, split := -1, false
			if innermost != nil {
				li, split = innermost[b]
			}
			if !split {
				if err := addCost(obj.coeffs, x, costs[b].Worst); err != nil {
					return obj, err
				}
				continue
			}
			loop := fc.Loops[li]
			xf := obj.nVars
			obj.nVars++
			// Steady cost on every execution, the miss surcharge only on
			// first-iteration executions.
			if err := addCost(obj.coeffs, x, costs[b].WorstSteady); err != nil {
				return obj, err
			}
			if err := addCost(obj.coeffs, xf, costs[b].Worst-costs[b].WorstSteady); err != nil {
				return obj, err
			}
			// xf <= x
			obj.extra = append(obj.extra, ilp.Constraint{
				Coeffs: map[int]float64{xf: 1, x: -1},
				Rel:    ilp.LE,
				Name:   fmt.Sprintf("%s: first-iter x%d", ctx, b+1),
			})
			// xf <= sum of loop entry edges
			entry := ilp.Constraint{
				Coeffs: map[int]float64{xf: 1},
				Rel:    ilp.LE,
				Name:   fmt.Sprintf("%s: first-iter x%d <= loop entries", ctx, b+1),
			}
			for _, e := range loop.EntryEdges {
				entry.Coeffs[a.edgeVar(ctx.ID, e)] -= 1
			}
			obj.extra = append(obj.extra, entry)
		}
	}
	return obj, nil
}

func (a *Session) bestObjective() (objective, error) {
	obj := objective{coeffs: make(map[int]float64, a.numBlockVars()), nVars: a.nVars}
	for _, ctx := range a.contexts {
		costs := a.costs[ctx.Func]
		fc := a.Prog.Funcs[ctx.Func]
		for b := range fc.Blocks {
			if err := addCost(obj.coeffs, a.blockVar(ctx.ID, b), costs[b].Best); err != nil {
				return obj, err
			}
		}
	}
	return obj, nil
}

// direction bundles everything one objective sense shares across its
// per-set solves: the objective, the pre-lowered shared rows, and (when
// enabled and available) the warm-start base tableau.
type direction struct {
	sense  ilp.Sense
	obj    objective
	prefix []ilp.PackedRow
	warm   *ilp.WarmStart
	// relax is the base LP relaxation's optimum (structural + loop +
	// objective rows, no set rows). Adding rows only shrinks the feasible
	// region, so relax dominates every per-set optimum: it is the sound
	// envelope reported for sets the analysis never finished. Taken from
	// the warm base when available, otherwise solved once in solverSetup
	// when a budgeted run may need it.
	relax   float64
	relaxOK bool
	// warmRows[k] is atom k's row lowered into warm, built by the first
	// solve that needs it (nil without a ready warm base).
	warmRows []warmRow
	// keyPrefix heads this direction's session cache keys (persistent
	// sessions only).
	keyPrefix string
}

// warmRow returns atom k's row lowered into the direction's warm base,
// lowering it on first use.
func (d *direction) warmRow(atoms []atomRow, k int32) *ilp.WarmRow {
	w := &d.warmRows[k]
	w.once.Do(func() { w.row = d.warm.LowerRow(&atoms[k].row) })
	return w.row
}

// lowered appends the set's rows, each lowered into the warm base once per
// plan, to buf.
func (d *direction) lowered(atoms []atomRow, set []int32, buf []*ilp.WarmRow) []*ilp.WarmRow {
	for _, k := range set {
		buf = append(buf, d.warmRow(atoms, k))
	}
	return buf
}

// solverPlan is the memoized per-analyzer solver setup: the expanded
// constraint sets with their canonical-dedup structure and the two solve
// directions. Apply invalidates it (annotations change the sets); repeated
// Estimate calls on unchanged annotations reuse it, including the warm
// base tableaus.
type solverPlan struct {
	// atoms is the analyzer's atom table the plan was built from; sets[i]
	// lists the atoms of surviving set i.
	atoms         []atomRow
	sets          [][]int32
	total, pruned int
	// widened[i] marks set i as a sound widening of several original sets
	// (Options.WidenSets); nWidened counts them.
	widened  []bool
	nWidened int
	// repOf[i] is the index of the earliest set canonically identical to
	// set i (i itself when distinct); distinct lists the representatives
	// in set order.
	repOf    []int
	distinct []int
	deduped  int
	// keys[i] is the canonical key of set i, computed when dedup or a
	// persistent session needs it (nil otherwise). rowKeys[k] is atom k's
	// order-sensitive row encoding, from which winner-count keys are
	// assembled, and loopKey identifies the loop-bound rows this plan
	// appended to the shared structural prefix (persistent sessions only).
	keys    []string
	rowKeys []string
	loopKey string
	dirs    []direction
	// Work performed building the plan (warm base solves), charged to the
	// Estimate call that triggered the build.
	setupLP, setupPivots, setupCold    int
	setupNet, setupRev, setupRefactors int
}

// solverSetup returns the memoized solver plan, building it on first use.
// fresh reports whether this call performed the build (and so should count
// the setup work in its statistics).
func (a *Analyzer) solverSetup() (plan *solverPlan, fresh bool, err error) {
	a.planMu.Lock()
	defer a.planMu.Unlock()
	if a.plan != nil {
		return a.plan, false, nil
	}
	// A concrete solve has no value for parameter symbols; refuse with a
	// typed, positioned error instead of silently treating "n1" as zero.
	if err := checkNoSymbols(a.annots); err != nil {
		return nil, false, err
	}
	sets, widened, total, pruned, err := a.buildSets()
	if err != nil {
		return nil, false, err
	}
	plan = &solverPlan{atoms: a.atoms, sets: sets, total: total, pruned: pruned, widened: widened}
	for _, w := range widened {
		if w {
			plan.nWidened++
		}
	}
	plan.repOf = make([]int, len(sets))
	plan.distinct = make([]int, 0, len(sets))
	if a.Opts.DedupSets || a.persist {
		kt := newKeyTable(a.atoms, a.persist)
		plan.keys = make([]string, len(sets))
		var ranks []int32
		for i, set := range sets {
			plan.keys[i], ranks = kt.setKey(set, ranks)
		}
		plan.rowKeys = kt.exact
	}
	if a.Opts.DedupSets {
		byKey := make(map[string]int, len(sets))
		for i := range sets {
			if rep, hit := byKey[plan.keys[i]]; hit {
				plan.repOf[i] = rep
				plan.deduped++
			} else {
				byKey[plan.keys[i]] = i
				plan.repOf[i] = i
				plan.distinct = append(plan.distinct, i)
			}
		}
	} else {
		for i := range sets {
			plan.repOf[i] = i
			plan.distinct = append(plan.distinct, i)
		}
	}

	// The structural rows and each direction's objective extras were
	// lowered once when the session was built; only the loop-bound rows
	// depend on the annotations. The concatenation order (structural, loop
	// bounds, extras) matches what a single Pack of the full row list
	// produced before the session split, so solves see identical tableaux.
	loops := ilp.Pack(a.LoopBoundConstraints())
	if a.persist {
		plan.loopKey = packedRowsKey(loops)
	}
	for di := range a.dirBases {
		db := &a.dirBases[di]
		prefix := make([]ilp.PackedRow, 0, len(a.packedStructural)+len(loops)+len(db.packedExtra))
		prefix = append(prefix, a.packedStructural...)
		prefix = append(prefix, loops...)
		prefix = append(prefix, db.packedExtra...)
		d := direction{sense: db.sense, obj: db.obj, prefix: prefix}
		if a.persist {
			d.keyPrefix = keyPrefix(di, plan.loopKey)
		}
		if a.Opts.WarmStart {
			newBase := func() *warmBaseEntry {
				// Certify needs the un-presolved base: the exact checker
				// re-derives the warm tableau layout from the problem, which
				// presolve row-elimination would obscure. The base optimum
				// (and so every bound) is identical either way.
				w := ilp.NewWarmStartOpts(&ilp.Problem{
					Sense:     db.sense,
					NumVars:   db.obj.nVars,
					Objective: db.obj.coeffs,
					Prefix:    prefix,
				}, ilp.WarmOptions{DisablePresolve: a.Opts.Certify})
				return &warmBaseEntry{warm: w, pivots: w.BasePivots()}
			}
			var entry *warmBaseEntry
			var hit bool
			if a.persist {
				// Warm bases persist across Estimate calls keyed by the
				// loop rows; only the call that builds one is charged.
				entry, hit = a.baseCache.GetOrCompute(baseKey(di, plan.loopKey), newBase)
			} else {
				entry = newBase()
			}
			d.warm = entry.warm
			if d.warm.Ready() {
				d.warmRows = make([]warmRow, len(a.atoms))
			}
			if !hit {
				plan.setupLP++
				plan.setupCold++
				plan.setupPivots += entry.pivots
			}
		}
		effDeadline, effBudget := a.effAnytime()
		if d.warm != nil && d.warm.Ready() {
			// The warm base already holds the relaxation envelope.
			d.relax, d.relaxOK = d.warm.BaseObjective()
		} else if effDeadline > 0 || effBudget > 0 {
			// A budgeted run may need the envelope for sets it abandons;
			// solve the base LP once here. Unbudgeted runs skip this so
			// their statistics stay identical to the exhaustive path.
			sol, err := ilp.Solve(&ilp.Problem{
				Sense:     db.sense,
				NumVars:   db.obj.nVars,
				Objective: db.obj.coeffs,
				Prefix:    d.prefix,
			})
			if err == nil {
				plan.setupLP += sol.Stats.LPSolves
				plan.setupCold++
				plan.setupPivots += sol.Stats.Pivots
				plan.setupNet += sol.Stats.NetworkSolves
				plan.setupRev += sol.Stats.RevisedPivots
				plan.setupRefactors += sol.Stats.Refactorizations
				if sol.Status == ilp.Optimal {
					d.relax, d.relaxOK = sol.Objective, true
				}
			}
		}
		plan.dirs = append(plan.dirs, d)
	}
	a.plan = plan
	return plan, true, nil
}

// problem materializes the full integer program of one set in one
// direction: the shared prefix plus the set's rows in set order — the form
// the cold solver and the certificate layer take.
func (p *solverPlan) problem(d *direction, set []int32) *ilp.Problem {
	rows := make([]ilp.Constraint, len(set))
	for k, ai := range set {
		rows[k] = p.atoms[ai].row
	}
	return &ilp.Problem{
		Sense:       d.sense,
		NumVars:     d.obj.nVars,
		Integer:     true,
		Objective:   d.obj.coeffs,
		Prefix:      d.prefix,
		Constraints: rows,
	}
}

// finishKey identifies a winner's canonical count vector. When the
// winning optimum is not unique its counts come from a cold solve of the
// set's rows as written, so the key is order-sensitive: a scenario listing
// the same rows in another order re-derives its own counts, keeping
// reports bit-identical to the one-shot path.
func (p *solverPlan) finishKey(d *direction, set []int32) string {
	var sb strings.Builder
	sb.WriteString(d.keyPrefix)
	for _, ai := range set {
		sb.WriteString(p.rowKeys[ai])
	}
	return sb.String()
}

// solveResult carries one (direction, set) ILP outcome to the reducer.
type solveResult struct {
	err    error
	status ilp.Status
	cycles int64
	values []float64
	stats  ilp.Stats
	// warm marks a result concluded on the warm dual-simplex path (it
	// carries no values); cold marks that a full two-phase solve ran; dup
	// marks a result copied from the set's canonical representative. The
	// winner's counts are derived by finishDir whenever warm or dup is set,
	// keeping the reported BoundReport bit-identical to the exhaustive
	// path.
	warm bool
	cold bool
	dup  bool
	// cacheHit marks a result answered by a persistent session's per-set
	// outcome cache. It always rides with dup: cached outcomes carry no
	// value vector, so a cache-hit winner re-derives counts exactly like a
	// duplicate's.
	cacheHit bool
	// done marks that the job actually ran (a worker wrote this result);
	// a zero-value slot left by an early pool shutdown must not read as an
	// optimal zero-cycle solve.
	done bool
	// unsolved marks a job abandoned to the deadline/pivot budget (or a
	// crash): its set contributes the direction's relaxation envelope.
	unsolved bool
	// crashed carries a recovered per-set solver panic; the set degrades
	// to the envelope instead of being dropped, and crashMsg surfaces in
	// the error when no envelope is available.
	crashed  bool
	crashMsg string
	// certified marks a claim backed by an exact rational check (verified
	// certificate or exact re-solve); certFailures and resolves count the
	// certificate layer's work on this claim. All zero without
	// Options.Certify.
	certified    bool
	certFailures int
	resolves     ResolveCauses
}

// testCrashJob, when set to j+1, makes solve job j panic — the test hook
// for the worker panic-recovery path. Zero disables it.
var testCrashJob atomic.Int32

// solveSet solves one functionality constraint set in one direction. The
// shared base rows (structural + loop bounds + objective extras) arrive
// pre-lowered in d.prefix, so each job only contributes its set-specific
// tail. With useCutoff, cutoff is the direction's incumbent bound in
// cycles: the solve may conclude Dominated as soon as the set is provably
// unable to match it (strictly — ties are never abandoned, preserving the
// first-set-wins reduce order).
func (a *Analyzer) solveSet(ctx context.Context, plan *solverPlan, d *direction, set []int32, cutoff int64, useCutoff bool) solveResult {
	// A cancelled estimate must not burn a simplex run per queued set.
	if err := ctx.Err(); err != nil {
		return solveResult{err: err}
	}
	var r solveResult
	certOn := a.Opts.Certify
	// Integer cycle counts make the half-open margin exact: a set is
	// abandoned only when its optimum provably differs from the incumbent
	// by at least one cycle in the losing direction.
	cut := float64(cutoff)
	if d.sense == ilp.Maximize {
		cut -= 0.5
	} else {
		cut += 0.5
	}

	// The full problem, shared by the cold path and the certificate layer
	// (the warm path never materializes it on its own).
	var p *ilp.Problem
	problem := func() *ilp.Problem {
		if p == nil {
			p = plan.problem(d, set)
		}
		return p
	}

	if d.warm != nil && d.warm.Ready() {
		// NoX: only the winner's counts are reported, and finishDir derives
		// them in a finishing solve of its own, so no per-set solve needs
		// the assignment materialized — integrality arrives precomputed in
		// ws.XIntegral.
		var buf [16]*ilp.WarmRow
		ws := d.warm.SolveRows(d.lowered(plan.atoms, set, buf[:0]), ilp.SetSolveOptions{
			Cutoff: cut, UseCutoff: useCutoff, WantCert: certOn, NoX: true})
		r.stats.Pivots += ws.Pivots
		r.stats.SuspectPivots += ws.Suspect
		if ws.OK {
			r.stats.LPSolves++
			switch ws.Status {
			case ilp.Infeasible, ilp.Dominated:
				r.warm = true
				r.status = ws.Status
				if certOn {
					if err := a.certifyOutcome(ctx, &r, problem(), nil); err != nil {
						return solveResult{err: err}
					}
				}
				return r
			case ilp.Optimal:
				if ws.XIntegral {
					r.warm = true
					r.status = ws.Status
					r.stats.RootIntegral = true
					r.cycles = int64(math.Round(ws.Objective))
					if certOn {
						if err := a.certifyOutcome(ctx, &r, problem(), ws.Cert); err != nil {
							return solveResult{err: err}
						}
					}
					return r
				}
				// Fractional warm root: branch and bound needs the cold
				// path. Rare in this domain (network-matrix structure).
			}
		}
	}

	sol, err := ilp.SolveCtxOpts(ctx, problem(), ilp.SolveOptions{Cutoff: cut, UseCutoff: useCutoff, WantCert: certOn})
	if err != nil {
		return solveResult{err: err}
	}
	r.cold = true
	r.status = sol.Status
	r.cycles = int64(math.Round(sol.Objective))
	r.values = sol.Values
	r.stats.LPSolves += sol.Stats.LPSolves
	r.stats.Branches += sol.Stats.Branches
	r.stats.Pivots += sol.Stats.Pivots
	r.stats.SuspectPivots += sol.Stats.SuspectPivots
	r.stats.NetworkSolves += sol.Stats.NetworkSolves
	r.stats.RevisedPivots += sol.Stats.RevisedPivots
	r.stats.Refactorizations += sol.Stats.Refactorizations
	r.stats.RootIntegral = sol.Stats.RootIntegral
	if certOn {
		if err := a.certifyOutcome(ctx, &r, problem(), sol.Cert); err != nil {
			return solveResult{err: err}
		}
	}
	return r
}

// certifyOutcome backs one per-set claim with an exact rational check, per
// Options.Certify. An Optimal claim from a clean solve (no suspect pivots)
// carrying a certificate is verified exactly: if the certificate proves the
// claimed cycle count, the claim stands as-is. Everything else — a rejected
// certificate, a certified value contradicting the claim, a missing
// certificate (branch-and-bound answers, infeasibility and domination
// claims), or any suspect solve — is re-solved from scratch by the exact
// rational simplex, and the float claim is replaced wholesale by the exact
// outcome. Either way the resulting claim is exactly right.
func (a *Analyzer) certifyOutcome(ctx context.Context, r *solveResult, p *ilp.Problem, cert *ilp.Certificate) error {
	suspect := r.stats.SuspectPivots > 0
	if r.status == ilp.Optimal && cert != nil && !suspect {
		if res, err := certify.Verify(p, cert); err == nil {
			if ex, ok := ratInt64(res.Objective); ok && ex == r.cycles {
				r.certified = true
				return nil
			}
			// The basis proves a different optimum than the solver claimed:
			// the claim itself is wrong even though a valid certificate
			// exists. Treat it as a certification failure.
		}
		r.certFailures++
	}
	exr, err := certify.SolveExact(ctx, p)
	if err != nil {
		return err
	}
	var ex int64
	if exr.Status == ilp.Optimal {
		var ok bool
		if ex, ok = ratInt64(exr.Objective); !ok {
			return fmt.Errorf("ipet: exact optimum %s is not an integer cycle count", exr.Objective.RatString())
		}
	}
	// A claim the exact outcome overturns was wrong, not merely without a
	// certificate. Domination claims are judged against a cutoff the exact
	// solve does not see, so they are never overturned here.
	overturned := r.status != ilp.Dominated &&
		(exr.Status != r.status || exr.Status == ilp.Optimal && ex != r.cycles)
	r.resolves.note(r.status, suspect, r.certFailures > 0 || overturned)
	r.stats.LPSolves += exr.LPSolves
	r.status = exr.Status
	r.certified = true
	if exr.Status == ilp.Optimal {
		r.cycles = ex
		r.values = ratFloats(exr.X)
		r.stats.RootIntegral = exr.RootIntegral
	}
	return nil
}

// ratInt64 converts an exact rational to an int64; ok is false when v is
// not an integer or does not fit.
func ratInt64(v *big.Rat) (int64, bool) {
	if !v.IsInt() || !v.Num().IsInt64() {
		return 0, false
	}
	return v.Num().Int64(), true
}

// ratFloats converts exact values to float64; in this domain they are
// integral and far below 2^53, so the conversion is exact.
func ratFloats(x []*big.Rat) []float64 {
	out := make([]float64, len(x))
	for i, v := range x {
		out[i], _ = v.Float64()
	}
	return out
}

// reduceDir folds one direction's per-set results in set order — the same
// tie-break as the sequential loop (a later set wins only when strictly
// better), so the outcome is independent of job completion order. Dominated
// results are skipped: they are provably strictly worse than the incumbent
// that pruned them, so they can neither win nor tie.
//
// Unsolved results (deadline, budget, crash) degrade the direction to its
// relaxation envelope: the base LP optimum dominates every per-set
// optimum, so reporting it for the unsolved sets — and therefore for the
// whole direction, since it also dominates every solved incumbent — is
// sound and independent of which jobs happened to finish. A degraded or
// widened-winner report carries Exact=false; Slack is measured against
// the best exactly solved, un-widened set when one exists.
func (a *Analyzer) reduceDir(est *Estimate, d *direction, plan *solverPlan, results []solveResult) (*BoundReport, *solveResult, error) {
	sense := d.sense
	var best *BoundReport
	var bestRes *solveResult
	feasible, degraded := false, false
	crashMsg := ""
	unsolved := 0
	haveExact := false
	var exactInc int64
	for si := range results {
		r := &results[si]
		if r.unsolved {
			degraded = true
			unsolved++
			if r.crashed && crashMsg == "" {
				crashMsg = r.crashMsg
			}
			continue
		}
		switch r.status {
		case ilp.Unbounded:
			msg := "ipet: ILP unbounded — a loop lacks a bound"
			if missing := a.MissingLoopBounds(); len(missing) > 0 {
				msg += ": " + strings.Join(missing, "; ")
			}
			return nil, nil, fmt.Errorf("%s", msg)
		case ilp.Infeasible:
			continue
		case ilp.Dominated:
			// An incumbent exists only once some set solved to optimality,
			// so skipping dominated sets never hides the last feasible one.
			continue
		}
		feasible = true
		if !r.stats.RootIntegral {
			est.AllRootIntegral = false
		}
		if best == nil ||
			(sense == ilp.Maximize && r.cycles > best.Cycles) ||
			(sense == ilp.Minimize && r.cycles < best.Cycles) {
			best = &BoundReport{Cycles: r.cycles, SetIndex: si}
			bestRes = r
		}
		if !plan.widened[si] && r.status == ilp.Optimal {
			if !haveExact ||
				(sense == ilp.Maximize && r.cycles > exactInc) ||
				(sense == ilp.Minimize && r.cycles < exactInc) {
				exactInc, haveExact = r.cycles, true
			}
		}
	}
	if degraded {
		if !d.relaxOK {
			if crashMsg != "" {
				return nil, nil, fmt.Errorf("ipet: a constraint-set solve crashed (%s) and no relaxation envelope is available to absorb it", crashMsg)
			}
			return nil, nil, fmt.Errorf("ipet: budget expired with %d sets unsolved and no relaxation envelope available", unsolved)
		}
		// The tightest sound integer envelope: the per-set integer optima
		// lie at or inside the base LP optimum. The rounding margin grows
		// with the optimum's magnitude, as its float64 error does.
		var cycles int64
		if tol := ilp.ObjTol(d.relax); sense == ilp.Maximize {
			cycles = int64(math.Floor(d.relax + tol))
		} else {
			cycles = int64(math.Ceil(d.relax - tol))
		}
		if best != nil &&
			((sense == ilp.Maximize && best.Cycles > cycles) ||
				(sense == ilp.Minimize && best.Cycles < cycles)) {
			// Numerically the envelope dominates every incumbent; keep the
			// guard so a rounding edge can never shrink the bound.
			cycles = best.Cycles
		}
		rep := &BoundReport{Cycles: cycles, SetIndex: -1, Slack: -1}
		if haveExact {
			if sense == ilp.Maximize {
				rep.Slack = cycles - exactInc
			} else {
				rep.Slack = exactInc - cycles
			}
		}
		return rep, nil, nil
	}
	if !feasible {
		return nil, nil, &InfeasibleError{Sets: plan.total}
	}
	best.Exact = !plan.widened[best.SetIndex]
	switch {
	case best.Exact:
		best.Slack = 0
	case haveExact:
		// A widened winner dominates the sets it replaced; the true
		// extreme lies between the best exact witness and the widened
		// bound.
		if sense == ilp.Maximize {
			best.Slack = best.Cycles - exactInc
		} else {
			best.Slack = exactInc - best.Cycles
		}
	default:
		best.Slack = -1
	}
	return best, bestRes, nil
}

// finishDir fills the winning BoundReport's counts. A winner solved cold
// carries the counts the exhaustive path reports. A winner answered by the
// warm path, copied from a canonical duplicate, or served from a session's
// outcome cache carries none that can stand as they are (the warm fan-out
// skips the assignment, a duplicate's values follow another row order, a
// cached outcome has none), so the winning set's warm solve is re-run with
// its assignment and a uniqueness test: a unique optimum is the one count
// vector every solver returns. Only a winner whose optimum is not unique,
// or cannot be verified, pays a plain cold re-solve, which re-derives the
// exhaustive path's counts. Prepared sessions retain every winner's count
// vector, keyed order-sensitively by the winning set's own rows, so a
// repeat scenario skips the finish and still reports identical counts.
func (a *Analyzer) finishDir(ctx context.Context, est *Estimate, di int, plan *solverPlan, best *BoundReport, win *solveResult) error {
	d := &plan.dirs[di]
	set := plan.sets[best.SetIndex]
	var key string
	if a.persist {
		key = plan.finishKey(d, set)
	}
	vals := win.values
	if win.warm || win.dup {
		if a.persist {
			if cached, ok := a.finishCache.Get(key); ok {
				best.Counts = a.aggregateCounts(cached)
				return nil
			}
		}
		var ok bool
		if vals, ok = a.warmFinish(est, plan, d, set, best.Cycles); !ok {
			var err error
			if vals, err = a.coldFinish(ctx, est, plan.problem(d, set), best); err != nil {
				return err
			}
		}
	}
	if a.persist {
		a.finishCache.Put(key, vals)
	}
	best.Counts = a.aggregateCounts(vals)
	return nil
}

// warmFinish re-runs the winning set's warm solve with the assignment
// materialized, which also tests it for uniqueness, and returns it when
// it stands as the winner's counts: the solve is optimal at the winning
// bound, integral, and its optimum is unique, so no solver could return
// other counts. Under Certify the solve must also carry a clean certificate
// that proves the bound exactly, at the point the float solve reports. ok
// is false when the cold re-solve has to decide instead; the solve's work
// is counted either way.
func (a *Analyzer) warmFinish(est *Estimate, plan *solverPlan, d *direction, set []int32, cycles int64) (vals []float64, ok bool) {
	if d.warm == nil || !d.warm.Ready() {
		return nil, false
	}
	var buf [16]*ilp.WarmRow
	ws := d.warm.SolveRows(d.lowered(plan.atoms, set, buf[:0]),
		ilp.SetSolveOptions{WantCert: a.Opts.Certify})
	est.Stats.Pivots += ws.Pivots
	est.Stats.SuspectPivots += ws.Suspect
	if !ws.OK {
		return nil, false
	}
	est.LPSolves++
	est.Stats.WarmSolves++
	if ws.Status != ilp.Optimal || !ws.Unique || !ws.XIntegral || int64(math.Round(ws.Objective)) != cycles {
		return nil, false
	}
	if !a.Opts.Certify {
		return ws.X, true
	}
	if ws.Suspect > 0 || ws.Cert == nil {
		return nil, false
	}
	if res, err := certify.Verify(plan.problem(d, set), ws.Cert); err == nil {
		if ex, exOK := ratInt64(res.Objective); exOK && ex == cycles && sameCounts(res.X, ws.X) {
			return ws.X, true
		}
	}
	est.Stats.CertFailures++
	return nil, false
}

// sameCounts reports whether a float assignment rounds to the exact one
// coordinate by coordinate: the float point is the exact point of its
// basis, not one a corrupted tableau produced.
func sameCounts(exact []*big.Rat, x []float64) bool {
	if len(exact) != len(x) {
		return false
	}
	for j, v := range exact {
		if n, ok := ratInt64(v); !ok || float64(n) != math.Round(x[j]) {
			return false
		}
	}
	return true
}

// coldFinish re-solves the winning set cold from scratch and returns the
// canonical counts the exhaustive path reports.
func (a *Analyzer) coldFinish(ctx context.Context, est *Estimate, p *ilp.Problem, best *BoundReport) ([]float64, error) {
	sol, err := ilp.SolveCtxOpts(ctx, p, ilp.SolveOptions{WantCert: a.Opts.Certify})
	if err != nil {
		return nil, err
	}
	est.LPSolves += sol.Stats.LPSolves
	est.Branches += sol.Stats.Branches
	est.Stats.Pivots += sol.Stats.Pivots
	est.Stats.SuspectPivots += sol.Stats.SuspectPivots
	est.Stats.NetworkSolves += sol.Stats.NetworkSolves
	est.Stats.RevisedPivots += sol.Stats.RevisedPivots
	est.Stats.Refactorizations += sol.Stats.Refactorizations
	est.Stats.ColdSolves++
	vals := sol.Values
	ok := sol.Status == ilp.Optimal && int64(math.Round(sol.Objective)) == best.Cycles
	if a.Opts.Certify {
		// The canonical count re-solve is a fresh float64 claim and is backed
		// like any other: a clean, verified certificate proving the winner's
		// cycle count lets the float counts stand; anything else — including
		// a re-solve that contradicts the (already certified) winning bound —
		// falls back to the exact solver, whose optimum must agree.
		certOK := false
		suspect := sol.Stats.SuspectPivots > 0
		if ok && sol.Cert != nil && !suspect {
			if res, verr := certify.Verify(p, sol.Cert); verr == nil {
				if ex, exOK := ratInt64(res.Objective); exOK && ex == best.Cycles {
					certOK = true
				}
			}
			if !certOK {
				est.Stats.CertFailures++
			}
		}
		if !certOK {
			est.Stats.ExactResolves++
			// Rejected: a claim other than the certified bound (with a
			// certificate or not), or a right claim whose certificate failed.
			est.Stats.Resolves.note(sol.Status, suspect, !ok || sol.Cert != nil)
			exr, err := certify.SolveExact(ctx, p)
			if err != nil {
				return nil, err
			}
			est.LPSolves += exr.LPSolves
			var ex int64
			exOK := false
			if exr.Status == ilp.Optimal {
				ex, exOK = ratInt64(exr.Objective)
			}
			if !exOK || ex != best.Cycles {
				return nil, fmt.Errorf("ipet: internal error: exact canonical re-solve of set %d returned %v, want %d cycles",
					best.SetIndex+1, exr.Status, best.Cycles)
			}
			vals = ratFloats(exr.X)
			ok = true
		}
	}
	if !ok {
		return nil, fmt.Errorf("ipet: internal error: canonical re-solve of set %d returned %v %g, want %d cycles",
			best.SetIndex+1, sol.Status, sol.Objective, best.Cycles)
	}
	return vals, nil
}

// incumbent tracking: one atomic best bound per direction, initialized to
// a sentinel meaning "none yet".
func incumbentInit(sense ilp.Sense) int64 {
	if sense == ilp.Maximize {
		return math.MinInt64
	}
	return math.MaxInt64
}

func incumbentLoad(inc *atomic.Int64, sense ilp.Sense) (int64, bool) {
	v := inc.Load()
	return v, v != incumbentInit(sense)
}

func incumbentOffer(inc *atomic.Int64, sense ilp.Sense, cycles int64) {
	for {
		cur := inc.Load()
		if (sense == ilp.Maximize && cycles <= cur) ||
			(sense == ilp.Minimize && cycles >= cur) {
			return
		}
		if inc.CompareAndSwap(cur, cycles) {
			return
		}
	}
}

// Estimate runs the full analysis: expand functionality constraint sets,
// solve one ILP per set and direction, and take the extremes.
func (a *Analyzer) Estimate() (*Estimate, error) {
	return a.EstimateContext(context.Background())
}

// EstimateContext is Estimate with cancellation. Distinct sets × {max,min}
// ILP jobs are dispatched to a bounded worker pool of Opts.Workers
// goroutines (0 selects GOMAXPROCS, 1 runs the plain sequential loop);
// results are reduced in deterministic set order regardless of completion
// order, so every worker count produces the identical bound report. The
// first error cancels all in-flight jobs.
func (a *Analyzer) EstimateContext(ctx context.Context) (*Estimate, error) {
	tBuild := time.Now()
	plan, fresh, err := a.solverSetup()
	if err != nil {
		return nil, err
	}
	est := &Estimate{
		NumSets:         plan.total,
		PrunedSets:      plan.pruned,
		SolvedSets:      len(plan.sets),
		AllRootIntegral: true,
	}
	est.Stats.SetsTotal = plan.total
	est.Stats.PrunedNull = plan.pruned
	est.Stats.Deduped = plan.deduped
	est.Stats.SetsWidened = plan.nWidened
	if fresh {
		est.LPSolves += plan.setupLP
		est.Stats.ColdSolves += plan.setupCold
		est.Stats.Pivots += plan.setupPivots
		est.Stats.NetworkSolves += plan.setupNet
		est.Stats.RevisedPivots += plan.setupRev
		est.Stats.Refactorizations += plan.setupRefactors
	}
	if len(plan.sets) == 0 {
		return nil, &InfeasibleError{Sets: plan.total, AllNull: true}
	}
	est.Stats.BuildTime = time.Since(tBuild)

	tSolve := time.Now()
	dirs := plan.dirs
	nd := len(plan.distinct)
	numJobs := len(dirs) * nd
	results := make([]solveResult, numJobs)
	incumbents := make([]atomic.Int64, len(dirs))
	for d := range dirs {
		incumbents[d].Store(incumbentInit(dirs[d].sense))
	}
	// Anytime budgets. The pivot budget is a shared monotone counter
	// seeded with the plan's setup pivots, checked before each job
	// launches; the wall-clock deadline additionally cancels in-flight
	// solves through an internal derived context, which keeps the caller's
	// own ctx distinguishable: caller cancellation is an error, analyzer
	// deadline expiry degrades to the envelope.
	effDeadline, effBudget := a.effAnytime()
	budget := int64(effBudget)
	var spent atomic.Int64
	spent.Store(int64(plan.setupPivots))
	var hitDeadline atomic.Bool
	var deadlineAt time.Time
	jobCtx := ctx
	if effDeadline > 0 {
		deadlineAt = tBuild.Add(effDeadline)
		var cancelDeadline context.CancelFunc
		jobCtx, cancelDeadline = context.WithDeadline(ctx, deadlineAt)
		defer cancelDeadline()
	}
	expired := func() bool {
		if budget > 0 && spent.Load() >= budget {
			return true
		}
		if !deadlineAt.IsZero() && !time.Now().Before(deadlineAt) {
			hitDeadline.Store(true)
			return true
		}
		return false
	}

	runJob := func(jctx context.Context, j int) (r solveResult) {
		// A panicking set solve must degrade the set, not kill the
		// estimate: the recovered set joins the relaxation envelope like a
		// budget-expired one, and the panic text is preserved for the case
		// where no envelope exists to absorb it.
		defer func() {
			if p := recover(); p != nil {
				r = solveResult{done: true, unsolved: true, crashed: true,
					crashMsg: fmt.Sprint(p)}
			}
		}()
		if expired() {
			return solveResult{done: true, unsolved: true}
		}
		if tc := testCrashJob.Load(); tc != 0 && int(tc-1) == j {
			panic(fmt.Sprintf("ipet: test-injected crash in job %d", j))
		}
		d, k := j/nd, j%nd
		dir := &dirs[d]
		si := plan.distinct[k]
		var key string
		if a.persist {
			// A prior Estimate on this session may have solved this exact
			// (direction, loop rows, set region) already; its outcome is
			// cutoff-independent and transfers without any simplex work.
			// A certifying run only accepts hits that were certified when
			// produced; an uncertified cached claim falls through to a fresh
			// (certified) solve.
			key = dir.keyPrefix + plan.keys[si]
			if v, ok := a.solveCache.Get(key); ok && (!a.Opts.Certify || v.certified) {
				r = solveResult{done: true, dup: true, cacheHit: true, status: v.status, cycles: v.cycles, certified: v.certified}
				r.stats.RootIntegral = v.rootIntegral
				if v.status == ilp.Optimal {
					incumbentOffer(&incumbents[d], dir.sense, v.cycles)
				}
				return r
			}
		}
		var cutoff int64
		useCutoff := false
		// Certify disables incumbent pruning: a Dominated claim carries no
		// certificate and cannot be checked, and exact-resolving every pruned
		// set would cost more than the pruning saves. Bounds are unaffected.
		if a.Opts.IncumbentPrune && !a.Opts.Certify {
			cutoff, useCutoff = incumbentLoad(&incumbents[d], dir.sense)
		}
		r = a.solveSet(jctx, plan, dir, plan.sets[si], cutoff, useCutoff)
		r.done = true
		spent.Add(int64(r.stats.Pivots))
		if r.err == nil && r.status == ilp.Optimal {
			incumbentOffer(&incumbents[d], dir.sense, r.cycles)
		}
		// Only conclusive, cutoff-independent outcomes persist: an optimal
		// cycle count or proven infeasibility. Dominated depends on the
		// incumbent of this run; abandoned jobs prove nothing.
		// A suspect uncertified outcome is additionally barred from the cache:
		// its ill-conditioning signal would be invisible to a later certifying
		// run that trusted the cached value.
		if a.persist && r.err == nil && !r.unsolved &&
			(r.status == ilp.Optimal || r.status == ilp.Infeasible) &&
			(r.stats.SuspectPivots == 0 || r.certified) {
			a.solveCache.Put(key, cachedSolve{
				status:       r.status,
				cycles:       r.cycles,
				rootIntegral: r.stats.RootIntegral,
				certified:    r.certified,
			})
		}
		return r
	}

	workers := a.Opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > numJobs {
		workers = numJobs
	}
	if workers <= 1 {
		// Sequential path: identical to the pre-pool analyzer, stopping at
		// the first error.
		for j := 0; j < numJobs; j++ {
			results[j] = runJob(jobCtx, j)
			if results[j].err != nil {
				break
			}
		}
	} else {
		jctx, cancel := context.WithCancel(jobCtx)
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					j := int(next.Add(1) - 1)
					if j >= numJobs || jctx.Err() != nil {
						return
					}
					r := runJob(jctx, j)
					results[j] = r
					if r.err != nil {
						cancel()
						return
					}
				}
			}()
		}
		wg.Wait()
		cancel()
	}

	// Propagate the first real failure in job order. Jobs the analyzer's
	// own deadline interrupted — directly (DeadlineExceeded) or through
	// the pool shutdown it triggered (Canceled) — degrade to unsolved;
	// jobs abandoned by a sibling's real-error cancellation still report
	// context.Canceled and are skipped so the real error surfaces. The
	// caller's own context expiring or being cancelled stays an error,
	// checked last so it wins over any degraded reading.
	for j := range results {
		r := &results[j]
		if !r.done {
			// Never dispatched: the pool shut down (deadline, or a sibling
			// error that is reported below) before this job started.
			r.unsolved = true
			continue
		}
		err := r.err
		if err == nil {
			continue
		}
		if effDeadline > 0 && ctx.Err() == nil &&
			(errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled)) {
			r.err = nil
			r.unsolved = true
			hitDeadline.Store(true)
			continue
		}
		if errors.Is(err, context.Canceled) {
			continue
		}
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// A deadline that expired before the pool dispatched anything leaves
	// no per-job trace; the derived context still records it.
	if effDeadline > 0 && errors.Is(jobCtx.Err(), context.DeadlineExceeded) {
		hitDeadline.Store(true)
	}
	est.Stats.DeadlineHit = hitDeadline.Load()

	// Work statistics accumulate once per distinct job, in job order, so
	// duplicate fan-out below cannot double-count a representative.
	for j := range results {
		r := &results[j]
		if r.unsolved {
			est.Stats.SetsUnsolved++
			if r.crashed {
				est.Stats.SetsWidened++
			}
			continue
		}
		if r.cacheHit {
			est.Stats.CacheHits++
			continue
		}
		est.LPSolves += r.stats.LPSolves
		est.Branches += r.stats.Branches
		est.Stats.Pivots += r.stats.Pivots
		est.Stats.SuspectPivots += r.stats.SuspectPivots
		est.Stats.NetworkSolves += r.stats.NetworkSolves
		est.Stats.RevisedPivots += r.stats.RevisedPivots
		est.Stats.Refactorizations += r.stats.Refactorizations
		est.Stats.CertFailures += r.certFailures
		est.Stats.ExactResolves += r.resolves.total()
		est.Stats.Resolves.add(r.resolves)
		if r.warm {
			est.Stats.WarmSolves++
		}
		if r.cold {
			est.Stats.ColdSolves++
		}
		switch r.status {
		case ilp.Dominated:
			est.Stats.IncumbentSkipped++
		case ilp.Optimal, ilp.Infeasible:
			est.Stats.Solved++
		}
	}

	// Fan distinct results back out to the full per-set arrays the reduce
	// walks, marking copies so a duplicate winner gets canonical counts.
	nSets := len(plan.sets)
	full := make([]solveResult, len(dirs)*nSets)
	for d := range dirs {
		for k, si := range plan.distinct {
			full[d*nSets+si] = results[d*nd+k]
		}
		for i := 0; i < nSets; i++ {
			if rep := plan.repOf[i]; rep != i {
				cp := full[d*nSets+rep]
				cp.dup = true
				full[d*nSets+i] = cp
			}
		}
	}

	worst, worstRes, err := a.reduceDir(est, &dirs[0], plan, full[:nSets])
	if err != nil {
		return nil, err
	}
	bcet, bcetRes, err := a.reduceDir(est, &dirs[1], plan, full[nSets:])
	if err != nil {
		return nil, err
	}
	if a.Opts.Certify {
		// A direction's bound is Certified when every distinct claim it
		// reduced over was backed by the exact layer; envelope reports
		// (SetIndex < 0) reduce over unsolved sets and never qualify.
		for d, rep := range []*BoundReport{worst, bcet} {
			allCert := rep.SetIndex >= 0
			rechecked := 0
			for k := 0; k < nd; k++ {
				r := &results[d*nd+k]
				if r.resolves.total() > 0 {
					rechecked++
				}
				if !r.done || r.unsolved || !r.certified {
					allCert = false
				}
			}
			rep.Certified = allCert
			rep.RecheckedSets = rechecked
		}
	}
	if worstRes != nil {
		if err := a.finishDir(ctx, est, 0, plan, worst, worstRes); err != nil {
			return nil, err
		}
	}
	if bcetRes != nil {
		if err := a.finishDir(ctx, est, 1, plan, bcet, bcetRes); err != nil {
			return nil, err
		}
	}
	est.Stats.SolveTime = time.Since(tSolve)
	est.WCET = *worst
	est.BCET = *bcet
	if est.BCET.Cycles > est.WCET.Cycles {
		return nil, fmt.Errorf("ipet: internal error: BCET %d exceeds WCET %d", est.BCET.Cycles, est.WCET.Cycles)
	}
	a.noteEstimate(est)
	return est, nil
}

// aggregateCounts sums per-context block counts into per-function counts.
func (a *Session) aggregateCounts(values []float64) map[string][]int64 {
	out := map[string][]int64{}
	for _, ctx := range a.contexts {
		fc := a.Prog.Funcs[ctx.Func]
		counts, ok := out[ctx.Func]
		if !ok {
			counts = make([]int64, len(fc.Blocks))
			out[ctx.Func] = counts
		}
		for b := range fc.Blocks {
			counts[b] += int64(math.Round(values[a.blockVar(ctx.ID, b)]))
		}
	}
	return out
}

// BlockCosts exposes the cost bracket used for a function's blocks. The
// session holds tables only for functions reachable from the root (the only
// ones the objectives charge); tables for other functions are computed on
// demand.
func (a *Session) BlockCosts(fn string) []march.BlockCost {
	if c, ok := a.costs[fn]; ok {
		return c
	}
	if fc, ok := a.Prog.Funcs[fn]; ok {
		return march.CostsOf(fc, a.Opts.March)
	}
	return nil
}

// StructuralNetworkMatrix reports whether the intraprocedural structural
// constraints (the flow equations of Section III.B, per function instance)
// form a recognizable network (totally unimodular) matrix — the Section
// III.D explanation for why "the branch-and-bound ILP solver finds that the
// solution of the very first linear program call ... is integer valued".
//
// The interprocedural splice rows (d_entry(callee) = f_site, eq. 12) give
// call-edge columns a third entry and fall outside the two-nonzero
// sufficient test; integrality across the splice is the paper's empirical
// observation, which Stats.RootIntegral tracks on every solve.
func (a *Session) StructuralNetworkMatrix() bool {
	var rows []ilp.Constraint
	for _, ctx := range a.contexts {
		fc := a.Prog.Funcs[ctx.Func]
		for _, b := range fc.Blocks {
			inC := ilp.Constraint{Coeffs: map[int]float64{a.blockVar(ctx.ID, b.Index): 1}, Rel: ilp.EQ}
			for _, e := range b.In {
				inC.Coeffs[a.edgeVar(ctx.ID, e)] -= 1
			}
			outC := ilp.Constraint{Coeffs: map[int]float64{a.blockVar(ctx.ID, b.Index): 1}, Rel: ilp.EQ}
			for _, e := range b.Out {
				outC.Coeffs[a.edgeVar(ctx.ID, e)] -= 1
			}
			rows = append(rows, inC, outC)
		}
	}
	rootFC := a.Prog.Funcs[a.Root]
	rows = append(rows, ilp.Constraint{
		Coeffs: map[int]float64{a.edgeVar(0, rootFC.EntryEdge): 1}, Rel: ilp.EQ, RHS: 1,
	})
	p := &ilp.Problem{NumVars: a.nVars, Constraints: rows}
	return ilp.IsNetworkMatrix(p)
}
