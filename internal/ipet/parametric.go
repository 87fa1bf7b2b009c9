package ipet

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync/atomic"

	"cinderella/internal/cfg"
	"cinderella/internal/constraint"
	"cinderella/internal/ilp"
	"cinderella/internal/ilp/certify"
)

// This file implements the parametric layer over the session machinery:
// annotations may leave loop bounds and formula constants symbolic ("loop 1:
// 1 .. n1", "x3 <= 5 n1"), and Session.Parametrize enumerates the optimal
// bases of the resulting RHS-parametric ILPs into a piecewise-linear closed
// form WCET(n1, …)/BCET(n1, …). Each enumeration seed is one float64 LP
// solve at a parameter point (ilp.SolveSeed); the exact layer derives the
// piece from the basis it ended on (certify.DerivePiece), checking that
// basis in rational arithmetic whatever Options.Certify says. Evaluating the
// form at a concrete parameter point is a handful of integer multiply-adds —
// nanoseconds, no allocation — where a session-warm Estimate still pays a
// simplex solve per constraint set. A seed whose basis proves no piece
// leaves a hole, and any query the pieces do not cover falls back to a
// concrete warm-started solve — the formula can be incomplete, never wrong.

// ParamSpec declares one parameter symbol and its integer domain. The
// domain bounds both the region enumeration (seeds are drawn from the box)
// and the validity checks (a symbol used as a loop bound must keep the
// bound well-formed everywhere in its domain).
type ParamSpec struct {
	Name   string
	Lo, Hi int64
}

// paramDomainCap bounds |Lo| and |Hi| of a parameter domain so that every
// affine evaluation (coefficients are capped the same way) stays far from
// int64 overflow.
const paramDomainCap = int64(1) << 31

// ParamStats is a snapshot of a ParamBound's query counters plus the
// one-time enumeration work that built it.
type ParamStats struct {
	// FormulaEvals counts queries answered by the formula alone;
	// ParamFallbacks counts queries outside every enumerated region that
	// were answered by a concrete warm-started solve instead.
	FormulaEvals   int64
	ParamFallbacks int64
	// ParamRegions is the total number of pieces across both directions.
	ParamRegions int
	// EnumSolves / EnumPivots measure the one-time parametric enumeration.
	EnumSolves int
	EnumPivots int
	// RejectedPieces counts enumeration solves whose basis the exact
	// derivation refused (certify.DerivePiece); their parameter points
	// answer through the fallback.
	RejectedPieces int
}

// paramDir holds one direction's pieces in a flat, allocation-free layout:
// setStart[si] .. setStart[si+1] index the pieces of constraint set si.
type paramDir struct {
	pieces   []ilp.ParamPiece
	setOf    []int
	setStart []int
}

// ParamBound is a piecewise-linear bound formula produced by
// Session.Parametrize. It is immutable after construction apart from its
// atomic query counters; concurrent Eval/Bound calls are safe.
type ParamBound struct {
	session *Session
	file    *constraint.File
	specs   []ParamSpec
	nsets   int
	// dirs[0] answers WCET (Maximize), dirs[1] BCET (Minimize).
	dirs [2]paramDir
	// certified marks that Options.Certify was on, so formula answers are
	// reported Certified like the session's concrete ones. Every piece's
	// basis is checked exactly either way.
	certified bool

	evals     atomic.Int64
	fallbacks atomic.Int64
	enumStats ParamStats
}

// Specs returns the parameter declarations, in evaluation order: Eval's
// params[k] is the value of Specs()[k].
func (pb *ParamBound) Specs() []ParamSpec { return pb.specs }

// Certified reports that the formula was built under Options.Certify. The
// pieces are the same without it: each is derived exactly from its basis.
func (pb *ParamBound) Certified() bool { return pb.certified }

// Pieces returns the total piece count across both directions.
func (pb *ParamBound) Pieces() int { return len(pb.dirs[0].pieces) + len(pb.dirs[1].pieces) }

// Stats snapshots the query counters.
func (pb *ParamBound) Stats() ParamStats {
	st := pb.enumStats
	st.FormulaEvals = pb.evals.Load()
	st.ParamFallbacks = pb.fallbacks.Load()
	st.ParamRegions = pb.Pieces()
	return st
}

// inBox reports whether params lies inside the declared domain box. Outside
// it the piece regions may still cover the point, but the validity
// pre-checks (nonnegative loop bounds, lo <= hi) only hold over the box, so
// out-of-box queries always take the concrete path.
func (pb *ParamBound) inBox(params []int64) bool {
	if len(params) != len(pb.specs) {
		return false
	}
	for k := range pb.specs {
		if params[k] < pb.specs[k].Lo || params[k] > pb.specs[k].Hi {
			return false
		}
	}
	return true
}

// evalDir answers one direction from the pieces alone. ok reports that
// every constraint set was covered by a piece at params; feasible reports
// that at least one covered set was feasible (when false with ok true, the
// scenario is infeasible at params). The reduce mirrors reduceDir's
// first-set-wins order: a later set replaces the incumbent only when
// strictly better.
func (pb *ParamBound) evalDir(di int, params []int64) (cycles int64, piece int, feasible, ok bool) {
	d := &pb.dirs[di]
	for si := 0; si < pb.nsets; si++ {
		covered := false
		for i := d.setStart[si]; i < d.setStart[si+1]; i++ {
			pc := &d.pieces[i]
			if !pc.Covers(params) {
				continue
			}
			covered = true
			if pc.Feasible {
				v := pc.Value.At(params)
				if !feasible ||
					(di == 0 && v > cycles) ||
					(di == 1 && v < cycles) {
					cycles, piece, feasible = v, i, true
				}
			}
			// Exact pieces covering the same point agree on the optimum
			// (the LP value function is single-valued), so the first
			// covering piece decides the set.
			break
		}
		if !covered {
			return 0, 0, false, false
		}
	}
	return cycles, piece, feasible, true
}

// Eval answers a WCET query from the formula: the cycle bound and the index
// of the winning piece. ok is false when the formula does not cover params
// (out-of-domain, an uncovered region hole, or an infeasible scenario) —
// use Bound or EstimateAt for the version with the concrete fallback. The
// hot path performs no allocation.
func (pb *ParamBound) Eval(params []int64) (cycles int64, piece int, ok bool) {
	return pb.eval(0, params)
}

// EvalBCET is Eval for the best-case direction.
func (pb *ParamBound) EvalBCET(params []int64) (cycles int64, piece int, ok bool) {
	return pb.eval(1, params)
}

func (pb *ParamBound) eval(di int, params []int64) (int64, int, bool) {
	if !pb.inBox(params) {
		return 0, 0, false
	}
	v, pc, feasible, ok := pb.evalDir(di, params)
	if !ok || !feasible {
		return 0, 0, false
	}
	pb.evals.Add(1)
	return v, pc, true
}

// paramsMap binds the parameter vector to its symbol names.
func (pb *ParamBound) paramsMap(params []int64) map[string]int64 {
	m := make(map[string]int64, len(pb.specs))
	for k := range pb.specs {
		m[pb.specs[k].Name] = params[k]
	}
	return m
}

// EstimateAt answers one parameter point as a full Estimate. When the
// formula covers the point in both directions the report is synthesized
// without any simplex work (Stats.FormulaEvals = 1; Counts are nil — the
// formula stores values, not vertices); otherwise the annotations are bound
// concretely and solved through the session (Stats.ParamFallbacks = 1),
// which reuses the session's warm bases and outcome caches. Either way the
// cycle bounds are exactly those of a concrete Estimate at the point.
func (pb *ParamBound) EstimateAt(params []int64) (*Estimate, error) {
	return pb.EstimateAtContext(context.Background(), params)
}

// EstimateAtContext is EstimateAt with cancellation (of the fallback solve;
// the formula path never blocks).
func (pb *ParamBound) EstimateAtContext(ctx context.Context, params []int64) (*Estimate, error) {
	if pb.inBox(params) {
		w, wpc, wFeas, wOK := pb.evalDir(0, params)
		b, bpc, bFeas, bOK := pb.evalDir(1, params)
		// The directions share a feasible region, so wFeas != bFeas cannot
		// happen with exact pieces; if it somehow does, fall back instead of
		// guessing.
		if wOK && bOK && wFeas == bFeas {
			pb.evals.Add(1)
			pb.session.noteFormulaAnswer()
			if !wFeas {
				return nil, &InfeasibleError{Sets: pb.nsets}
			}
			est := &Estimate{
				WCET: BoundReport{Cycles: w, SetIndex: pb.dirs[0].setOf[wpc],
					Exact: true, Certified: pb.certified},
				BCET: BoundReport{Cycles: b, SetIndex: pb.dirs[1].setOf[bpc],
					Exact: true, Certified: pb.certified},
				NumSets:         pb.nsets,
				SolvedSets:      pb.nsets,
				AllRootIntegral: true,
			}
			est.Stats.SetsTotal = pb.nsets
			est.Stats.FormulaEvals = 1
			est.Stats.ParamRegions = pb.Pieces()
			return est, nil
		}
	}
	pb.fallbacks.Add(1)
	bound, err := pb.file.Bind(pb.paramsMap(params))
	if err != nil {
		return nil, err
	}
	est, err := pb.session.EstimateContext(ctx, bound)
	if est != nil {
		est.Stats.ParamFallbacks = 1
		est.Stats.ParamRegions = pb.Pieces()
	}
	return est, err
}

// Bound answers one parameter point: formula when covered, concrete
// warm-started solve when not — never a wrong number.
func (pb *ParamBound) Bound(params []int64) (wcet, bcet int64, err error) {
	est, err := pb.EstimateAtContext(context.Background(), params)
	if err != nil {
		return 0, 0, err
	}
	return est.WCET.Cycles, est.BCET.Cycles, nil
}

// Describe renders the formula in terms of the declared symbol names.
func (pb *ParamBound) Describe() string {
	var sb strings.Builder
	names := make([]string, len(pb.specs))
	for k, sp := range pb.specs {
		names[k] = sp.Name
	}
	arg := strings.Join(names, ", ")
	for di, label := range [2]string{"WCET", "BCET"} {
		d := &pb.dirs[di]
		fmt.Fprintf(&sb, "%s(%s): %d piece(s) over %d constraint set(s)\n", label, arg, len(d.pieces), pb.nsets)
		const maxShown = 16
		for i := range d.pieces {
			if i == maxShown {
				fmt.Fprintf(&sb, "  … %d more\n", len(d.pieces)-maxShown)
				break
			}
			pc := &d.pieces[i]
			if pc.Feasible {
				fmt.Fprintf(&sb, "  piece %d (set %d): %s", i, d.setOf[i]+1, pb.affine(pc.Value))
			} else {
				fmt.Fprintf(&sb, "  piece %d (set %d): infeasible", i, d.setOf[i]+1)
			}
			if len(pc.Region) > 0 {
				fmt.Fprintf(&sb, "  where %s", pb.region(pc.Region))
			}
			sb.WriteString("\n")
		}
	}
	return strings.TrimRight(sb.String(), "\n")
}

func (pb *ParamBound) affine(a ilp.ParamAffine) string {
	s := fmt.Sprintf("%d", a.C0)
	for k, c := range a.Coef {
		if c == 0 {
			continue
		}
		if c >= 0 {
			s += fmt.Sprintf(" + %d·%s", c, pb.specs[k].Name)
		} else {
			s += fmt.Sprintf(" - %d·%s", -c, pb.specs[k].Name)
		}
	}
	return s
}

func (pb *ParamBound) region(gs []ilp.ParamAffine) string {
	parts := make([]string, 0, len(gs))
	for _, g := range gs {
		parts = append(parts, pb.affine(g)+" ≥ 0")
	}
	const maxShown = 6
	if len(parts) > maxShown {
		parts = append(parts[:maxShown], fmt.Sprintf("… (%d more)", len(gs)-maxShown))
	}
	return strings.Join(parts, ", ")
}

// firstSymbolUse locates the first annotation that carries a parameter
// symbol, for error positioning.
func firstSymbolUse(file *constraint.File) (f string, line int) {
	for _, sec := range file.Sections {
		for _, lb := range sec.LoopBounds {
			if lb.Symbolic() {
				return lb.File, lb.Line
			}
		}
		for _, fm := range sec.Formulas {
			if f, line, ok := formulaSymbolUse(fm); ok {
				return f, line
			}
		}
	}
	return "", 0
}

func formulaSymbolUse(f constraint.Formula) (string, int, bool) {
	switch n := f.(type) {
	case *constraint.Atom:
		if len(n.Rel.Syms) > 0 {
			return n.Rel.File, n.Rel.Line, true
		}
	case *constraint.And:
		for _, p := range n.Parts {
			if f, l, ok := formulaSymbolUse(p); ok {
				return f, l, true
			}
		}
	case *constraint.Or:
		for _, p := range n.Parts {
			if f, l, ok := formulaSymbolUse(p); ok {
				return f, l, true
			}
		}
	}
	return "", 0, false
}

// checkNoSymbols guards the concrete solve path: annotations still carrying
// parameter symbols cannot be lowered to numbers.
func checkNoSymbols(file *constraint.File) error {
	if file == nil {
		return nil
	}
	syms := file.Symbols()
	if len(syms) == 0 {
		return nil
	}
	f, line := firstSymbolUse(file)
	return &UnboundSymbolError{Symbols: syms, File: f, Line: line}
}

// Parametrize analyzes one symbolic annotation scenario into a
// piecewise-linear bound formula. Every parameter symbol used by file must
// be declared in specs (and vice versa). The enumeration seeds parametric
// solves from the declared domain box, one optimal basis per piece; see
// ParamBound for the query-time contract.
func (s *Session) Parametrize(file *constraint.File, specs []ParamSpec) (*ParamBound, error) {
	return s.ParametrizeContext(context.Background(), file, specs)
}

// enumeration budgets, per (direction, constraint set).
const (
	maxPiecesPerSet = 64
	maxSolvesPerSet = 96
)

// ParametrizeContext is Parametrize with cancellation.
func (s *Session) ParametrizeContext(ctx context.Context, file *constraint.File, specs []ParamSpec) (*ParamBound, error) {
	if file == nil {
		return nil, fmt.Errorf("ipet: Parametrize requires an annotation file")
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("ipet: Parametrize requires at least one parameter spec")
	}
	if s.Opts.WidenSets {
		return nil, fmt.Errorf("ipet: Parametrize does not support Options.WidenSets (a widened set would change with the parameters)")
	}
	symIdx := make(map[string]int, len(specs))
	for k, sp := range specs {
		if sp.Name == "" {
			return nil, fmt.Errorf("ipet: parameter %d has an empty name", k)
		}
		if _, dup := symIdx[sp.Name]; dup {
			return nil, fmt.Errorf("ipet: duplicate parameter %q", sp.Name)
		}
		if sp.Lo > sp.Hi {
			return nil, fmt.Errorf("ipet: parameter %q has an empty domain %d .. %d", sp.Name, sp.Lo, sp.Hi)
		}
		if sp.Lo < -paramDomainCap || sp.Hi > paramDomainCap {
			return nil, fmt.Errorf("ipet: parameter %q domain exceeds ±2^31", sp.Name)
		}
		symIdx[sp.Name] = k
	}
	used := file.Symbols()
	for _, name := range used {
		if _, ok := symIdx[name]; !ok {
			return nil, fmt.Errorf("ipet: annotations use parameter %q but no domain was declared for it", name)
		}
	}
	if len(used) != len(specs) {
		usedSet := make(map[string]bool, len(used))
		for _, n := range used {
			usedSet[n] = true
		}
		for _, sp := range specs {
			if !usedSet[sp.Name] {
				return nil, fmt.Errorf("ipet: parameter %q does not occur in the annotations", sp.Name)
			}
		}
	}

	// Apply validates the file (symbolic bounds included) and deep-copies it.
	a := &Analyzer{Session: s}
	if err := a.Apply(file); err != nil {
		return nil, err
	}
	if err := checkBoundDomains(a.annots, specs, symIdx); err != nil {
		return nil, err
	}

	K := len(specs)
	structural := s.StructuralConstraints()
	loopRows, loopCoefs, err := a.paramLoopRows(structural, specs, symIdx)
	if err != nil {
		return nil, err
	}
	setRows, setCoefs, total, err := a.paramSets(symIdx, K)
	if err != nil {
		return nil, err
	}
	if total == 0 {
		return nil, &InfeasibleError{Sets: 0, AllNull: true}
	}

	pb := &ParamBound{session: s, file: a.annots, specs: specs, nsets: total}
	for di := range s.dirBases {
		db := &s.dirBases[di]
		d := &pb.dirs[di]
		d.setStart = make([]int, 0, total+1)
		for si := 0; si < total; si++ {
			d.setStart = append(d.setStart, len(d.pieces))
			nShared := len(structural) + len(loopRows) + len(db.obj.extra)
			rows := make([]ilp.Constraint, 0, nShared+len(setRows[si]))
			coefs := make([][]int64, 0, nShared+len(setRows[si]))
			rows = append(rows, structural...)
			coefs = append(coefs, make([][]int64, len(structural))...)
			rows = append(rows, loopRows...)
			coefs = append(coefs, loopCoefs...)
			rows = append(rows, db.obj.extra...)
			coefs = append(coefs, make([][]int64, len(db.obj.extra))...)
			rows = append(rows, setRows[si]...)
			coefs = append(coefs, setCoefs[si]...)
			p := &ilp.Problem{
				Sense:       db.sense,
				NumVars:     db.obj.nVars,
				Objective:   db.obj.coeffs,
				Constraints: rows,
			}
			pieces, err := pb.enumerateSet(ctx, a, p, coefs)
			if err != nil {
				return nil, err
			}
			for range pieces {
				d.setOf = append(d.setOf, si)
			}
			d.pieces = append(d.pieces, pieces...)
		}
		d.setStart = append(d.setStart, len(d.pieces))
	}
	pb.certified = s.Opts.Certify
	pb.enumStats.ParamRegions = pb.Pieces()
	return pb, nil
}

// checkBoundDomains rejects a parameter domain that admits an invalid loop
// bound (negative lower end, or lower end above upper end) anywhere in the
// box: inside the box a query must always have a well-formed concrete
// binding, so formula answers and fallback answers agree on validity. The
// check is conservative over the box corners.
func checkBoundDomains(file *constraint.File, specs []ParamSpec, symIdx map[string]int) error {
	for _, sec := range file.Sections {
		for _, lb := range sec.LoopBounds {
			if !lb.Symbolic() {
				continue
			}
			loMin, loMax := lb.Lo, lb.Lo
			if lb.LoSym != "" {
				sp := specs[symIdx[lb.LoSym]]
				loMin, loMax = sp.Lo, sp.Hi
			}
			hiMin := lb.Hi
			if lb.HiSym != "" {
				hiMin = specs[symIdx[lb.HiSym]].Lo
			}
			if loMin < 0 {
				return &AnnotationError{File: lb.File, Line: lb.Line,
					Msg: fmt.Sprintf("parameter domain admits a negative lower bound for %s loop %d", sec.Func, lb.Loop)}
			}
			if loMax > hiMin {
				return &AnnotationError{File: lb.File, Line: lb.Line,
					Msg: fmt.Sprintf("parameter domain admits lower bound %d above upper bound %d for %s loop %d", loMax, hiMin, sec.Func, lb.Loop)}
			}
		}
	}
	return nil
}

// paramLoopRows lowers the loop-bound annotations with parameter symbols
// carried into RHS coefficient vectors (coefs[i] nil for a non-parametric
// row). A concrete bound keeps the concrete path's exact form
// Σback − bound·Σentry {≤,≥} 0 (the bound sits in the matrix). A symbolic
// end cannot: a parameter in the matrix would make the program bilinear. It
// is sound to move it to the RHS exactly when the loop's entry-edge sum is
// *pinned* — forced to a single constant v by the structural rows plus the
// concrete loop rows alone — because then Σback ≤ hi·Σentry ⟺ Σback ≤ hi·v
// on every feasible point, for every hi. Nested symbolic bounds (where the
// outer symbolic bound un-pins the inner entry count) fail the pin check
// and are rejected.
func (a *Analyzer) paramLoopRows(structural []ilp.Constraint, specs []ParamSpec, symIdx map[string]int) ([]ilp.Constraint, [][]int64, error) {
	// Each bound contributes its upper and lower row. The pin system is the
	// structural rows plus every row with a concrete end; the symbolic
	// bounds are pinned once it is complete.
	type symbolicBound struct {
		ctx  *Context
		loop *cfg.Loop
		lb   constraint.LoopBound
		row  int // index of its upper row; the lower row follows
	}
	var rows []ilp.Constraint
	var symbolic []symbolicBound
	pinRows := append([]ilp.Constraint{}, structural...)
	a.eachLoopBound(func(ctx *Context, loop *cfg.Loop, lb constraint.LoopBound) {
		if lb.Symbolic() {
			symbolic = append(symbolic, symbolicBound{ctx, loop, lb, len(rows)})
		}
		upper := a.loopBoundRow(ctx, loop, lb.Loop, ilp.LE, lb.Hi, lb.HiSym)
		lower := a.loopBoundRow(ctx, loop, lb.Loop, ilp.GE, lb.Lo, lb.LoSym)
		rows = append(rows, upper, lower)
		if lb.HiSym == "" {
			pinRows = append(pinRows, upper)
		}
		if lb.LoSym == "" {
			pinRows = append(pinRows, lower)
		}
	})

	coefs := make([][]int64, len(rows))
	for _, sb := range symbolic {
		v, err := a.pinEntrySum(sb.ctx.ID, sb.loop.EntryEdges, pinRows)
		if err != nil {
			return nil, nil, &AnnotationError{File: sb.lb.File, Line: sb.lb.Line,
				Msg: fmt.Sprintf("symbolic bound for %s loop %d (%s): %v", sb.ctx, sb.lb.Loop, symBoundString(sb.lb), err)}
		}
		if v == 0 {
			continue
		}
		// Σback ≤ θ_hi · v, carried as RHS 0 + v·θ_hi; likewise the lower end.
		for k, sym := range [2]string{sb.lb.HiSym, sb.lb.LoSym} {
			if sym != "" {
				coefs[sb.row+k] = make([]int64, len(specs))
				coefs[sb.row+k][symIdx[sym]] = v
			}
		}
	}
	return rows, coefs, nil
}

func symBoundString(lb constraint.LoopBound) string {
	return boundEndString(lb.Lo, lb.LoSym) + " .. " + boundEndString(lb.Hi, lb.HiSym)
}

func boundEndString(v int64, sym string) string {
	if sym != "" {
		return sym
	}
	return fmt.Sprintf("%d", v)
}

// pinEntrySum proves that the sum of the given entry edges is a fixed
// constant on every feasible point of the pin system, and returns it. Both
// the minimum and maximum of the sum are solved as LPs; the claim holds in
// the full (superset) system a fortiori.
func (a *Analyzer) pinEntrySum(ctxID int, entryEdges []int, pinRows []ilp.Constraint) (int64, error) {
	if len(entryEdges) == 0 {
		return 0, nil
	}
	obj := map[int]float64{}
	for _, e := range entryEdges {
		obj[a.edgeVar(ctxID, e)] += 1
	}
	var vals [2]float64
	for i, sense := range [2]ilp.Sense{ilp.Minimize, ilp.Maximize} {
		sol, err := ilp.Solve(&ilp.Problem{
			Sense:       sense,
			NumVars:     a.nVars,
			Objective:   obj,
			Constraints: pinRows,
		})
		if err != nil {
			return 0, err
		}
		switch sol.Status {
		case ilp.Optimal:
			vals[i] = sol.Objective
		case ilp.Unbounded:
			return 0, fmt.Errorf("the loop's entry count is not fixed by the concrete constraints (nested parametric loops are not supported)")
		default:
			return 0, fmt.Errorf("the concrete constraints are already infeasible (%v)", sol.Status)
		}
	}
	if math.Abs(vals[1]-vals[0]) > 1e-6 {
		return 0, fmt.Errorf("the loop's entry count varies between %g and %g under the concrete constraints (nested parametric loops are not supported)", vals[0], vals[1])
	}
	v := math.Round(vals[0])
	if math.Abs(vals[0]-v) > 1e-6 || v < 0 || v > float64(paramDomainCap) {
		return 0, fmt.Errorf("the loop's entry count %g is not a small nonnegative integer", vals[0])
	}
	return int64(v), nil
}

// paramSets expands the functionality formulas into conjunctive ILP sets
// with each relation's symbol coefficients carried alongside. Unlike the
// concrete buildSets, nothing is pruned, widened, or deduped: null-ness and
// equality of sets are parameter-dependent here.
func (a *Analyzer) paramSets(symIdx map[string]int, K int) (sets [][]ilp.Constraint, coefs [][][]int64, total int, err error) {
	exp, err := a.expand(false)
	if err != nil {
		return nil, nil, 0, err
	}
	// One read-only coefficient vector per symbolic atom, shared by every
	// set the atom joins.
	vecs := make([][]int64, len(a.atoms))
	for k := range a.atoms {
		syms := a.atoms[k].atom.Rel.Syms
		if len(syms) == 0 {
			continue
		}
		vecs[k] = make([]int64, K)
		for name, coef := range syms {
			vecs[k][symIdx[name]] = coef
		}
	}
	for _, set := range exp.Sets {
		rows := make([]ilp.Constraint, len(set))
		rowCoefs := make([][]int64, len(set))
		for i, k := range set {
			rows[i] = a.atoms[k].row
			rowCoefs[i] = vecs[k]
		}
		sets = append(sets, rows)
		coefs = append(coefs, rowCoefs)
	}
	return sets, coefs, len(exp.Sets), nil
}

// enumerateSet enumerates the pieces of one (direction, constraint set)
// parametric program over the domain box. K == 1 walks the interval
// exactly: solve at the lowest uncovered point, jump past the piece's
// covered interval, repeat. K >= 2 seeds from a coarse sub-grid of the box.
// Budget exhaustion and rejected pieces leave coverage holes, which queries
// answer through the concrete fallback — completeness is best-effort,
// correctness is not.
func (pb *ParamBound) enumerateSet(ctx context.Context, a *Analyzer, p *ilp.Problem, coefs [][]int64) ([]ilp.ParamPiece, error) {
	var pieces []ilp.ParamPiece
	specs := pb.specs
	K := len(specs)
	st := &pb.enumStats
	solves := 0
	budgetLeft := func() bool {
		return len(pieces) < maxPiecesPerSet && solves < maxSolvesPerSet
	}
	covering := func(theta []int64) int {
		for i := range pieces {
			if pieces[i].Covers(theta) {
				return i
			}
		}
		return -1
	}
	try := func(theta []int64) (bool, error) {
		if err := ctx.Err(); err != nil {
			return false, err
		}
		status, pivots, cert, err := ilp.SolveSeed(ilp.Concretize(p, coefs, theta))
		solves++
		st.EnumSolves++
		st.EnumPivots += pivots
		if err != nil {
			return false, err
		}
		if status == ilp.Unbounded {
			msg := "ipet: ILP unbounded — a loop lacks a bound"
			if missing := a.MissingLoopBounds(); len(missing) > 0 {
				msg += ": " + strings.Join(missing, "; ")
			}
			return false, fmt.Errorf("%s", msg)
		}
		pc, err := certify.DerivePiece(p, coefs, theta, cert)
		if err != nil {
			st.RejectedPieces++
			return false, nil
		}
		pieces = append(pieces, *pc)
		return true, nil
	}

	if K == 1 {
		lo, hi := specs[0].Lo, specs[0].Hi
		theta := []int64{lo}
		for theta[0] <= hi && budgetLeft() {
			if i := covering(theta); i >= 0 {
				theta[0] = pieceIntervalEnd(&pieces[i], theta[0], hi) + 1
				continue
			}
			ok, err := try(theta)
			if err != nil {
				return nil, err
			}
			if !ok {
				theta[0]++ // a hole; move on
			}
		}
		return pieces, nil
	}

	axes := gridAxes(specs)
	idx := make([]int, K)
	theta := make([]int64, K)
	for {
		for k := range idx {
			theta[k] = axes[k][idx[k]]
		}
		if !budgetLeft() {
			break
		}
		if covering(theta) < 0 {
			if _, err := try(theta); err != nil {
				return nil, err
			}
		}
		k := K - 1
		for k >= 0 {
			idx[k]++
			if idx[k] < len(axes[k]) {
				break
			}
			idx[k] = 0
			k--
		}
		if k < 0 {
			break
		}
	}
	return pieces, nil
}

// gridAxes picks seed values per axis: every integer for small domains,
// otherwise an even spread including both endpoints. The per-axis width
// shrinks with dimension to cap the total grid size.
func gridAxes(specs []ParamSpec) [][]int64 {
	K := len(specs)
	perAxis := 16
	if K >= 3 {
		perAxis = 8
	}
	if K >= 4 {
		perAxis = 4
	}
	axes := make([][]int64, K)
	for k, sp := range specs {
		n := sp.Hi - sp.Lo + 1
		if n <= int64(perAxis) {
			vals := make([]int64, 0, n)
			for v := sp.Lo; v <= sp.Hi; v++ {
				vals = append(vals, v)
			}
			axes[k] = vals
			continue
		}
		vals := make([]int64, 0, perAxis)
		for i := 0; i < perAxis; i++ {
			v := sp.Lo + (sp.Hi-sp.Lo)*int64(i)/int64(perAxis-1)
			if len(vals) == 0 || vals[len(vals)-1] != v {
				vals = append(vals, v)
			}
		}
		axes[k] = vals
	}
	return axes
}

// pieceIntervalEnd returns the largest θ ≤ hi still covered by the piece,
// for the 1-D interval walk; the piece is known to cover from.
func pieceIntervalEnd(pc *ilp.ParamPiece, from, hi int64) int64 {
	end := hi
	for _, g := range pc.Region {
		if len(g.Coef) != 1 || g.Coef[0] >= 0 {
			continue
		}
		// g.C0 + c·θ ≥ 0 with c < 0 ⟺ θ ≤ floor(C0 / -c).
		if u := floorDiv(g.C0, -g.Coef[0]); u < end {
			end = u
		}
	}
	if end < from {
		end = from
	}
	return end
}

// floorDiv is floor(a/b) for b > 0.
func floorDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}
