// Package ipet implements the paper's contribution: implicit path
// enumeration. Program path analysis is cast as integer linear programs
// over basic-block execution counts — maximize (or minimize) sum(c_i * x_i)
// subject to structural constraints extracted from the CFG and
// user-provided functionality constraint sets — so that the extreme-case
// paths are never enumerated explicitly (Section III).
//
// Functions are analyzed context-sensitively: each call site instantiates a
// fresh copy of the callee's count variables, which is exactly the paper's
// device for eq. (18): "for purpose of analysis, a separate set of x_i
// variables is used for this instance of the call". Aggregate variables
// (the plain x8 of eq. (17)) are sums over all instances.
package ipet

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"cinderella/internal/cfg"
	"cinderella/internal/constraint"
	"cinderella/internal/march"
	"cinderella/internal/prepcache"
)

// Options tunes the analysis.
type Options struct {
	// March configures the block cost model.
	March march.Options
	// SplitFirstIteration enables the Section IV refinement: the first
	// iteration of a cache-resident loop pays miss costs, later iterations
	// pay steady-state costs.
	SplitFirstIteration bool
	// PruneNullSets drops trivially-infeasible conjunctive sets before
	// invoking the ILP solver (Section III.D; dhry drops 8 sets to 3).
	PruneNullSets bool
	// MaxSets bounds the disjunctive cross product.
	MaxSets int
	// MaxContexts bounds context expansion.
	MaxContexts int
	// Artifacts selects the content-addressed prepare-artifact cache
	// Prepare fetches per-function material from (nil selects the
	// process-wide prepcache.Default()). Servers that persist artifacts to
	// disk pass their own cache so restart and fault-injection tests can
	// run isolated stores side by side.
	Artifacts *prepcache.Cache
	// Workers bounds the number of concurrent ILP solves in Estimate: the
	// sets × {max,min} jobs are dispatched to a pool of this size. 0
	// selects runtime.GOMAXPROCS(0); 1 forces the fully sequential path.
	// The result is deterministic — identical to Workers == 1 — at every
	// setting, because jobs are reduced in set order after completion.
	Workers int
	// IncumbentPrune shares the best bound found so far across the solve
	// pool and abandons any set whose LP relaxation proves it strictly
	// worse than the incumbent (such sets report as incumbent-skipped in
	// Stats). The bound, extreme-case counts, and winning set index are
	// unaffected: a pruned set can never win or tie the winner.
	IncumbentPrune bool
	// Deadline bounds the wall clock of one Estimate call. When it expires
	// no further constraint-set solves start, in-flight solves are
	// abandoned, and the estimate degrades to the sound envelope: the base
	// LP relaxation bound (which dominates every set's optimum) replaces
	// the unsolved sets, and the report carries Exact=false. Zero means no
	// deadline. Cancellation or expiry of the caller's own context remains
	// an error — only the analyzer's internal deadline degrades.
	Deadline time.Duration
	// Budget bounds the total simplex pivots one Estimate may spend,
	// including the plan's base solves. Once spent, remaining solve jobs
	// are not launched and report through the sound envelope, exactly as
	// under Deadline but deterministically. Zero means unlimited.
	Budget int
	// Certify backs every reported bound with an exact rational check:
	// each per-set float64 solve must produce an optimal-basis certificate
	// that verifies in exact rational arithmetic (feasibility of the basic
	// solution against the original rows, nonpositive reduced costs, and
	// integrality); claims without a verifiable certificate — rejected
	// certificates, infeasibility claims, solves with suspect
	// (ill-conditioned) pivots — are re-solved from scratch by the exact
	// rational simplex of internal/ilp/certify. The reported bound is
	// therefore exactly right even if the float64 kernels misbehave; the
	// price is the exact fallback's cost on every claim the certificates
	// cannot vouch for. Warm claims run on the same presolved warm bases as
	// uncertified ones: each base's exact checker replays the presolve's
	// derivation once, and every warm certificate is checked in the reduced
	// problem, its point against every original row. Certify disables
	// incumbent pruning (a pruned set's domination claim cannot be
	// certified), which leaves bounds and counts unchanged.
	Certify bool
	// WidenSets replaces the hard MaxSets failure with sound widening:
	// when the disjunctive cross product would exceed MaxSets, the
	// overflowing formula is collapsed to the relations shared by all its
	// disjuncts (constraint.Widen). Dropping the non-shared rows only
	// enlarges the feasible region, so the bound stays safe; reports whose
	// winning set was widened carry Exact=false.
	WidenSets bool
}

// DefaultOptions returns the standard analysis configuration.
func DefaultOptions() Options {
	return Options{
		March:          march.DefaultOptions(),
		PruneNullSets:  true,
		MaxSets:        4096,
		MaxContexts:    10000,
		IncumbentPrune: true,
	}
}

// Context is one instantiation of a function's count variables: the chain
// of call sites from the analysis root.
type Context struct {
	ID   int
	Func string
	// Path is the chain of call edges from the root: Path[i] identifies a
	// call edge (by function name and edge ID) whose callee is the next
	// element's function. Empty for the root context.
	Path []CallRef
}

// CallRef names one call edge.
type CallRef struct {
	Caller string
	EdgeID int
}

func (c *Context) String() string {
	s := c.Func
	if len(c.Path) > 0 {
		s += " via"
		for _, r := range c.Path {
			s += fmt.Sprintf(" %s:d%d", r.Caller, r.EdgeID+1)
		}
	}
	return s
}

// Analyzer binds one set of functionality annotations to a session's
// shared analysis model. The model fields (Prog, Root, Opts, contexts,
// variables, costs) are promoted from the embedded Session; the analyzer
// itself owns only the annotations and the memoized solver plan derived
// from them.
type Analyzer struct {
	*Session

	annots *constraint.File
	// atoms lists the relations of annots' reachable formulas in expansion
	// order (constraint.AppendAtoms), each resolved to ILP columns once by
	// Apply; every constraint set is a list of indices into it.
	atoms []atomRow

	// anytime, when non-nil, overrides the session's Deadline and Budget
	// for this analyzer's estimates; see SetAnytime.
	anytime *anytimeOverride

	// planMu guards plan, the memoized solver setup (expanded sets, packed
	// prefixes, warm-start bases) shared by repeated Estimate calls.
	// Apply invalidates it; see solverSetup in estimate.go.
	planMu sync.Mutex
	plan   *solverPlan
}

// anytimeOverride carries per-analyzer anytime budgets.
type anytimeOverride struct {
	deadline time.Duration
	budget   int
}

// SetAnytime overrides the session-wide Options.Deadline and
// Options.Budget for this analyzer only. A long-lived service maps each
// request's SLO onto the anytime machinery this way: the shared session —
// and with it every prepared tableau and cache — is built once with the
// full options, while each request-scoped analyzer degrades on its own
// clock. Zero values mean "no deadline" / "no pivot budget", exactly as in
// Options; the override replaces both fields wholesale.
//
// Call it before the analyzer's first Estimate (the solver plan captures
// budget-dependent setup decisions when it is built).
func (a *Analyzer) SetAnytime(deadline time.Duration, budget int) {
	a.anytime = &anytimeOverride{deadline: deadline, budget: budget}
}

// effAnytime resolves the deadline and pivot budget that govern this
// analyzer's estimates: the per-analyzer override when set, otherwise the
// session options.
func (a *Analyzer) effAnytime() (time.Duration, int) {
	if a.anytime != nil {
		return a.anytime.deadline, a.anytime.budget
	}
	return a.Opts.Deadline, a.Opts.Budget
}

// New builds a standalone analyzer for the given root function. It is the
// one-shot path: the session it wraps is private and does not persist
// solver results across Estimate calls. Use Prepare to share one session
// across many annotation scenarios.
func New(prog *cfg.Program, root string, opts Options) (*Analyzer, error) {
	s, err := newSession(prog, root, opts)
	if err != nil {
		return nil, err
	}
	return &Analyzer{Session: s}, nil
}

func (a *Session) expandContexts(fn string, path []CallRef) error {
	if len(a.contexts) >= a.Opts.MaxContexts {
		return fmt.Errorf("ipet: context expansion exceeds %d", a.Opts.MaxContexts)
	}
	ctx := &Context{ID: len(a.contexts), Func: fn, Path: append([]CallRef{}, path...)}
	a.contexts = append(a.contexts, ctx)
	a.ctxByFunc[fn] = append(a.ctxByFunc[fn], ctx)
	fc := a.Prog.Funcs[fn]
	for _, eid := range fc.Calls {
		callee := fc.Edges[eid].Callee
		child := len(a.contexts)
		if err := a.expandContexts(callee, append(path, CallRef{Caller: fn, EdgeID: eid})); err != nil {
			return err
		}
		a.ctxChild[[2]int{ctx.ID, eid}] = a.contexts[child]
	}
	return nil
}

// Contexts returns all contexts, root first.
func (a *Session) Contexts() []*Context { return a.contexts }

// NumVars returns the number of ILP variables in the structural model.
func (a *Session) NumVars() int { return a.nVars }

// blockVar returns the ILP variable of block b in context ctx: contexts lay
// their block variables out first, then their edge variables, contiguously
// from ctxOff (first-iteration split variables are appended past nVars by
// the objective builder).
func (a *Session) blockVar(ctx, b int) int { return a.ctxOff[ctx] + b }

// edgeVar returns the ILP variable of edge e in context ctx.
func (a *Session) edgeVar(ctx, e int) int { return a.ctxOff[ctx] + a.ctxNB[ctx] + e }

// Apply registers the functionality annotations (loop bounds and path
// facts). The whole file is validated up front — sections naming unknown
// functions, loop bounds out of the detected range or malformed, and
// formula variables that do not resolve against the CFG are all rejected
// with an *AnnotationError carrying the file and line — so a malformed
// annotation can never surface later as a panic or a silent skip inside
// Estimate.
func (a *Analyzer) Apply(file *constraint.File) error {
	// Deep-copy first: a caller mutating its annotation objects after Apply
	// (to build the next scenario, say) must not corrupt this analyzer's —
	// or, through a shared session's caches, another analyzer's — view, and
	// the atom table below points into the copy.
	annots := file.Clone()
	var atoms []atomRow
	var batch []*constraint.Atom
	for _, sec := range annots.Sections {
		if _, ok := a.ctxByFunc[sec.Func]; !ok {
			if _, exists := a.Prog.Funcs[sec.Func]; !exists {
				return &AnnotationError{File: sec.File, Line: sec.Line,
					Msg: fmt.Sprintf("annotations name unknown function %q", sec.Func)}
			}
			// A section for an unreached function is legal but inert.
			continue
		}
		fc := a.Prog.Funcs[sec.Func]
		for _, lb := range sec.LoopBounds {
			// Loop < 1 can only come from a programmatically built file (the
			// parser rejects it), but unchecked it would index fc.Loops[-1]
			// when the bound rows are materialized.
			if lb.Loop < 1 || lb.Loop > len(fc.Loops) {
				return &AnnotationError{File: lb.File, Line: lb.Line,
					Msg: fmt.Sprintf("%s has %d loops (1-based), annotation names loop %d", sec.Func, len(fc.Loops), lb.Loop)}
			}
			if lb.Symbolic() {
				// A symbolic end has no value to range-check yet; that
				// happens when the symbol is bound (constraint.File.Bind)
				// or against the parameter domain in Parametrize. A
				// concrete lower end must still be nonnegative.
				if lb.LoSym == "" && lb.Lo < 0 {
					return &AnnotationError{File: lb.File, Line: lb.Line,
						Msg: fmt.Sprintf("bad bound %d .. %s for %s loop %d", lb.Lo, lb.HiSym, sec.Func, lb.Loop)}
				}
			} else if lb.Lo < 0 || lb.Hi < lb.Lo {
				return &AnnotationError{File: lb.File, Line: lb.Line,
					Msg: fmt.Sprintf("bad bound %d .. %d for %s loop %d", lb.Lo, lb.Hi, sec.Func, lb.Loop)}
			}
		}
		// Resolve every relation against the CFG now, so a malformed
		// formula fails at annotation time with a positioned diagnostic
		// instead of surfacing — or worse, being skipped — during set
		// expansion, and so each relation is lowered once however many
		// constraint sets it joins.
		for _, fm := range sec.Formulas {
			batch = constraint.AppendAtoms(batch[:0], fm)
			for _, at := range batch {
				row, err := a.relToILP(at.Rel)
				if err != nil {
					return err
				}
				atoms = append(atoms, atomRow{atom: at, row: row})
			}
		}
	}
	a.annots = annots
	a.atoms = atoms
	// New annotations change the constraint sets and loop-bound rows, so
	// any memoized solver setup is stale.
	a.planMu.Lock()
	a.plan = nil
	a.planMu.Unlock()
	return nil
}

// MissingLoopBounds lists loops of reachable functions that have no bound
// annotation — "the minimum user information required to perform timing
// analysis is the loop bound information".
func (a *Analyzer) MissingLoopBounds() []string {
	var missing []string
	names := make([]string, 0, len(a.ctxByFunc))
	for name := range a.ctxByFunc {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fc := a.Prog.Funcs[name]
		bounded := map[int]bool{}
		if a.annots != nil {
			if sec, ok := a.annots.Section(name); ok {
				for _, lb := range sec.LoopBounds {
					bounded[lb.Loop] = true
				}
			}
		}
		for i := range fc.Loops {
			if !bounded[i+1] {
				missing = append(missing, fmt.Sprintf("%s loop %d (header block x%d)", name, i+1, fc.Loops[i].Header+1))
			}
		}
	}
	return missing
}
