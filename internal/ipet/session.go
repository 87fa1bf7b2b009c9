package ipet

import (
	"context"
	"encoding/binary"
	"math"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"cinderella/internal/cache"
	"cinderella/internal/cfg"
	"cinderella/internal/constraint"
	"cinderella/internal/ilp"
	"cinderella/internal/march"
	"cinderella/internal/prepcache"
)

// Session owns everything about an analysis that does not depend on the
// functionality annotations: the disassembled program with its CFGs, the
// context expansion and ILP variable layout, the structural flow
// constraints, the block cost model, and the per-direction objectives with
// their rows lowered to the solver's sparse form. The interactive workflow
// of Section V — supply annotations, read the bound, refine, repeat —
// builds this once with Prepare and then runs any number of annotation
// variants through Estimate, instead of paying the whole front end per
// query.
//
// A prepared session additionally retains solver results across Estimate
// calls: warm-start base tableaux keyed by the loop-bound rows, the
// outcome (optimal cycles or infeasibility) of every distinct conjunctive
// set it has solved, and the winners' canonical count vectors. Scenarios
// that share loop bounds and some constraint sets — the common case when
// the user tweaks one formula among many — skip the shared solves
// entirely. Reports remain bit-identical to a fresh one-shot Analyzer at
// every worker count: cached outcomes are cutoff-independent values, and
// winning counts are always the result of the same finish (a unique warm
// optimum, or else a canonical cold solve) the one-shot path runs.
//
// A Session is immutable after Prepare apart from its internal caches,
// which are mutex-guarded: concurrent Estimate calls are safe.
type Session struct {
	Prog *cfg.Program
	Root string
	Opts Options

	contexts []*Context
	// ctxByFunc indexes contexts per function name.
	ctxByFunc map[string][]*Context
	// ctxChild maps (parent ctx, call edge) to the callee context.
	ctxChild map[[2]int]*Context

	// ctxOff and ctxNB encode the variable layout: context c's block
	// variables are ctxOff[c]..ctxOff[c]+ctxNB[c]-1 (block index order) and
	// its edge variables follow contiguously (edge ID order), exactly the
	// numbering the former per-variable map assigned. Offset arithmetic
	// replaces the map so variable resolution is allocation- and hash-free.
	ctxOff []int
	ctxNB  []int
	nVars  int

	// costs caches block cost brackets per reachable function (the only
	// functions the objectives charge). BlockCosts computes tables for
	// unreachable functions on demand.
	costs map[string][]march.BlockCost

	// artifactHits/artifactMisses count the content-addressed prepare
	// artifacts (CFG skeletons, cost tables, structural row templates)
	// served from, respectively built into, the process-wide prepcache
	// while this session was prepared.
	artifactHits   int64
	artifactMisses int64

	// Prepared solver front end: the structural rows lowered to packed form
	// once, and one dirBase per objective sense. Per-annotation prefixes are
	// assembled by concatenation (structural + loop rows + objective
	// extras), preserving the exact row order of the un-prepared path.
	packedStructural []ilp.PackedRow
	dirBases         []dirBase

	// persist marks a session built by Prepare: the caches below carry
	// solver state across Estimate calls. Analyzers made by New leave it
	// off so their per-call statistics stay those of a standalone run.
	persist     bool
	baseCache   *cache.Keyed[string, *warmBaseEntry]
	solveCache  *cache.Keyed[string, cachedSolve]
	finishCache *cache.Keyed[string, []float64]

	// totalsMu guards totals, the cumulative work ledger across every
	// estimate this session has served. A long-lived service polls Totals
	// while estimates are in flight, so the ledger is only ever touched
	// under the mutex: per-call Stats are accumulated wholesale after the
	// estimate completes, and Totals copies the ledger out under the same
	// lock — a reader can never observe a half-written counter.
	totalsMu sync.Mutex
	totals   SessionTotals
}

// SessionTotals is the cumulative, snapshot-consistent work ledger of one
// session: every counter of every completed Estimate (and every
// formula-answered parametric query) summed since Prepare. It exists for
// concurrent observers — a server's stats endpoint, a monitoring loop —
// which must never race the estimates they observe; see Session.Totals.
type SessionTotals struct {
	// Estimates counts completed Estimate calls (including parametric
	// fallback solves); FormulaAnswers counts parametric queries answered
	// purely by a piecewise-linear formula, which run no solver and are
	// not included in Estimates.
	Estimates      int64
	FormulaAnswers int64
	// Degraded counts estimates whose WCET or BCET was not exact (sound
	// envelope reports under a deadline, budget, or widening);
	// DeadlineHits counts estimates whose internal deadline expired.
	Degraded     int64
	DeadlineHits int64
	// Stats sums the per-call counters field by field. The duration
	// fields accumulate total build/solve time; DeadlineHit is true when
	// any estimate hit its deadline.
	Stats Stats
}

// accumulate folds one completed estimate into the ledger. Callers hold
// totalsMu.
func (t *SessionTotals) accumulate(est *Estimate) {
	t.Estimates++
	if !est.WCET.Exact || !est.BCET.Exact {
		t.Degraded++
	}
	if est.Stats.DeadlineHit {
		t.DeadlineHits++
	}
	s, d := &t.Stats, &est.Stats
	s.SetsTotal += d.SetsTotal
	s.PrunedNull += d.PrunedNull
	s.Deduped += d.Deduped
	s.IncumbentSkipped += d.IncumbentSkipped
	s.Solved += d.Solved
	s.WarmSolves += d.WarmSolves
	s.ColdSolves += d.ColdSolves
	s.Pivots += d.Pivots
	s.NetworkSolves += d.NetworkSolves
	s.RevisedPivots += d.RevisedPivots
	s.Refactorizations += d.Refactorizations
	s.CacheHits += d.CacheHits
	s.BuildTime += d.BuildTime
	s.SolveTime += d.SolveTime
	s.SetsWidened += d.SetsWidened
	s.SetsUnsolved += d.SetsUnsolved
	s.DeadlineHit = s.DeadlineHit || d.DeadlineHit
	s.SuspectPivots += d.SuspectPivots
	s.CertFailures += d.CertFailures
	s.ExactResolves += d.ExactResolves
	s.Resolves.add(d.Resolves)
	s.FormulaEvals += d.FormulaEvals
	s.ParamRegions += d.ParamRegions
	s.ParamFallbacks += d.ParamFallbacks
	s.ArtifactHits += d.ArtifactHits
	s.ArtifactMisses += d.ArtifactMisses
}

// noteEstimate records one completed estimate in the session ledger.
func (s *Session) noteEstimate(est *Estimate) {
	s.totalsMu.Lock()
	s.totals.accumulate(est)
	s.totalsMu.Unlock()
}

// noteFormulaAnswer records one parametric query answered without a solve.
func (s *Session) noteFormulaAnswer() {
	s.totalsMu.Lock()
	s.totals.FormulaAnswers++
	s.totals.Stats.FormulaEvals++
	s.totalsMu.Unlock()
}

// Totals returns a consistent snapshot of the session's cumulative work
// ledger. It is safe to call concurrently with estimates: completed calls
// are accumulated atomically under the ledger lock, so the snapshot never
// exposes a torn counter or a partially accounted estimate.
func (s *Session) Totals() SessionTotals {
	s.totalsMu.Lock()
	defer s.totalsMu.Unlock()
	return s.totals
}

// dirBase is the annotation-independent half of a solve direction.
type dirBase struct {
	sense       ilp.Sense
	obj         objective
	packedExtra []ilp.PackedRow // the objective's extra rows, lowered once
}

// warmBaseEntry caches one warm-start base tableau with the pivot work its
// one-time solve cost, so only the Estimate that built it is charged.
type warmBaseEntry struct {
	warm   *ilp.WarmStart
	pivots int
}

// cachedSolve is the cutoff-independent outcome of one (direction, loop
// rows, conjunctive set) solve: optimal cycles or infeasibility. Dominated
// and abandoned results are never cached — they depend on the incumbent
// and budget of the run that produced them.
type cachedSolve struct {
	status       ilp.Status
	cycles       int64
	rootIntegral bool
	// certified marks an outcome that was backed by an exact rational check
	// when it was produced. A certifying run only accepts certified hits
	// (an uncertified cached value would smuggle an unchecked claim into a
	// certified report); uncertified runs accept both.
	certified bool
}

// Prepare builds a reusable session for the given root function. The
// returned session retains warm bases, per-set outcomes, and winner counts
// across Estimate calls; see Session.
func Prepare(prog *cfg.Program, root string, opts Options) (*Session, error) {
	s, err := newSession(prog, root, opts)
	if err != nil {
		return nil, err
	}
	s.persist = true
	return s, nil
}

// funcArtifacts is the per-function prepare material newSession fetches —
// content-addressed when the body is keyable, computed directly otherwise.
type funcArtifacts struct {
	costs []march.BlockCost
	tmpl  *prepcache.RowTemplate
}

// linkVals and rootVals are the shared coefficient slices of the linkage
// and root rows of every assembled structural system: a linkage row's
// sorted columns are always [caller f-edge, callee entry edge] (the callee
// context is created after its caller, so its variables number higher),
// giving values [-1, +1]; the root row is a single +1. Read-only.
var (
	linkVals = []float64{-1, 1}
	rootVals = []float64{1}
)

func newSession(prog *cfg.Program, root string, opts Options) (*Session, error) {
	if opts.MaxSets == 0 {
		opts.MaxSets = DefaultOptions().MaxSets
	}
	if opts.MaxContexts == 0 {
		opts.MaxContexts = DefaultOptions().MaxContexts
	}
	if opts.March.Cache.SizeBytes == 0 {
		opts.March = march.DefaultOptions()
	}
	reachable, err := prog.Reachable(root)
	if err != nil {
		return nil, err
	}
	s := &Session{
		Prog:      prog,
		Root:      root,
		Opts:      opts,
		ctxByFunc: map[string][]*Context{},
		ctxChild:  map[[2]int]*Context{},
		costs:     make(map[string][]march.BlockCost, len(reachable)),
	}
	if err := s.expandContexts(root, nil); err != nil {
		return nil, err
	}

	// Variable layout: per context in creation order, block variables then
	// edge variables, contiguously.
	s.ctxOff = make([]int, len(s.contexts))
	s.ctxNB = make([]int, len(s.contexts))
	for i, c := range s.contexts {
		fc := prog.Funcs[c.Func]
		s.ctxOff[i] = s.nVars
		s.ctxNB[i] = len(fc.Blocks)
		s.nVars += len(fc.Blocks) + len(fc.Edges)
	}

	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	// Per-function artifacts — cost tables and packed structural row
	// templates — fetched from the content-addressed cache (or computed on
	// a miss) in parallel across the reachable set. Unreachable functions
	// are skipped entirely: nothing in the model charges them a cost.
	arts := make([]funcArtifacts, len(reachable))
	pc := opts.Artifacts
	if pc == nil {
		pc = prepcache.Default()
	}
	fp := prepcache.MarchFingerprint(opts.March)
	var hits, misses atomic.Int64
	parallelFor(len(reachable), workers, func(i int) {
		name := reachable[i]
		fc := prog.Funcs[name]
		var key prepcache.Key
		ok := false
		if k, found := prog.BodyKeys[name]; found {
			// BuildProgram already content-addressed this body.
			key, ok = prepcache.Key(k), true
		} else if prog.BodyKeys == nil && prog.Exe != nil {
			// Program built directly by cfg.Build: key it here.
			if sym, found := prog.Exe.FunctionNamed(name); found {
				key, ok = prepcache.FuncKey(prog.Exe, sym)
			}
		}
		if !ok {
			arts[i] = funcArtifacts{
				costs: march.CostsOf(fc, opts.March),
				tmpl:  prepcache.BuildRowTemplate(fc),
			}
			return
		}
		var a funcArtifacts
		var hit bool
		a.costs, hit = pc.Costs(key, fp, fc, opts.March)
		if hit {
			hits.Add(1)
		} else {
			misses.Add(1)
		}
		a.tmpl, hit = pc.Rows(key, fc)
		if hit {
			hits.Add(1)
		} else {
			misses.Add(1)
		}
		arts[i] = a
	})
	tmplByFunc := make(map[string]*prepcache.RowTemplate, len(reachable))
	for i, name := range reachable {
		s.costs[name] = arts[i].costs
		tmplByFunc[name] = arts[i].tmpl
	}
	s.artifactHits = hits.Load()
	s.artifactMisses = misses.Load()

	// Assemble the packed structural system by relocating each context's
	// function template to its variable offset, then emitting that
	// context's call-linkage rows, then the root entry row — the exact row
	// and coefficient order of StructuralConstraints lowered through
	// ilp.Pack (relocation adds a uniform offset to already-sorted columns,
	// so the packed invariant is preserved bit for bit). The per-context
	// fills write disjoint slices and run on the worker pool.
	rowOff := make([]int, len(s.contexts)+1)
	nzOff := make([]int, len(s.contexts)+1)
	for i, c := range s.contexts {
		fc := prog.Funcs[c.Func]
		t := tmplByFunc[c.Func]
		rowOff[i+1] = rowOff[i] + len(t.Rows) + len(fc.Calls)
		nzOff[i+1] = nzOff[i] + t.NNZ + 2*len(fc.Calls)
	}
	totalRows, totalNNZ := rowOff[len(s.contexts)], nzOff[len(s.contexts)]
	rows := make([]ilp.PackedRow, totalRows+1)
	colArena := make([]int32, totalNNZ+1)
	parallelFor(len(s.contexts), workers, func(i int) {
		c := s.contexts[i]
		fc := prog.Funcs[c.Func]
		t := tmplByFunc[c.Func]
		nz := t.AppendRelocated(rows, rowOff[i], colArena, nzOff[i], int32(s.ctxOff[i]))
		at := rowOff[i] + len(t.Rows)
		for _, eid := range fc.Calls {
			child := s.ctxChild[[2]int{c.ID, eid}]
			childFC := prog.Funcs[child.Func]
			cols := colArena[nz : nz+2 : nz+2]
			cols[0] = int32(s.edgeVar(c.ID, eid))
			cols[1] = int32(s.edgeVar(child.ID, childFC.EntryEdge))
			nz += 2
			rows[at] = ilp.PackedRow{Cols: cols, Vals: linkVals, Rel: ilp.EQ}
			at++
		}
	})
	rootFC := prog.Funcs[root]
	rootCols := colArena[totalNNZ : totalNNZ+1 : totalNNZ+1]
	rootCols[0] = int32(s.edgeVar(0, rootFC.EntryEdge))
	rows[totalRows] = ilp.PackedRow{Cols: rootCols, Vals: rootVals, Rel: ilp.EQ, RHS: 1}
	s.packedStructural = rows

	// The two direction objectives are independent; overlap them when the
	// session allows concurrency.
	var worst, best objective
	var worstErr, bestErr error
	if workers > 1 {
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			worst, worstErr = s.worstObjective()
		}()
		best, bestErr = s.bestObjective()
		wg.Wait()
	} else {
		worst, worstErr = s.worstObjective()
		best, bestErr = s.bestObjective()
	}
	if worstErr != nil {
		return nil, worstErr
	}
	if bestErr != nil {
		return nil, bestErr
	}
	for _, ds := range []struct {
		sense ilp.Sense
		obj   objective
	}{
		{ilp.Maximize, worst},
		{ilp.Minimize, best},
	} {
		db := dirBase{sense: ds.sense, obj: ds.obj}
		if len(ds.obj.extra) > 0 {
			db.packedExtra = ilp.Pack(ds.obj.extra)
		}
		s.dirBases = append(s.dirBases, db)
	}
	s.baseCache = cache.NewKeyed[string, *warmBaseEntry]()
	s.solveCache = cache.NewKeyed[string, cachedSolve]()
	s.finishCache = cache.NewKeyed[string, []float64]()
	// Seed the ledger with the prepare-time artifact counters so a stats
	// observer sees them alongside the solve counters.
	s.totals.Stats.ArtifactHits = int(s.artifactHits)
	s.totals.Stats.ArtifactMisses = int(s.artifactMisses)
	return s, nil
}

// parallelFor runs body(i) for i in [0, n) on up to workers goroutines.
// Iterations must be independent; with workers <= 1 it degrades to a plain
// loop.
func parallelFor(n, workers int, body func(int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			body(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				body(i)
			}
		}()
	}
	wg.Wait()
}

// numBlockVars is the count of block variables across all contexts — the
// exact size of a direction objective's coefficient map.
func (s *Session) numBlockVars() int {
	n := 0
	for _, nb := range s.ctxNB {
		n += nb
	}
	return n
}

// ArtifactStats reports the content-addressed prepare-artifact traffic of
// this session's Prepare: artifacts served from the process-wide cache vs
// built fresh. The split is what makes re-preparing an evicted or edited
// program cheap — a resubmission should be all hits.
func (s *Session) ArtifactStats() (hits, misses int64) {
	return s.artifactHits, s.artifactMisses
}

// Analyzer binds one set of annotations to the session's shared model. Any
// number of analyzers may coexist; each owns only its annotations and
// memoized solver plan, everything else is the session's.
func (s *Session) Analyzer(file *constraint.File) (*Analyzer, error) {
	a := &Analyzer{Session: s}
	if file != nil {
		if err := a.Apply(file); err != nil {
			return nil, err
		}
	}
	return a, nil
}

// Estimate runs the full analysis for one annotation scenario against the
// session's shared state.
func (s *Session) Estimate(file *constraint.File) (*Estimate, error) {
	return s.EstimateContext(context.Background(), file)
}

// EstimateContext is Estimate with cancellation.
func (s *Session) EstimateContext(ctx context.Context, file *constraint.File) (*Estimate, error) {
	a, err := s.Analyzer(file)
	if err != nil {
		return nil, err
	}
	return a.EstimateContext(ctx)
}

// CacheStats reports the sizes of a prepared session's persistent caches:
// warm base tableaux, distinct per-set outcomes, and winner count vectors.
func (s *Session) CacheStats() (bases, solves, finishes int) {
	return s.baseCache.Len(), s.solveCache.Len(), s.finishCache.Len()
}

// MemoryFootprint estimates the resident bytes a prepared session pins: the
// structural model (variable layout, contexts, packed rows, cost tables)
// plus the persistent caches, dominated by the warm base tableaux (a dense
// m x (n+m) float64 tableau per distinct loop-bound key and direction). The
// figure is an accounting estimate, not an exact heap measurement — it is
// deliberately conservative and monotone in cache growth, which is what an
// eviction policy needs: relative order and growth are faithful even where
// absolute bytes are approximate. Safe for concurrent use.
func (s *Session) MemoryFootprint() int64 {
	const (
		bytesPerVar      = 56 // layout share + per-variable solver bookkeeping
		bytesPerPackedNZ = 12 // one int32 column + one float64 value
		bytesPerRow      = 56 // PackedRow header + slice headers
		bytesPerCtx      = 96
		bytesPerCost     = 24 // march.BlockCost
		bytesPerOutcome  = 160
		bytesPerFinishV  = 8
	)
	base := int64(s.nVars) * bytesPerVar
	base += int64(len(s.contexts)) * bytesPerCtx
	rows := len(s.packedStructural)
	nz := 0
	for i := range s.packedStructural {
		nz += len(s.packedStructural[i].Cols)
	}
	for i := range s.dirBases {
		for j := range s.dirBases[i].packedExtra {
			nz += len(s.dirBases[i].packedExtra[j].Cols)
		}
		rows += len(s.dirBases[i].packedExtra)
	}
	base += int64(rows)*bytesPerRow + int64(nz)*bytesPerPackedNZ
	for _, costs := range s.costs {
		base += int64(len(costs)) * bytesPerCost
	}
	// One warm base retains a dense simplex tableau over the base rows:
	// roughly m x (n + m + 2) float64 cells plus basis bookkeeping, with m
	// the prefix row count and n the variable count.
	m := int64(len(s.packedStructural)) + 16 // + loop-bound rows, estimated
	tableau := m * (int64(s.nVars) + m + 2) * 8
	bases, solves, finishes := s.CacheStats()
	base += int64(bases) * tableau
	base += int64(solves) * bytesPerOutcome
	base += int64(finishes) * (int64(s.nVars)*bytesPerFinishV + 64)
	return base
}

// packedRowsKey serializes lowered rows order-sensitively (names excluded).
// Unlike the canonical set key (keyTable.setKey) it distinguishes row
// order, which matters wherever the identity of the solve — not just the
// feasible region — is cached.
func packedRowsKey(rows []ilp.PackedRow) string {
	var sb strings.Builder
	for _, r := range rows {
		var b [13]byte
		b[0] = byte(r.Rel)
		binary.LittleEndian.PutUint64(b[1:9], math.Float64bits(r.RHS))
		binary.LittleEndian.PutUint32(b[9:13], uint32(len(r.Cols)))
		sb.Write(b[:])
		for k, col := range r.Cols {
			var e [12]byte
			binary.LittleEndian.PutUint32(e[:4], uint32(col))
			binary.LittleEndian.PutUint64(e[4:], math.Float64bits(r.Vals[k]))
			sb.Write(e[:])
		}
	}
	return sb.String()
}

// baseKey identifies a warm base: direction plus the exact loop-bound rows
// appended to the structural prefix.
func baseKey(di int, loopKey string) string {
	return strconv.Itoa(di) + "|" + loopKey
}
