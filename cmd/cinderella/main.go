// Command cinderella is the timing analyzer of the paper (Section V): it
// compiles an MC program (or assembles CR32 assembly), reconstructs the
// control flow graphs, derives the structural constraints, combines them
// with the user's functionality annotations, and reports the estimated
// running-time bound [BCET, WCET] in cycles together with per-block costs
// and the extreme-case execution counts.
//
//	cinderella -src prog.mc -root f -annot prog.ann
//	cinderella -src prog.mc -root f -list          # annotated listing
//	cinderella -bench check_data -stats            # built-in Table I row + solver counters
//	cinderella -table1 -table2 -table3 -stats      # reproduce the tables
//
// Repeating -annot (or giving -scenarios, a file listing annotation files
// one per line) switches to batch mode: the front end and solver state are
// prepared once, and every annotation scenario is estimated off that shared
// session — the paper's annotate/solve/refine loop without re-paying the
// setup per query:
//
//	cinderella -src prog.mc -annot a.ann -annot b.ann -stats
//	cinderella -src prog.mc -scenarios scenarios.txt
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"cinderella/internal/asm"
	"cinderella/internal/autobound"
	"cinderella/internal/bench"
	"cinderella/internal/cc"
	"cinderella/internal/cfg"
	"cinderella/internal/constraint"
	"cinderella/internal/ipet"
	"cinderella/internal/isa"
	"cinderella/internal/prepcache"
)

func main() {
	var (
		srcPath   = flag.String("src", "", "MC source file to analyze")
		asmPath   = flag.String("asm", "", "CR32 assembly file to analyze")
		root      = flag.String("root", "main", "function whose bound is estimated")
		scenarios = flag.String("scenarios", "", "file listing annotation files, one per line; each line is a scenario estimated off one shared session")
		list      = flag.Bool("list", false, "print the annotated CFG listing and exit")
		dumpLP    = flag.Bool("lp", false, "print the integer linear programs instead of solving")
		split     = flag.Bool("split", false, "enable first-iteration cache splitting (Section IV)")
		auto      = flag.Bool("autobound", false, "derive counted-loop bounds automatically (Section VII future work)")
		optimize  = flag.Bool("O", false, "compile -src with the peephole optimizer")
		noPrune   = flag.Bool("noprune", false, "disable null constraint-set pruning")
		benchName = flag.String("bench", "", "analyze a built-in Table I benchmark")
		table1    = flag.Bool("table1", false, "print the Table I analog for the benchmark suite")
		table2    = flag.Bool("table2", false, "print the Table II analog (estimated vs calculated)")
		table3    = flag.Bool("table3", false, "print the Table III analog (estimated vs measured)")
		stats     = flag.Bool("stats", false, "print ILP solver statistics (suite-wide without a program, per-estimate with one)")
		workers   = flag.Int("j", 0, "concurrent ILP solves across constraint sets (0 = GOMAXPROCS, 1 = sequential)")
		deadline  = flag.Duration("deadline", 0, "wall-clock budget for the solve phase; on expiry report a sound envelope instead of failing")
		budget    = flag.Int("budget", 0, "total simplex-pivot budget across all solves; deterministic anytime cutoff (0 = unlimited)")
		maxSets   = flag.Int("max-sets", 0, "cap on constraint sets; overflowing disjunctions are soundly widened instead of rejected (0 = default cap, fail on overflow)")
		certify   = flag.Bool("certify", false, "back every bound with an exact rational check: verify each solve's optimality certificate by a sparse exact solve (int64 fractions, promoted to big.Rat on overflow) and re-solve unverifiable claims with an exact rational simplex")
		mhz       = flag.Float64("mhz", 20, "clock frequency used to report times (the QT960 runs at 20 MHz)")
		profile   = flag.String("profile", "i960kb", "processor timing profile (i960kb, dsp3210)")
		param     = flag.String("param", "", "treat annotation symbols as parameters with domains, e.g. n1=1..100,n2=0..8; prints the piecewise-linear bound formula")
		sweep     = flag.Bool("sweep", false, "with -param, tabulate the bound at every integer point of the parameter domain")
	)
	var annotPaths multiFlag
	flag.Var(&annotPaths, "annot", "functionality annotation file (repeat for batch mode: each file is one scenario)")
	flag.Parse()

	timing, ok := isa.Profiles()[*profile]
	if !ok {
		fatal(fmt.Errorf("unknown timing profile %q (have i960kb, dsp3210)", *profile))
	}

	opts := ipet.DefaultOptions()
	opts.SplitFirstIteration = *split
	opts.PruneNullSets = !*noPrune
	opts.Workers = *workers
	opts.March.Timing = timing
	opts.Deadline = *deadline
	opts.Budget = *budget
	opts.Certify = *certify
	if *maxSets > 0 {
		opts.MaxSets = *maxSets
		opts.WidenSets = true
	}

	singleRun := *srcPath != "" || *asmPath != "" || *benchName != ""
	if *table1 || *table2 || *table3 || (*stats && !singleRun) {
		rows, err := bench.RunAll(opts)
		if err != nil {
			fatal(err)
		}
		if *table1 {
			bench.WriteTableI(os.Stdout, rows)
			fmt.Println()
		}
		if *table2 {
			bench.WriteTableII(os.Stdout, rows)
			fmt.Println()
		}
		if *table3 {
			bench.WriteTableIII(os.Stdout, rows)
			fmt.Println()
		}
		if *stats {
			bench.WriteSolverStats(os.Stdout, rows)
		}
		return
	}

	var (
		exe      *asm.Executable
		annots   string
		analyzed = *root
	)
	switch {
	case *benchName != "":
		b, ok := bench.ByName(*benchName)
		if !ok {
			fatal(fmt.Errorf("unknown benchmark %q (have %v)", *benchName, names()))
		}
		var err error
		exe, _, err = cc.Build(b.Source)
		if err != nil {
			fatal(err)
		}
		annots = b.Annotations
		analyzed = b.Root
	case *srcPath != "":
		srcText, err := os.ReadFile(*srcPath)
		if err != nil {
			fatal(err)
		}
		build := cc.Build
		if *optimize {
			build = cc.BuildOptimized
		}
		exe, _, err = build(string(srcText))
		if err != nil {
			fatal(err)
		}
	case *asmPath != "":
		asmText, err := os.ReadFile(*asmPath)
		if err != nil {
			fatal(err)
		}
		exe, err = asm.Assemble(string(asmText))
		if err != nil {
			fatal(err)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}

	// Same content-addressed front end the server uses: a one-shot run only
	// ever misses, but routing through it keeps the CLI and cinderelld on
	// one code path (and -stats can report the artifact traffic).
	prog, err := prepcache.Default().BuildProgram(exe)
	if err != nil {
		fatal(err)
	}

	scenarioPaths := append([]string(nil), annotPaths...)
	if *scenarios != "" {
		listed, err := readScenarioList(*scenarios)
		if err != nil {
			fatal(err)
		}
		scenarioPaths = append(scenarioPaths, listed...)
	}
	if len(scenarioPaths) > 1 {
		if *list || *dumpLP || *param != "" {
			fatal(fmt.Errorf("batch mode (repeated -annot or -scenarios) is incompatible with -list, -lp, and -param"))
		}
		runBatch(prog, analyzed, opts, scenarioPaths, *auto, *stats, *mhz)
		return
	}

	an, err := ipet.New(prog, analyzed, opts)
	if err != nil {
		fatal(err)
	}
	annotName := "annotations"
	if len(scenarioPaths) == 1 {
		text, err := os.ReadFile(scenarioPaths[0])
		if err != nil {
			fatal(err)
		}
		annots = string(text)
		annotName = scenarioPaths[0]
	}
	var files []*constraint.File
	if annots != "" {
		// ParseNamed stamps the file name and line numbers so annotation
		// errors surface as file:line diagnostics.
		file, err := constraint.ParseNamed(annotName, annots)
		if err != nil {
			fatal(err)
		}
		files = append(files, file)
	}
	if *auto {
		res := autobound.Derive(prog)
		for _, db := range res.Bounds {
			fmt.Printf("autobound: %s loop %d: %d .. %d  (%s)\n", db.Func, db.Loop, db.Lo, db.Hi, db.Why)
		}
		var skipped []string
		for k := range res.Skipped {
			skipped = append(skipped, k)
		}
		sort.Strings(skipped)
		for _, k := range skipped {
			fmt.Printf("autobound: %s not derived: %s\n", k, res.Skipped[k])
		}
		files = append(files, res.File())
	}
	if *param != "" {
		if *list || *dumpLP {
			fatal(fmt.Errorf("-param is incompatible with -list and -lp"))
		}
		specs, err := parseParamSpecs(*param)
		if err != nil {
			fatal(err)
		}
		if len(files) == 0 {
			fatal(fmt.Errorf("-param needs annotations that mention the symbols (use -annot)"))
		}
		runParam(an.Session, constraint.Merge(files...), specs, *sweep, *stats, *mhz, analyzed)
		return
	}
	if *sweep {
		fatal(fmt.Errorf("-sweep requires -param"))
	}
	if len(files) > 0 {
		if err := an.Apply(constraint.Merge(files...)); err != nil {
			fatal(err)
		}
	}

	if *dumpLP {
		if err := an.DumpILP(os.Stdout); err != nil {
			fatal(err)
		}
		return
	}
	if *list {
		fmt.Print(an.AnnotatedListing())
		if missing := an.MissingLoopBounds(); len(missing) > 0 {
			fmt.Println("loops still needing bounds:")
			for _, m := range missing {
				fmt.Println("  " + m)
			}
		}
		return
	}

	if missing := an.MissingLoopBounds(); len(missing) > 0 {
		fmt.Fprintln(os.Stderr, "cinderella: the following loops have no bound annotation:")
		for _, m := range missing {
			fmt.Fprintln(os.Stderr, "  "+m)
		}
		fmt.Fprintln(os.Stderr, "provide them in an annotation file (-annot); run -list for the numbering")
		os.Exit(1)
	}

	est, err := an.Estimate()
	if err != nil {
		fatal(estimateErr(err))
	}
	printReport(an.Session, est, analyzed, *mhz, *stats)
}

// estimateErr expands the typed infeasibility error with advice: total
// infeasibility means the annotations contradict each other or the control
// flow, which the user fixes in the annotation file, not the program.
func estimateErr(err error) error {
	var ie *ipet.InfeasibleError
	if errors.As(err, &ie) {
		return fmt.Errorf("%w\nthe functionality annotations admit no execution at all — check them for contradictory facts (run -lp to see the constraint sets)", err)
	}
	return err
}

// printReport writes one estimate's report: the bound, solver summary, and
// extreme-case counts. Shared by the single-run and batch paths.
func printReport(sess *ipet.Session, est *ipet.Estimate, analyzed string, mhz float64, stats bool) {
	fmt.Printf("function %s: estimated bound [%d, %d] cycles", analyzed, est.BCET.Cycles, est.WCET.Cycles)
	if mhz > 0 {
		fmt.Printf("  ([%.1f, %.1f] us at %g MHz)",
			float64(est.BCET.Cycles)/mhz, float64(est.WCET.Cycles)/mhz, mhz)
	}
	fmt.Println()
	if !est.WCET.Exact || !est.BCET.Exact {
		fmt.Printf("bound is a sound envelope, not exact: WCET exact=%v slack=%s, BCET exact=%v slack=%s\n",
			est.WCET.Exact, slackString(est.WCET.Slack), est.BCET.Exact, slackString(est.BCET.Slack))
	}
	if est.WCET.Certified || est.BCET.Certified {
		fmt.Printf("certified: every claim verified in exact rational arithmetic (%d rechecked exactly, %d certificate failures, %d suspect pivots)\n",
			est.WCET.RecheckedSets+est.BCET.RecheckedSets, est.Stats.CertFailures, est.Stats.SuspectPivots)
	}
	fmt.Printf("functionality constraint sets: %d generated, %d null pruned, %d solved\n",
		est.NumSets, est.PrunedSets, est.SolvedSets)
	fmt.Printf("ILP: %d LP calls, %d branch-and-bound nodes, root integral: %v\n",
		est.LPSolves, est.Branches, est.AllRootIntegral)
	if stats {
		s := est.Stats
		fmt.Printf("solver: sets %d total, %d null-pruned, %d deduped, %d incumbent-skipped, %d cache hits, %d solved\n",
			s.SetsTotal, s.PrunedNull, s.Deduped, s.IncumbentSkipped, s.CacheHits, s.Solved)
		fmt.Printf("solver: %d warm dual-simplex solves, %d cold solves, %d simplex pivots\n",
			s.WarmSolves, s.ColdSolves, s.Pivots)
		fmt.Printf("solver: %d revised-kernel pivots, %d refactorizations\n",
			s.RevisedPivots, s.Refactorizations)
		if s.ExactResolves > 0 {
			fmt.Printf("certify: %d exact re-solves (%v)\n", s.ExactResolves, s.Resolves)
		}
		fmt.Printf("solver: build %s, solve %s\n",
			s.BuildTime.Round(time.Microsecond), s.SolveTime.Round(time.Microsecond))
		if s.FormulaEvals > 0 || s.ParamFallbacks > 0 {
			fmt.Printf("solver: %d formula evals, %d parametric regions, %d concrete fallbacks\n",
				s.FormulaEvals, s.ParamRegions, s.ParamFallbacks)
		}
		if s.SetsWidened > 0 || s.SetsUnsolved > 0 || s.DeadlineHit {
			fmt.Printf("solver: %d sets widened, %d sets unsolved, deadline hit: %v\n",
				s.SetsWidened, s.SetsUnsolved, s.DeadlineHit)
		}
		if h, m := sess.ArtifactStats(); h+m > 0 {
			art := prepcache.Default().Snapshot()
			fmt.Printf("prepare: %d artifact hits, %d misses (process cache: %d entries, %d KiB)\n",
				h, m, art.Entries, art.Bytes/1024)
		}
	}

	fmt.Println("\nworst-case block counts and costs:")
	printCounts(sess, est.WCET.Counts)
	fmt.Println("\nbest-case block counts:")
	printCounts(sess, est.BCET.Counts)
}

// runBatch estimates every annotation scenario off one prepared session:
// the CFGs, structural constraints, cost model, and lowered solver rows are
// built once, and scenarios that share loop bounds or constraint sets reuse
// each other's solves through the session caches.
func runBatch(prog *cfg.Program, analyzed string, opts ipet.Options, paths []string, auto, stats bool, mhz float64) {
	sess, err := ipet.Prepare(prog, analyzed, opts)
	if err != nil {
		fatal(err)
	}
	var base []*constraint.File
	if auto {
		res := autobound.Derive(prog)
		for _, db := range res.Bounds {
			fmt.Printf("autobound: %s loop %d: %d .. %d  (%s)\n", db.Func, db.Loop, db.Lo, db.Hi, db.Why)
		}
		base = append(base, res.File())
	}
	for i, path := range paths {
		text, err := os.ReadFile(path)
		if err != nil {
			fatal(err)
		}
		file, err := constraint.ParseNamed(path, string(text))
		if err != nil {
			fatal(err)
		}
		files := append(append([]*constraint.File{}, base...), file)
		an, err := sess.Analyzer(constraint.Merge(files...))
		if err != nil {
			fatal(fmt.Errorf("%s: %w", path, err))
		}
		if missing := an.MissingLoopBounds(); len(missing) > 0 {
			fatal(fmt.Errorf("%s: loops without bound annotations: %s", path, strings.Join(missing, "; ")))
		}
		est, err := an.Estimate()
		if err != nil {
			fatal(fmt.Errorf("%s: %w", path, estimateErr(err)))
		}
		if i > 0 {
			fmt.Println()
		}
		fmt.Printf("== scenario %d/%d: %s\n", i+1, len(paths), path)
		printReport(sess, est, analyzed, mhz, stats)
	}
	if stats {
		bases, solves, finishes := sess.CacheStats()
		fmt.Printf("\nsession caches: %d warm bases, %d set outcomes, %d count vectors\n", bases, solves, finishes)
	}
}

// parseParamSpecs parses the -param value: comma-separated name=lo..hi
// domain declarations, one per annotation symbol.
func parseParamSpecs(s string) ([]ipet.ParamSpec, error) {
	var specs []ipet.ParamSpec
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, rng, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("-param %q: want name=lo..hi (e.g. n1=1..100)", part)
		}
		loStr, hiStr, ok := strings.Cut(rng, "..")
		if !ok {
			return nil, fmt.Errorf("-param %q: want name=lo..hi (e.g. n1=1..100)", part)
		}
		lo, err := strconv.ParseInt(strings.TrimSpace(loStr), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("-param %q: bad lower end: %v", part, err)
		}
		hi, err := strconv.ParseInt(strings.TrimSpace(hiStr), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("-param %q: bad upper end: %v", part, err)
		}
		specs = append(specs, ipet.ParamSpec{Name: strings.TrimSpace(name), Lo: lo, Hi: hi})
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("-param: no parameter domains given")
	}
	return specs, nil
}

// runParam builds the piecewise-linear bound formula once and prints it;
// with -sweep it then tabulates the bound at every point of the domain —
// each point is a formula evaluation, not a solver run, unless the point
// falls in a coverage hole and takes the concrete fallback.
func runParam(sess *ipet.Session, file *constraint.File, specs []ipet.ParamSpec, sweep, stats bool, mhz float64, analyzed string) {
	start := time.Now()
	pb, err := sess.Parametrize(file, specs)
	if err != nil {
		fatal(estimateErr(err))
	}
	elapsed := time.Since(start)
	var doms []string
	for _, sp := range specs {
		doms = append(doms, fmt.Sprintf("%s=%d..%d", sp.Name, sp.Lo, sp.Hi))
	}
	fmt.Printf("function %s: parametric bound over %s\n", analyzed, strings.Join(doms, ", "))
	fmt.Println(pb.Describe())
	if pb.Certified() {
		fmt.Println("certified: every region's basis re-verified in exact rational arithmetic")
	}
	if stats {
		// The duration is wall-clock, so it lives behind -stats like the
		// build/solve timing line: plain runs stay byte-identical across -j.
		st := pb.Stats()
		fmt.Printf("enumeration: %d region(s) in %s (%d parametric solves, %d pivots, %d pieces rejected)\n",
			st.ParamRegions, elapsed.Round(time.Microsecond), st.EnumSolves, st.EnumPivots, st.RejectedPieces)
	}
	if sweep {
		sweepDomain(pb, specs, mhz)
	}
	if stats {
		st := pb.Stats()
		fmt.Printf("parametric: %d formula evals, %d concrete fallbacks\n", st.FormulaEvals, st.ParamFallbacks)
	}
}

// maxSweepPoints caps -sweep output; past it the user should narrow the
// domains (the formula itself has no such limit).
const maxSweepPoints = 4096

func sweepDomain(pb *ipet.ParamBound, specs []ipet.ParamSpec, mhz float64) {
	total := int64(1)
	for _, sp := range specs {
		total *= sp.Hi - sp.Lo + 1
		if total > maxSweepPoints {
			fatal(fmt.Errorf("-sweep: domain has more than %d points — narrow the -param ranges", maxSweepPoints))
		}
	}
	fmt.Printf("\nsweep over %d point(s):\n", total)
	point := make([]int64, len(specs))
	for k := range point {
		point[k] = specs[k].Lo
	}
	for {
		var parts []string
		for k, sp := range specs {
			parts = append(parts, fmt.Sprintf("%s=%d", sp.Name, point[k]))
		}
		label := strings.Join(parts, " ")
		est, err := pb.EstimateAt(point)
		switch {
		case err != nil:
			var ie *ipet.InfeasibleError
			if !errors.As(err, &ie) {
				fatal(fmt.Errorf("sweep %s: %w", label, err))
			}
			fmt.Printf("  %-24s infeasible\n", label)
		default:
			src := "formula"
			if est.Stats.ParamFallbacks > 0 {
				src = "fallback"
			}
			line := fmt.Sprintf("  %-24s bound [%d, %d] cycles", label, est.BCET.Cycles, est.WCET.Cycles)
			if mhz > 0 {
				line += fmt.Sprintf("  ([%.1f, %.1f] us)", float64(est.BCET.Cycles)/mhz, float64(est.WCET.Cycles)/mhz)
			}
			fmt.Printf("%s  (%s)\n", line, src)
		}
		k := len(point) - 1
		for ; k >= 0; k-- {
			point[k]++
			if point[k] <= specs[k].Hi {
				break
			}
			point[k] = specs[k].Lo
		}
		if k < 0 {
			break
		}
	}
}

// readScenarioList parses a -scenarios file: one annotation file path per
// line, blank lines and #-comments ignored.
func readScenarioList(path string) ([]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		out = append(out, line)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// multiFlag collects the values of a repeatable string flag.
type multiFlag []string

func (m *multiFlag) String() string { return strings.Join(*m, ",") }

func (m *multiFlag) Set(v string) error {
	*m = append(*m, v)
	return nil
}

// slackString renders a BoundReport.Slack for the user: -1 means the
// envelope has no exactly-solved witness to measure distance from.
func slackString(s int64) string {
	if s < 0 {
		return "unknown"
	}
	return fmt.Sprintf("%d", s)
}

func printCounts(sess *ipet.Session, counts map[string][]int64) {
	if counts == nil {
		fmt.Println("  (none: bound is a relaxation envelope with no witness path)")
		return
	}
	var fns []string
	for fn := range counts {
		fns = append(fns, fn)
	}
	sort.Strings(fns)
	for _, fn := range fns {
		costs := sess.BlockCosts(fn)
		for i, n := range counts[fn] {
			if n == 0 {
				continue
			}
			fmt.Printf("  %s.x%-3d count %-8d cost [%d, %d]\n", fn, i+1, n, costs[i].Best, costs[i].Worst)
		}
	}
}

func names() []string {
	var out []string
	for _, b := range bench.All() {
		out = append(out, b.Name)
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cinderella:", err)
	os.Exit(1)
}
