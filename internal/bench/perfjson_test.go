package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"cinderella/internal/asm"
	"cinderella/internal/cc"
	"cinderella/internal/cfg"
	"cinderella/internal/constraint"
	"cinderella/internal/ipet"
)

// estimateWorkload is one named analyzer the perf artifact measures.
type estimateWorkload struct {
	name string
	an   *ipet.Analyzer
}

// explosionProgram builds the n-diamond path-explosion chain (2^n
// functionality sets) as a CFG plus annotation text; the generator itself
// is the exported ExplosionAsm.
func explosionProgram(n int) (*cfg.Program, string, error) {
	asmText, annots := ExplosionAsm(n)
	exe, err := asm.Assemble(asmText)
	if err != nil {
		return nil, "", err
	}
	prog, err := cfg.Build(exe)
	if err != nil {
		return nil, "", err
	}
	return prog, annots, nil
}

// explosionWorkload is explosionProgram wrapped as a one-shot analyzer.
func explosionWorkload(n int, opts ipet.Options) (*ipet.Analyzer, error) {
	prog, annots, err := explosionProgram(n)
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

// perfWorkloads builds the analyzers the perf artifact and the CI
// pivot-regression gate both measure: dhry, des and the 64-set
// path-explosion chain, each plain (/incremental) and certified.
func perfWorkloads(t *testing.T) []estimateWorkload {
	t.Helper()
	opts := ipet.DefaultOptions()
	opts.Workers = 1
	var workloads []estimateWorkload
	for _, name := range []string{"dhry", "des"} {
		bm, ok := ByName(name)
		if !ok {
			t.Fatalf("unknown benchmark %q", name)
		}
		o := opts
		o.PruneNullSets = false // dhry presents all 8 sets
		bt, err := bm.Build(o)
		if err != nil {
			t.Fatal(err)
		}
		workloads = append(workloads, estimateWorkload{name + "/incremental", bt.An})
	}
	an, err := explosionWorkload(6, opts)
	if err != nil {
		t.Fatal(err)
	}
	workloads = append(workloads, estimateWorkload{"explosion64/incremental", an})
	// Certified rows: the incremental configuration plus the exact-rational
	// verification layer, so the artifact records certification overhead
	// against the matching /incremental row.
	certOpts := opts
	certOpts.Certify = true
	certOpts.PruneNullSets = false
	for _, name := range []string{"dhry", "des"} {
		bm, ok := ByName(name)
		if !ok {
			t.Fatalf("unknown benchmark %q", name)
		}
		bt, err := bm.Build(certOpts)
		if err != nil {
			t.Fatal(err)
		}
		workloads = append(workloads, estimateWorkload{name + "/certified", bt.An})
	}
	exOpts := opts
	exOpts.Certify = true
	exAn, err := explosionWorkload(6, exOpts)
	if err != nil {
		t.Fatal(err)
	}
	workloads = append(workloads, estimateWorkload{"explosion64/certified", exAn})
	return workloads
}

// TestWriteEstimateBenchJSON checks the perf workloads and, when
// $CINDERELLA_BENCH_JSON names an artifact path (CI and refresh runs),
// measures their steady-state cost and writes the rows to it. Every run
// checks, each on single Estimate calls: each /incremental row reports the
// bounds of the exhaustive reference (ipet.Analyzer.ExhaustiveEstimate)
// and, on the 64-set workload, spends at most half its simplex pivots;
// each /certified row is certified, with no certificate failures, at the
// bounds of its /incremental twin; the session rows' reports match the
// one-shot path's at a third of its pivots (sessionRows); the prepare rows'
// artifact-cache hits and misses are exact (prepareRows); and the rows
// round-trip through the artifact schema (in a temp dir when no path is
// set). Only a run that writes the artifact runs the timing loops and adds
// the parametric and compile rows, whose own gates run elsewhere
// (TestParametricSweepGate, TestEstimatePivotRegressionVsCommitted).
func TestWriteEstimateBenchJSON(t *testing.T) {
	path := os.Getenv("CINDERELLA_BENCH_JSON")
	timed := path != ""
	if timed && testing.Short() {
		t.Skip("runs timed benchmarks")
	}
	workloads := perfWorkloads(t)

	recs := make([]EstimatePerf, 0, len(workloads))
	refs := map[string]*ipet.Estimate{}
	for _, w := range workloads {
		if strings.HasSuffix(w.name, "/incremental") {
			ref, err := w.an.ExhaustiveEstimate()
			if err != nil {
				t.Fatal(err)
			}
			refs[strings.TrimSuffix(w.name, "/incremental")] = ref
		}
		rec := EstimatePerf{Name: w.name}
		var est *ipet.Estimate
		if timed {
			res := testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					var err error
					est, err = w.an.Estimate()
					if err != nil {
						b.Fatal(err)
					}
				}
			})
			rec.NsPerOp, rec.AllocsPerOp = float64(res.NsPerOp()), float64(res.AllocsPerOp())
		} else {
			var err error
			if est, err = w.an.Estimate(); err != nil {
				t.Fatal(err)
			}
		}
		rec.FillFromEstimate(est)
		recs = append(recs, rec)
	}

	byName := map[string]EstimatePerf{}
	for _, r := range recs {
		byName[r.Name] = r
	}
	coldP, incrP := refs["explosion64"].Stats.Pivots, byName["explosion64/incremental"].Pivots
	if incrP*2 > coldP {
		t.Errorf("explosion64 pivots: exhaustive %d, incremental %d — want at least a 2x reduction", coldP, incrP)
	}
	for _, name := range []string{"dhry", "des", "explosion64"} {
		ref, i := refs[name], byName[name+"/incremental"]
		if ref.WCET.Cycles != i.WCET || ref.BCET.Cycles != i.BCET {
			t.Errorf("%s: incremental bound [%d,%d] != exhaustive [%d,%d]",
				name, i.BCET, i.WCET, ref.BCET.Cycles, ref.WCET.Cycles)
		}
	}
	for _, name := range []string{"dhry", "des", "explosion64"} {
		u, c := byName[name+"/incremental"], byName[name+"/certified"]
		if !c.Certified {
			t.Errorf("%s/certified row is not certified: %+v", name, c)
		}
		if c.WCET != u.WCET || c.BCET != u.BCET {
			t.Errorf("%s: certified bound [%d,%d] != uncertified [%d,%d]",
				name, c.BCET, c.WCET, u.BCET, u.WCET)
		}
		if c.CertFailures != 0 {
			t.Errorf("%s/certified: %d certificate failures on a healthy solver", name, c.CertFailures)
		}
	}

	recs = append(recs, sessionRows(t, timed)...)
	if timed {
		recs = append(recs, parametricRows(t)...)
	}
	recs = append(recs, prepareRows(t, timed)...)
	if timed {
		recs = append(recs, compileRows(t)...)
	} else {
		path = filepath.Join(t.TempDir(), "BENCH_estimate.json")
	}
	if err := WriteEstimatePerfFile(path, recs); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back []EstimatePerf
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("artifact does not round-trip: %v", err)
	}
	if !reflect.DeepEqual(back, recs) {
		t.Fatalf("artifact does not round-trip: read back %d rows, wrote %d", len(back), len(recs))
	}
	t.Logf("wrote %s (%d rows); explosion64 pivots exhaustive %d -> incremental %d",
		path, len(recs), coldP, incrP)
}

// compileWorkload is one front-end row of the perf artifact: compiling a
// Table I program to an executable image, plain or peephole-optimized.
type compileWorkload struct {
	name  string
	src   string
	build func(string) (*asm.Executable, *cc.Program, error)
}

func compileWorkloads(t *testing.T) []compileWorkload {
	t.Helper()
	src := func(name string) string {
		bm, ok := ByName(name)
		if !ok {
			t.Fatalf("unknown benchmark %q", name)
		}
		return bm.Source
	}
	return []compileWorkload{
		{"dhry/compile", src("dhry"), cc.Build},
		{"jpeg_idct_islow/compile", src("jpeg_idct_islow"), cc.Build},
		{"dhry/compile-O", src("dhry"), cc.BuildOptimized},
	}
}

// compileRows measures ns/op and allocs/op of the compile workloads.
func compileRows(t *testing.T) []EstimatePerf {
	t.Helper()
	var rows []EstimatePerf
	for _, w := range compileWorkloads(t) {
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := w.build(w.src); err != nil {
					b.Fatal(err)
				}
			}
		})
		rows = append(rows, EstimatePerf{
			Name:        w.name,
			NsPerOp:     float64(res.NsPerOp()),
			AllocsPerOp: float64(res.AllocsPerOp()),
		})
	}
	return rows
}

// TestCertifiedBenchmarksIdentical is the certification bit-identity gate
// on the real Table I programs: a certified analysis of every one of them
// must report exactly the bounds, counts, and winning sets of the
// uncertified one at every worker count — the exact layer only confirms,
// never moves, a healthy solver's answer. fullsearch, recon, fft and matgen
// carry the bases whose exact solve needs elimination with fill.
func TestCertifiedBenchmarksIdentical(t *testing.T) {
	all := All()
	if len(all) != len(tableIOrder) {
		t.Fatalf("registry has %d benchmarks, Table I has %d", len(all), len(tableIOrder))
	}
	for _, bm := range all {
		name := bm.Name
		plainOpts := ipet.DefaultOptions()
		plainOpts.Workers = 1
		plainBuilt, err := bm.Build(plainOpts)
		if err != nil {
			t.Fatal(err)
		}
		plain := plainBuilt.Est
		for _, workers := range []int{1, 4} {
			opts := ipet.DefaultOptions()
			opts.Workers = workers
			opts.Certify = true
			bt, err := bm.Build(opts)
			if err != nil {
				t.Fatal(err)
			}
			cert := bt.Est
			if !cert.WCET.Certified || !cert.BCET.Certified {
				t.Errorf("%s workers=%d: bounds not certified: %+v / %+v",
					name, workers, cert.WCET, cert.BCET)
			}
			if cert.Stats.CertFailures != 0 {
				t.Errorf("%s workers=%d: %d certificate failures on a healthy solver",
					name, workers, cert.Stats.CertFailures)
			}
			// Strip the certificate-layer fields; everything else must match.
			w, b := cert.WCET, cert.BCET
			w.Certified, w.RecheckedSets = false, 0
			b.Certified, b.RecheckedSets = false, 0
			if !reflect.DeepEqual(w, plain.WCET) || !reflect.DeepEqual(b, plain.BCET) {
				t.Errorf("%s workers=%d: certified report diverges from uncertified:\ncert WCET:  %+v\nplain WCET: %+v\ncert BCET:  %+v\nplain BCET: %+v",
					name, workers, w, plain.WCET, b, plain.BCET)
			}
		}
	}
}

// TestCertifiedResolveCauses pins the cause split of exact re-solves on
// dhry with null-set pruning off: its five null sets make infeasibility
// claims in both directions, which carry no certificate, so all ten
// re-solves count as infeasible.
func TestCertifiedResolveCauses(t *testing.T) {
	bm, ok := ByName("dhry")
	if !ok {
		t.Fatal("unknown benchmark dhry")
	}
	opts := ipet.DefaultOptions()
	opts.Workers = 1
	opts.Certify = true
	opts.PruneNullSets = false
	bt, err := bm.Build(opts)
	if err != nil {
		t.Fatal(err)
	}
	s := bt.Est.Stats
	if want := (ipet.ResolveCauses{Infeasible: 10}); s.ExactResolves != 10 || s.Resolves != want {
		t.Errorf("dhry: %d exact resolves by cause {%v}, want 10, all infeasible", s.ExactResolves, s.Resolves)
	}
}

// TestCertifiedSingleSetWork: a certified estimate of a one-set Table I
// program runs on the presolved warm bases of the uncertified one and
// finishes its winners from the same solves, so at Workers=1 it spends
// exactly the uncertified run's simplex pivots, warm solves and cold
// solves; the exact layer adds checks, never solves.
func TestCertifiedSingleSetWork(t *testing.T) {
	single := 0
	for _, bm := range All() {
		run := func(certify bool) ipet.Stats {
			opts := ipet.DefaultOptions()
			opts.Workers = 1
			opts.Certify = certify
			bt, err := bm.Build(opts)
			if err != nil {
				t.Fatal(err)
			}
			return bt.Est.Stats
		}
		plain := run(false)
		if plain.SetsTotal != 1 {
			continue
		}
		single++
		cert := run(true)
		if cert.Pivots != plain.Pivots || cert.WarmSolves != plain.WarmSolves || cert.ColdSolves != plain.ColdSolves {
			t.Errorf("%s: certified %d pivots, %d warm, %d cold solves; uncertified %d, %d, %d",
				bm.Name, cert.Pivots, cert.WarmSolves, cert.ColdSolves, plain.Pivots, plain.WarmSolves, plain.ColdSolves)
		}
		if cert.ExactResolves != 0 || cert.CertFailures != 0 {
			t.Errorf("%s: certified run made %d exact re-solves, %d certificate failures", bm.Name, cert.ExactResolves, cert.CertFailures)
		}
	}
	if single != 11 {
		t.Errorf("%d one-set Table I programs, want 11", single)
	}
}

// sessionRows checks the prepared-session workflow: one session estimates
// a two-scenario rotation (the benchmark's annotations and a one-disjunct
// perturbation) after warm-up, against the one-shot path that rebuilds an
// Analyzer from the CFG for every query. The warm session's BoundReports
// must be bit-identical to the one-shot's, at least 3x cheaper in simplex
// pivots and, when timed, in ns/op.
func sessionRows(t *testing.T, timed bool) []EstimatePerf {
	t.Helper()
	workloads, opts := sessionBenchWorkloads(t)
	var rows []EstimatePerf
	for _, w := range workloads {
		files := w.files
		oneShot := func(si int) *ipet.Estimate {
			an, err := ipet.New(w.prog, w.root, opts)
			if err != nil {
				t.Fatal(err)
			}
			if err := an.Apply(files[si]); err != nil {
				t.Fatal(err)
			}
			est, err := an.Estimate()
			if err != nil {
				t.Fatal(err)
			}
			return est
		}
		ans, warm := warmSession(t, w, opts)
		ref := [2]*ipet.Estimate{oneShot(0), oneShot(1)}
		for si := range files {
			if !reflect.DeepEqual(warm[si].WCET, ref[si].WCET) || !reflect.DeepEqual(warm[si].BCET, ref[si].BCET) {
				t.Errorf("%s scenario %d: session report diverges from one-shot: [%d,%d] vs [%d,%d]",
					w.name, si, warm[si].BCET.Cycles, warm[si].WCET.Cycles, ref[si].BCET.Cycles, ref[si].WCET.Cycles)
			}
		}
		warmPivots := warm[0].Stats.Pivots + warm[1].Stats.Pivots
		coldPivots := ref[0].Stats.Pivots + ref[1].Stats.Pivots
		if warmPivots*3 > coldPivots {
			t.Errorf("%s: warm session pivots %d vs one-shot %d — want at least a 3x reduction",
				w.name, warmPivots, coldPivots)
		}

		oneRow := EstimatePerf{Name: w.name + "/oneshot"}
		oneRow.FillFromEstimate(ref[1])
		sessRow := EstimatePerf{Name: w.name + "/session"}
		sessRow.FillFromEstimate(warm[1])
		if timed {
			sessRes := testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := ans[i%2].Estimate(); err != nil {
						b.Fatal(err)
					}
				}
			})
			oneRes := testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					an, err := ipet.New(w.prog, w.root, opts)
					if err != nil {
						b.Fatal(err)
					}
					if err := an.Apply(files[i%2]); err != nil {
						b.Fatal(err)
					}
					if _, err := an.Estimate(); err != nil {
						b.Fatal(err)
					}
				}
			})
			if float64(sessRes.NsPerOp())*3 > float64(oneRes.NsPerOp()) {
				t.Errorf("%s: warm session %d ns/op vs one-shot %d ns/op — want at least 3x",
					w.name, sessRes.NsPerOp(), oneRes.NsPerOp())
			}
			oneRow.NsPerOp, oneRow.AllocsPerOp = float64(oneRes.NsPerOp()), float64(oneRes.AllocsPerOp())
			sessRow.NsPerOp, sessRow.AllocsPerOp = float64(sessRes.NsPerOp()), float64(sessRes.AllocsPerOp())
			t.Logf("%s: session %d ns/op vs one-shot %d ns/op", w.name, sessRes.NsPerOp(), oneRes.NsPerOp())
		}
		rows = append(rows, oneRow, sessRow)
		t.Logf("%s: session %d pivots vs one-shot %d pivots", w.name, warmPivots, coldPivots)
	}
	return rows
}

// sessionBench is one prepared-session workload: a program plus two
// annotation scenarios, the benchmark's own and a one-disjunct
// perturbation.
type sessionBench struct {
	name  string
	prog  *cfg.Program
	root  string
	files [2]*constraint.File
}

func sessionBenchWorkloads(t *testing.T) ([]sessionBench, ipet.Options) {
	t.Helper()
	opts := ipet.DefaultOptions()
	opts.Workers = 1
	opts.PruneNullSets = false // match the dhry cold/incremental rows
	// Dominated outcomes depend on the run's incumbent and are never cached,
	// so a session replay would re-prove domination per call; with pruning
	// off every set solves to a cacheable Optimal/Infeasible once. The
	// one-shot baseline runs the same options, keeping the comparison fair.
	opts.IncumbentPrune = false

	parse := func(name, text string) *constraint.File {
		f, err := constraint.Parse(text)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return f
	}

	dhryBM, ok := ByName("dhry")
	if !ok {
		t.Fatal("unknown benchmark dhry")
	}
	dhryBuilt, err := dhryBM.Build(opts)
	if err != nil {
		t.Fatal(err)
	}
	perturbed := strings.Replace(dhryBM.Annotations, "(x23 = 0)", "(x23 <= 0)", 1)
	if perturbed == dhryBM.Annotations {
		t.Fatal("dhry perturbation found nothing to replace")
	}

	desBM, ok := ByName("des")
	if !ok {
		t.Fatal("unknown benchmark des")
	}
	desBuilt, err := desBM.Build(opts)
	if err != nil {
		t.Fatal(err)
	}
	desPerturbed := strings.Replace(desBM.Annotations, "x8 = 28", "x8 <= 28", 1)
	if desPerturbed == desBM.Annotations {
		t.Fatal("des perturbation found nothing to replace")
	}

	exProg, exAnnots, err := explosionProgram(6)
	if err != nil {
		t.Fatal(err)
	}
	exPerturbed := strings.Replace(exAnnots, "(x17 = 1", "(x17 <= 1", 1)
	if exPerturbed == exAnnots {
		t.Fatal("explosion perturbation found nothing to replace")
	}

	return []sessionBench{
		{
			name: "dhry", prog: dhryBuilt.CFG, root: dhryBM.Root,
			files: [2]*constraint.File{parse("dhry", dhryBM.Annotations), parse("dhry'", perturbed)},
		},
		{
			name: "des", prog: desBuilt.CFG, root: desBM.Root,
			files: [2]*constraint.File{parse("des", desBM.Annotations), parse("des'", desPerturbed)},
		},
		{
			name: "explosion64", prog: exProg, root: "main",
			files: [2]*constraint.File{parse("explosion64", exAnnots), parse("explosion64'", exPerturbed)},
		},
	}, opts
}

// warmSession runs the session workflow on a workload: one prepared
// session, one analyzer per scenario (the session shares the front end and
// solver caches, the analyzer memoizes its plan), two rotations. The first
// rotation fills the caches; the returned estimates are the warm steady
// state of the second.
func warmSession(t *testing.T, w sessionBench, opts ipet.Options) ([2]*ipet.Analyzer, [2]*ipet.Estimate) {
	t.Helper()
	sess, err := ipet.Prepare(w.prog, w.root, opts)
	if err != nil {
		t.Fatal(err)
	}
	var ans [2]*ipet.Analyzer
	for si := range w.files {
		if ans[si], err = sess.Analyzer(w.files[si]); err != nil {
			t.Fatal(err)
		}
	}
	var warm [2]*ipet.Estimate
	for round := 0; round < 2; round++ {
		for si := range w.files {
			warm[si], err = ans[si].Estimate()
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	return ans, warm
}

// TestEstimatePivotRegressionVsCommitted is the CI bench-smoke gate: it
// replays the perf workloads (whose pivot counters are deterministic at
// Workers=1) and fails when one spends far more simplex pivots than the
// committed BENCH_estimate.json row — a solver-work regression that pure
// timing noise could hide. It holds the estimate and compile workloads to
// their committed allocs/op the same way, except in race builds, where
// the allocation counts measure the detector. Refresh the artifact after
// intentional solver changes with:
//
//	CINDERELLA_BENCH_JSON=$PWD/BENCH_estimate.json go test -run TestWriteEstimateBenchJSON ./internal/bench/
func TestEstimatePivotRegressionVsCommitted(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the estimate workloads")
	}
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCH_estimate.json"))
	if os.IsNotExist(err) {
		t.Skip("no committed BENCH_estimate.json")
	}
	if err != nil {
		t.Fatal(err)
	}
	var committed []EstimatePerf
	if err := json.Unmarshal(data, &committed); err != nil {
		t.Fatal(err)
	}
	byName := map[string]EstimatePerf{}
	for _, r := range committed {
		byName[r.Name] = r
	}
	check := func(name string, pivots int) {
		c, ok := byName[name]
		if !ok {
			t.Errorf("committed artifact lacks row %q; refresh BENCH_estimate.json", name)
			return
		}
		// Generous bound: small solver changes legitimately shift pivot
		// counts, the gate is for order-of-magnitude regressions.
		if limit := c.Pivots + c.Pivots/4 + 16; pivots > limit {
			t.Errorf("%s: %d pivots vs committed %d (limit %d) — solver-work regression",
				name, pivots, c.Pivots, limit)
		}
	}
	if raceEnabled {
		t.Log("race detector on: allocation checks skipped (the race runtime drops sync.Pool items); pivot checks run")
	}
	checkAllocs := func(name string, run func()) {
		c, ok := byName[name]
		if raceEnabled || !ok || c.AllocsPerOp == 0 {
			return // the pivot or row check already flags a missing row
		}
		allocs := testing.AllocsPerRun(3, run)
		// Same spirit as the pivot gate: catch the steady-state solve paths
		// growing per-op allocations (a pooled scratch regressing to fresh
		// slices), not runtime-version jitter.
		if limit := c.AllocsPerOp*1.25 + 64; allocs > limit {
			t.Errorf("%s: %.0f allocs/op vs committed %.0f (limit %.0f) — allocation regression",
				name, allocs, c.AllocsPerOp, limit)
		}
	}

	for _, w := range perfWorkloads(t) {
		// The artifact records the steady state (memoized plan, warm bases
		// built): measure the second Estimate.
		var est *ipet.Estimate
		for i := 0; i < 2; i++ {
			var err error
			if est, err = w.an.Estimate(); err != nil {
				t.Fatal(err)
			}
		}
		check(w.name, est.Stats.Pivots)
		an := w.an
		checkAllocs(w.name, func() {
			if _, err := an.Estimate(); err != nil {
				t.Fatal(err)
			}
		})
	}
	for _, w := range compileWorkloads(t) {
		if _, ok := byName[w.name]; !ok {
			t.Errorf("committed artifact lacks row %q; refresh BENCH_estimate.json", w.name)
			continue
		}
		checkAllocs(w.name, func() {
			if _, _, err := w.build(w.src); err != nil {
				t.Fatal(err)
			}
		})
	}
	workloads, opts := sessionBenchWorkloads(t)
	for _, w := range workloads {
		_, warm := warmSession(t, w, opts)
		check(w.name+"/session", warm[1].Stats.Pivots)
	}
}
