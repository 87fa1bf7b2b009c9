package bench

import (
	"reflect"
	"strings"
	"testing"

	"cinderella/internal/asm"
	"cinderella/internal/cc"
	"cinderella/internal/constraint"
	"cinderella/internal/ipet"
	"cinderella/internal/prepcache"
)

// prepareWorkload is one cold-path pipeline workload. The pipeline under
// measurement is what a cold cinderelld request pays after assembly:
// CFG construction through the artifact cache plus ipet.Prepare.
type prepareWorkload struct {
	name string
	exe  *asm.Executable
	root string
	file *constraint.File
}

func dhryPrepareWorkload(tb testing.TB) prepareWorkload {
	tb.Helper()
	bm, ok := ByName("dhry")
	if !ok {
		tb.Fatal("unknown benchmark dhry")
	}
	exe, _, err := cc.Build(bm.Source)
	if err != nil {
		tb.Fatal(err)
	}
	file, err := constraint.Parse(bm.Annotations)
	if err != nil {
		tb.Fatal(err)
	}
	return prepareWorkload{"dhry", exe, bm.Root, file}
}

func prepareWorkloads(tb testing.TB) []prepareWorkload {
	tb.Helper()
	asmText, annots := ExplosionAsm(6)
	exe, err := asm.Assemble(asmText)
	if err != nil {
		tb.Fatal(err)
	}
	file, err := constraint.Parse(annots)
	if err != nil {
		tb.Fatal(err)
	}
	return []prepareWorkload{
		dhryPrepareWorkload(tb),
		{"explosion64", exe, "main", file},
	}
}

// runPrepare is the pipeline under test: program construction through the
// process-wide artifact cache, then session preparation.
func runPrepare(tb testing.TB, exe *asm.Executable, root string, opts ipet.Options) *ipet.Session {
	tb.Helper()
	prog, err := prepcache.Default().BuildProgram(exe)
	if err != nil {
		tb.Fatal(err)
	}
	sess, err := ipet.Prepare(prog, root, opts)
	if err != nil {
		tb.Fatal(err)
	}
	return sess
}

// BenchmarkPrepareCold measures the dhry pipeline against an empty artifact
// cache: every function's CFG, cost table, and row templates are built from
// scratch.
func BenchmarkPrepareCold(b *testing.B) {
	w := dhryPrepareWorkload(b)
	opts := ipet.DefaultOptions()
	opts.Workers = 1
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prepcache.Default().Reset()
		runPrepare(b, w.exe, w.root, opts)
	}
}

// BenchmarkPrepareWarmed measures the same pipeline when every artifact is
// resident: the eviction-then-resubmission cost cinderelld pays under
// session churn.
func BenchmarkPrepareWarmed(b *testing.B) {
	w := dhryPrepareWorkload(b)
	opts := ipet.DefaultOptions()
	opts.Workers = 1
	prepcache.Default().Reset()
	runPrepare(b, w.exe, w.root, opts)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runPrepare(b, w.exe, w.root, opts)
	}
}

// prepareRows checks the cold and artifact-warm prepare pipeline on dhry
// and the explosion chain: a cold prepare after a cache reset misses every
// artifact, and a warm one right after hits each of them. Timed, it
// measures both, producing the prepare-cold / prepare-incremental rows of
// BENCH_estimate.json.
func prepareRows(t *testing.T, timed bool) []EstimatePerf {
	t.Helper()
	opts := ipet.DefaultOptions()
	opts.Workers = 1
	var rows []EstimatePerf
	for _, w := range prepareWorkloads(t) {
		cold := EstimatePerf{Name: w.name + "/prepare-cold"}
		warm := EstimatePerf{Name: w.name + "/prepare-incremental"}
		var coldSess, warmSess *ipet.Session
		if timed {
			coldRes := testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					prepcache.Default().Reset()
					coldSess = runPrepare(b, w.exe, w.root, opts)
				}
			})
			warmRes := testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					warmSess = runPrepare(b, w.exe, w.root, opts)
				}
			})
			cold.NsPerOp, cold.AllocsPerOp = float64(coldRes.NsPerOp()), float64(coldRes.AllocsPerOp())
			warm.NsPerOp, warm.AllocsPerOp = float64(warmRes.NsPerOp()), float64(warmRes.AllocsPerOp())
			t.Logf("%s: prepare cold %d ns/op (%d allocs) -> incremental %d ns/op (%d allocs)",
				w.name, coldRes.NsPerOp(), coldRes.AllocsPerOp(), warmRes.NsPerOp(), warmRes.AllocsPerOp())
		} else {
			prepcache.Default().Reset()
			coldSess = runPrepare(t, w.exe, w.root, opts)
			warmSess = runPrepare(t, w.exe, w.root, opts)
		}
		ch, cm := coldSess.ArtifactStats()
		wh, wm := warmSess.ArtifactStats()
		if cm == 0 || ch != 0 {
			t.Errorf("%s: cold prepare saw %d hits, %d misses — the reset before it did not take", w.name, ch, cm)
		}
		if wm != 0 || wh != cm {
			t.Errorf("%s: warm prepare saw %d hits, %d misses — want %d hits, 0 misses", w.name, wh, wm, cm)
		}
		cold.ArtifactHits, cold.ArtifactMisses = ch, cm
		warm.ArtifactHits, warm.ArtifactMisses = wh, wm
		rows = append(rows, cold, warm)
	}
	return rows
}

// TestPrepareIncrementalGate is the CI bench-smoke gate on the cold path:
// an artifact-warm dhry prepare must be at least 3x cheaper than a cold
// one, and the BoundReports must be bit-identical across cold and
// incremental prepares at one and four workers — plain, certified, and
// parametric.
func TestPrepareIncrementalGate(t *testing.T) {
	if testing.Short() {
		t.Skip("runs timed benchmarks")
	}
	w := dhryPrepareWorkload(t)

	estimate := func(sess *ipet.Session) *ipet.Estimate {
		est, err := sess.Estimate(w.file)
		if err != nil {
			t.Fatal(err)
		}
		return est
	}

	// Bit-identity, plain and certified: every (workers, cold|warm) variant
	// must reproduce its reference report exactly.
	for _, certify := range []bool{false, true} {
		opts := ipet.DefaultOptions()
		opts.Workers = 1
		opts.Certify = certify
		prepcache.Default().Reset()
		ref := estimate(runPrepare(t, w.exe, w.root, opts))
		if certify && (!ref.WCET.Certified || !ref.BCET.Certified) {
			t.Fatalf("certified reference is not certified: %+v / %+v", ref.WCET, ref.BCET)
		}
		for _, workers := range []int{1, 4} {
			for _, cold := range []bool{true, false} {
				if cold {
					prepcache.Default().Reset()
				}
				o := opts
				o.Workers = workers
				est := estimate(runPrepare(t, w.exe, w.root, o))
				if !reflect.DeepEqual(est.WCET, ref.WCET) || !reflect.DeepEqual(est.BCET, ref.BCET) {
					t.Errorf("certify=%v workers=%d cold=%v: report diverges from reference: [%d,%d] vs [%d,%d]",
						certify, workers, cold, est.BCET.Cycles, est.WCET.Cycles, ref.BCET.Cycles, ref.WCET.Cycles)
				}
			}
		}
	}

	// Parametric bit-identity: the piecewise-linear formulas built from a
	// cold and an artifact-warm session must answer identically across the
	// domain sample.
	pOpts := ipet.DefaultOptions()
	pOpts.Workers = 1
	pOpts.PruneNullSets = false
	pOpts.IncumbentPrune = false
	bm, _ := ByName("dhry")
	symText := strings.Replace(bm.Annotations, "loop 1: 30 .. 30", "loop 1: 30 .. n1", 1)
	symFile, err := constraint.Parse(symText)
	if err != nil {
		t.Fatal(err)
	}
	specs := []ipet.ParamSpec{{Name: "n1", Lo: 30, Hi: 285}}
	prepcache.Default().Reset()
	pbCold, err := runPrepare(t, w.exe, w.root, pOpts).Parametrize(symFile, specs)
	if err != nil {
		t.Fatal(err)
	}
	pbWarm, err := runPrepare(t, w.exe, w.root, pOpts).Parametrize(symFile, specs)
	if err != nil {
		t.Fatal(err)
	}
	for _, theta := range []int64{30, 100, 285} {
		cw, _, cok := pbCold.Eval([]int64{theta})
		ww, _, wok := pbWarm.Eval([]int64{theta})
		cb, _, cbok := pbCold.EvalBCET([]int64{theta})
		wb, _, wbok := pbWarm.EvalBCET([]int64{theta})
		if !cok || !wok || !cbok || !wbok {
			t.Fatalf("n1=%d: formula eval failed (ok %v/%v/%v/%v)", theta, cok, wok, cbok, wbok)
		}
		if cw != ww || cb != wb {
			t.Errorf("n1=%d: warm formula [%d,%d] != cold [%d,%d]", theta, wb, ww, cb, cw)
		}
	}

	// The 3x speedup gate, measured on the serial pipeline.
	opts := ipet.DefaultOptions()
	opts.Workers = 1
	coldRes := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			prepcache.Default().Reset()
			runPrepare(b, w.exe, w.root, opts)
		}
	})
	prepcache.Default().Reset()
	runPrepare(t, w.exe, w.root, opts)
	warmRes := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			runPrepare(b, w.exe, w.root, opts)
		}
	})
	if warmRes.NsPerOp()*3 > coldRes.NsPerOp() {
		t.Errorf("warm prepare %d ns/op vs cold %d ns/op — want at least 3x", warmRes.NsPerOp(), coldRes.NsPerOp())
	}
	t.Logf("dhry prepare: cold %d ns/op -> warm %d ns/op (%.1fx)",
		coldRes.NsPerOp(), warmRes.NsPerOp(), float64(coldRes.NsPerOp())/float64(warmRes.NsPerOp()))
}

// TestPrepareEditChurnReusesArtifacts models the interactive edit loop: one
// constant inside one dhry function changes (size-preserving, so the rest
// of the image is byte-identical), and re-preparing must rebuild exactly
// that function's two artifacts while reusing every other function's —
// with a report bit-identical to a from-scratch build of the edited program.
func TestPrepareEditChurnReusesArtifacts(t *testing.T) {
	bm, ok := ByName("dhry")
	if !ok {
		t.Fatal("unknown benchmark dhry")
	}
	edited := strings.Replace(bm.Source, "rec1Int = 5;", "rec1Int = 4;", 1)
	if edited == bm.Source {
		t.Fatal("dhry edit found nothing to replace")
	}
	origExe, _, err := cc.Build(bm.Source)
	if err != nil {
		t.Fatal(err)
	}
	editExe, _, err := cc.Build(edited)
	if err != nil {
		t.Fatal(err)
	}
	file, err := constraint.Parse(bm.Annotations)
	if err != nil {
		t.Fatal(err)
	}
	opts := ipet.DefaultOptions()
	opts.Workers = 1

	prepcache.Default().Reset()
	runPrepare(t, origExe, bm.Root, opts) // populate the cache

	sessEdit := runPrepare(t, editExe, bm.Root, opts)
	hits, misses := sessEdit.ArtifactStats()
	if misses != 2 {
		t.Errorf("edited prepare rebuilt %d artifacts, want 2 (the edited function's cost table and row template)", misses)
	}
	reach, err := sessEdit.Prog.Reachable(bm.Root)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(2 * (len(reach) - 1)); hits != want {
		t.Errorf("edited prepare reused %d artifacts, want %d (2 per unchanged reachable function)", hits, want)
	}
	warmEst, err := sessEdit.Estimate(file)
	if err != nil {
		t.Fatal(err)
	}

	prepcache.Default().Reset()
	sessCold := runPrepare(t, editExe, bm.Root, opts)
	if ch, _ := sessCold.ArtifactStats(); ch != 0 {
		t.Fatalf("cold rebuild saw %d artifact hits after a reset", ch)
	}
	coldEst, err := sessCold.Estimate(file)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(warmEst.WCET, coldEst.WCET) || !reflect.DeepEqual(warmEst.BCET, coldEst.BCET) {
		t.Errorf("incremental report diverges from cold build: [%d,%d] vs [%d,%d]",
			warmEst.BCET.Cycles, warmEst.WCET.Cycles, coldEst.BCET.Cycles, coldEst.WCET.Cycles)
	}
}
