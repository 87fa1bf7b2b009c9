package bench

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"cinderella/internal/asm"
	"cinderella/internal/cfg"
	"cinderella/internal/constraint"
	"cinderella/internal/ipet"
)

// parametricBench is one repeated-query sweep workload: a program whose
// annotations leave one loop bound symbolic, with the declared parameter
// domain (256 bound combinations each).
type parametricBench struct {
	name  string
	prog  *cfg.Program
	root  string
	file  *constraint.File
	specs []ipet.ParamSpec
}

// explosionLoopProgram is the n-diamond path-explosion chain with a
// trailing counted loop appended, so the 2^n-set workload has a loop bound
// to parametrize. Returns the CFG and the annotation text (which leaves the
// loop's upper end as the symbol n1).
func explosionLoopProgram(n int) (*cfg.Program, string, error) {
	var sb, ab strings.Builder
	sb.WriteString("main:\n")
	ab.WriteString("func main {\n")
	ab.WriteString("    loop 1: 1 .. n1\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "        beq r1, r0, .La%d\n", i)
		fmt.Fprintf(&sb, "        mul r2, r2, r2\n")
		fmt.Fprintf(&sb, "        jmp .Lb%d\n", i)
		fmt.Fprintf(&sb, ".La%d:  addi r2, r2, 1\n", i)
		fmt.Fprintf(&sb, ".Lb%d:  addi r3, r3, 1\n", i)
		fmt.Fprintf(&ab, "    (x%d = 1 & x%d = 0) | (x%d = 0 & x%d = 1)\n",
			3*i+2, 3*i+3, 3*i+2, 3*i+3)
	}
	sb.WriteString(".Lt:    addi r4, r4, 1\n")
	sb.WriteString("        bne r4, r5, .Lt\n")
	sb.WriteString("        halt\n")
	ab.WriteString("}\n")
	exe, err := asm.Assemble(sb.String())
	if err != nil {
		return nil, "", err
	}
	prog, err := cfg.Build(exe)
	if err != nil {
		return nil, "", err
	}
	return prog, ab.String(), nil
}

// parametricWorkloads builds the sweep workloads: dhry with its 30-iteration
// outer loop made symbolic over 256 values, and the 64-set explosion chain
// with its trailing loop symbolic over 256 values. The options mirror
// sessionBenchWorkloads so the session-warm baseline caches cleanly.
func parametricWorkloads(t *testing.T) ([]parametricBench, ipet.Options) {
	t.Helper()
	opts := ipet.DefaultOptions()
	opts.Workers = 1
	opts.PruneNullSets = false
	opts.IncumbentPrune = false

	dhryBM, ok := ByName("dhry")
	if !ok {
		t.Fatal("unknown benchmark dhry")
	}
	built, err := dhryBM.Build(opts)
	if err != nil {
		t.Fatal(err)
	}
	symText := strings.Replace(dhryBM.Annotations, "loop 1: 30 .. 30", "loop 1: 30 .. n1", 1)
	if symText == dhryBM.Annotations {
		t.Fatal("dhry parametrization found no loop bound to replace")
	}
	dhryFile, err := constraint.Parse(symText)
	if err != nil {
		t.Fatal(err)
	}

	exProg, exAnnots, err := explosionLoopProgram(6)
	if err != nil {
		t.Fatal(err)
	}
	exFile, err := constraint.Parse(exAnnots)
	if err != nil {
		t.Fatal(err)
	}

	return []parametricBench{
		{"dhry", built.CFG, dhryBM.Root, dhryFile, []ipet.ParamSpec{{Name: "n1", Lo: 30, Hi: 285}}},
		{"explosion64", exProg, "main", exFile, []ipet.ParamSpec{{Name: "n1", Lo: 1, Hi: 256}}},
	}, opts
}

// parametricRows runs the repeated-query sweep and produces the
// BENCH_estimate.json rows, enforcing the gates along the way:
//
//   - every swept point's formula answer bit-matches a session-warm
//     concrete solve of the same bound scenario, with zero fallbacks;
//   - ParamBound.Eval is at least 10x faster per query than a session-warm
//     Estimate (logged, not enforced, in race builds), and allocates
//     nothing;
//   - the one-shot baseline is measured on a 16-point stride subset.
func parametricRows(t *testing.T) []EstimatePerf {
	t.Helper()
	workloads, opts := parametricWorkloads(t)
	var rows []EstimatePerf
	for _, w := range workloads {
		sess, err := ipet.Prepare(w.prog, w.root, opts)
		if err != nil {
			t.Fatal(err)
		}
		pb, err := sess.Parametrize(w.file, w.specs)
		if err != nil {
			t.Fatalf("%s: Parametrize: %v", w.name, err)
		}

		sp := w.specs[0]
		nPoints := int(sp.Hi - sp.Lo + 1)
		stride := nPoints / 16
		if stride == 0 {
			stride = 1
		}
		points := make([][]int64, 0, nPoints)
		var subsetAns []*ipet.Analyzer
		var subsetFiles []*constraint.File
		var lastParam, lastWarm *ipet.Estimate
		for theta := sp.Lo; theta <= sp.Hi; theta++ {
			points = append(points, []int64{theta})
			bound, err := w.file.Bind(map[string]int64{sp.Name: theta})
			if err != nil {
				t.Fatalf("%s: Bind(%d): %v", w.name, theta, err)
			}
			an, err := sess.Analyzer(bound)
			if err != nil {
				t.Fatalf("%s: Analyzer(%d): %v", w.name, theta, err)
			}
			want, err := an.Estimate()
			if err != nil {
				t.Fatalf("%s n1=%d: concrete estimate: %v", w.name, theta, err)
			}
			got, err := pb.EstimateAt([]int64{theta})
			if err != nil {
				t.Fatalf("%s n1=%d: EstimateAt: %v", w.name, theta, err)
			}
			if got.WCET.Cycles != want.WCET.Cycles || got.BCET.Cycles != want.BCET.Cycles {
				t.Errorf("%s n1=%d: formula bound [%d, %d] != concrete [%d, %d]",
					w.name, theta, got.BCET.Cycles, got.WCET.Cycles, want.BCET.Cycles, want.WCET.Cycles)
			}
			if int(theta-sp.Lo)%stride == 0 && len(subsetAns) < 16 {
				subsetAns = append(subsetAns, an)
				subsetFiles = append(subsetFiles, bound)
			}
			lastParam, lastWarm = got, want
		}
		sweepStats := pb.Stats()
		if sweepStats.ParamFallbacks != 0 {
			t.Errorf("%s: %d of %d swept points fell back to the concrete solver — formula coverage hole",
				w.name, sweepStats.ParamFallbacks, nPoints)
		}

		// Warm the subset analyzers to steady state before timing them.
		for _, an := range subsetAns {
			if _, err := an.Estimate(); err != nil {
				t.Fatal(err)
			}
		}

		paramRes := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, ok := pb.Eval(points[i%len(points)]); !ok {
					b.Fatal("uncovered point inside the swept domain")
				}
			}
		})
		sessRes := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := subsetAns[i%len(subsetAns)].Estimate(); err != nil {
					b.Fatal(err)
				}
			}
		})
		var lastOne *ipet.Estimate
		oneRes := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				an, err := ipet.New(w.prog, w.root, opts)
				if err != nil {
					b.Fatal(err)
				}
				if err := an.Apply(subsetFiles[i%len(subsetFiles)]); err != nil {
					b.Fatal(err)
				}
				if lastOne, err = an.Estimate(); err != nil {
					b.Fatal(err)
				}
			}
		})

		if float64(paramRes.NsPerOp())*10 > float64(sessRes.NsPerOp()) {
			// The race runtime's timing is not the code's: under the
			// detector the ratio is logged, and the non-race
			// TestParametricSweepGate run enforces it.
			report := t.Errorf
			if raceEnabled {
				report = t.Logf
			}
			report("%s: parametric eval %d ns/op vs session-warm %d ns/op — want at least 10x",
				w.name, paramRes.NsPerOp(), sessRes.NsPerOp())
		}
		if allocs := testing.AllocsPerRun(100, func() { pb.Eval(points[0]) }); allocs != 0 {
			t.Errorf("%s: Eval allocates %.1f per op on the hot path", w.name, allocs)
		}

		paramRow := EstimatePerf{
			Name:        w.name + "/sweep-parametric",
			NsPerOp:     float64(paramRes.NsPerOp()),
			AllocsPerOp: float64(paramRes.AllocsPerOp()),
		}
		paramRow.FillFromEstimate(lastParam)
		// Record the deterministic sweep counters, not the benchmark-inflated
		// ones: one formula eval per swept point, zero fallbacks.
		paramRow.FormulaEvals = sweepStats.FormulaEvals
		paramRow.ParamRegions = sweepStats.ParamRegions
		paramRow.ParamFallbacks = sweepStats.ParamFallbacks
		sessRow := EstimatePerf{
			Name:        w.name + "/sweep-session",
			NsPerOp:     float64(sessRes.NsPerOp()),
			AllocsPerOp: float64(sessRes.AllocsPerOp()),
		}
		sessRow.FillFromEstimate(lastWarm)
		oneRow := EstimatePerf{
			Name:        w.name + "/sweep-oneshot",
			NsPerOp:     float64(oneRes.NsPerOp()),
			AllocsPerOp: float64(oneRes.AllocsPerOp()),
		}
		oneRow.FillFromEstimate(lastOne)
		rows = append(rows, paramRow, sessRow, oneRow)
		t.Logf("%s: parametric %d ns/op (%d regions) vs session-warm %d ns/op vs one-shot %d ns/op over %d points",
			w.name, paramRes.NsPerOp(), sweepStats.ParamRegions, sessRes.NsPerOp(), oneRes.NsPerOp(), nPoints)
	}
	return rows
}

// TestParametricSweepGate is the CI bench-smoke gate for the parametric
// layer: the full 256-point sweeps bit-match the concrete solver with zero
// fallbacks, and the formula answers repeated queries at least 10x faster
// than the session-warm path with zero allocations per eval.
func TestParametricSweepGate(t *testing.T) {
	if testing.Short() {
		t.Skip("runs timed benchmarks")
	}
	parametricRows(t)
}

// BenchmarkParamEval measures the hot path the tentpole promises: one
// piecewise-linear formula evaluation per repeated WCET query. ReportAllocs
// documents the zero-allocation property (gated in parametricRows and in
// internal/ipet's TestParamEvalNoAllocs).
func BenchmarkParamEval(b *testing.B) {
	opts := ipet.DefaultOptions()
	opts.Workers = 1
	opts.PruneNullSets = false
	dhryBM, ok := ByName("dhry")
	if !ok {
		b.Fatal("unknown benchmark dhry")
	}
	built, err := dhryBM.Build(opts)
	if err != nil {
		b.Fatal(err)
	}
	symText := strings.Replace(dhryBM.Annotations, "loop 1: 30 .. 30", "loop 1: 30 .. n1", 1)
	file, err := constraint.Parse(symText)
	if err != nil {
		b.Fatal(err)
	}
	sess, err := ipet.Prepare(built.CFG, dhryBM.Root, opts)
	if err != nil {
		b.Fatal(err)
	}
	pb, err := sess.Parametrize(file, []ipet.ParamSpec{{Name: "n1", Lo: 30, Hi: 285}})
	if err != nil {
		b.Fatal(err)
	}
	points := make([][]int64, 256)
	for i := range points {
		points[i] = []int64{30 + int64(i)}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, ok := pb.Eval(points[i%len(points)]); !ok {
			b.Fatal("uncovered point inside the swept domain")
		}
	}
}

// TestParametricDifferentialGrid is the CI differential gate: on dhry and
// des, the piecewise-linear formula is replayed against the fully
// independent one-shot concrete solver (fresh Analyzer per point, no shared
// session state) over a 16-point grid of the symbolic loop bound.
func TestParametricDifferentialGrid(t *testing.T) {
	opts := ipet.DefaultOptions()
	opts.Workers = 1
	for _, tc := range []struct {
		bench  string
		old    string
		lo, hi int64
	}{
		{"dhry", "loop 1: 30 .. 30", 30, 45},
		{"des", "loop 1: 56 .. 56", 56, 71},
	} {
		bm, ok := ByName(tc.bench)
		if !ok {
			t.Fatalf("unknown benchmark %q", tc.bench)
		}
		built, err := bm.Build(opts)
		if err != nil {
			t.Fatal(err)
		}
		symText := strings.Replace(bm.Annotations, tc.old, strings.Split(tc.old, "..")[0]+".. n1", 1)
		if symText == bm.Annotations {
			t.Fatalf("%s: no loop bound %q to replace", tc.bench, tc.old)
		}
		file, err := constraint.Parse(symText)
		if err != nil {
			t.Fatal(err)
		}
		sess, err := ipet.Prepare(built.CFG, bm.Root, opts)
		if err != nil {
			t.Fatal(err)
		}
		pb, err := sess.Parametrize(file, []ipet.ParamSpec{{Name: "n1", Lo: tc.lo, Hi: tc.hi}})
		if err != nil {
			t.Fatalf("%s: Parametrize: %v", tc.bench, err)
		}
		for theta := tc.lo; theta <= tc.hi; theta++ {
			bound, err := file.Bind(map[string]int64{"n1": theta})
			if err != nil {
				t.Fatal(err)
			}
			an, err := ipet.New(built.CFG, bm.Root, opts)
			if err != nil {
				t.Fatal(err)
			}
			if err := an.Apply(bound); err != nil {
				t.Fatal(err)
			}
			want, wantErr := an.Estimate()
			got, gotErr := pb.EstimateAt([]int64{theta})
			switch {
			case wantErr != nil:
				var inf, gotInf *ipet.InfeasibleError
				if !errors.As(wantErr, &inf) {
					t.Fatalf("%s n1=%d: oracle: %v", tc.bench, theta, wantErr)
				}
				if !errors.As(gotErr, &gotInf) {
					t.Errorf("%s n1=%d: oracle infeasible but formula said %v", tc.bench, theta, gotErr)
				}
			case gotErr != nil:
				t.Errorf("%s n1=%d: EstimateAt: %v", tc.bench, theta, gotErr)
			case got.WCET.Cycles != want.WCET.Cycles || got.BCET.Cycles != want.BCET.Cycles:
				t.Errorf("%s n1=%d: formula [%d, %d] != oracle [%d, %d]",
					tc.bench, theta, got.BCET.Cycles, got.WCET.Cycles, want.BCET.Cycles, want.WCET.Cycles)
			}
		}
		st := pb.Stats()
		t.Logf("%s: %d regions, %d formula evals, %d fallbacks over the grid",
			tc.bench, st.ParamRegions, st.FormulaEvals, st.ParamFallbacks)
	}
}
