// Benchmark harness: one bench per table and figure of the paper, plus
// ablations of the design choices called out in DESIGN.md.
//
//	go test -bench=. -benchmem
//
// The benches report the reproduced quantities as custom metrics —
// wcet_cycles, bcet_cycles, pessimism percentages, constraint-set and path
// counts — so a run regenerates the same rows/series the paper's evaluation
// section reports (EXPERIMENTS.md records a reference run).
package cinderella_test

import (
	"fmt"
	"strings"
	"testing"

	"cinderella/internal/asm"
	"cinderella/internal/bench"
	"cinderella/internal/cfg"
	"cinderella/internal/constraint"
	"cinderella/internal/eval"
	"cinderella/internal/ipet"
	"cinderella/internal/march"
	"cinderella/internal/pathenum"
)

// ---- Table I: the benchmark set and its constraint-set counts ----

func BenchmarkTable1(b *testing.B) {
	for _, bm := range bench.All() {
		bm := bm
		b.Run(bm.Name, func(b *testing.B) {
			b.ReportAllocs()
			var bt *bench.Built
			for i := 0; i < b.N; i++ {
				var err error
				bt, err = bm.Build(ipet.DefaultOptions())
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(bt.SourceLines), "lines")
			b.ReportMetric(float64(bt.Est.NumSets), "sets")
			b.ReportMetric(float64(bt.Est.SolvedSets), "sets_solved")
		})
	}
}

// ---- Table II: estimated vs calculated bound (path-analysis pessimism) ----

func BenchmarkTable2(b *testing.B) {
	for _, bm := range bench.All() {
		bm := bm
		b.Run(bm.Name, func(b *testing.B) {
			b.ReportAllocs()
			bt, err := bm.Build(ipet.DefaultOptions())
			if err != nil {
				b.Fatal(err)
			}
			var calc eval.Bound
			for i := 0; i < b.N; i++ {
				calc, err = bt.CalculatedBound()
				if err != nil {
					b.Fatal(err)
				}
			}
			lo, hi := eval.Pessimism(bt.EstimatedBound(), calc)
			b.ReportMetric(float64(bt.Est.WCET.Cycles), "wcet_cycles")
			b.ReportMetric(float64(bt.Est.BCET.Cycles), "bcet_cycles")
			b.ReportMetric(float64(calc.Hi), "calc_hi_cycles")
			b.ReportMetric(100*hi, "pessim_hi_%")
			b.ReportMetric(100*lo, "pessim_lo_%")
		})
	}
}

// ---- Table III: estimated vs measured bound (hardware-model pessimism) ----

func BenchmarkTable3(b *testing.B) {
	for _, bm := range bench.All() {
		bm := bm
		b.Run(bm.Name, func(b *testing.B) {
			b.ReportAllocs()
			bt, err := bm.Build(ipet.DefaultOptions())
			if err != nil {
				b.Fatal(err)
			}
			var meas eval.Bound
			for i := 0; i < b.N; i++ {
				meas, err = bt.MeasuredBound()
				if err != nil {
					b.Fatal(err)
				}
			}
			lo, hi := eval.Pessimism(bt.EstimatedBound(), meas)
			b.ReportMetric(float64(meas.Hi), "measured_hi_cycles")
			b.ReportMetric(float64(meas.Lo), "measured_lo_cycles")
			b.ReportMetric(100*hi, "pessim_hi_%")
			b.ReportMetric(100*lo, "pessim_lo_%")
		})
	}
}

// ---- Figure 1: the estimated bound encloses the actual bound ----

func BenchmarkFig1BoundEnclosure(b *testing.B) {
	b.ReportAllocs()
	bm, _ := bench.ByName("check_data")
	bt, err := bm.Build(ipet.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	enclosed := 0
	for i := 0; i < b.N; i++ {
		meas, err := bt.MeasuredBound()
		if err != nil {
			b.Fatal(err)
		}
		if bt.EstimatedBound().Encloses(meas) {
			enclosed++
		}
	}
	b.ReportMetric(float64(enclosed)/float64(b.N), "enclosure_rate")
}

// figurePipeline measures CFG + structural-constraint extraction for the
// paper's illustrative examples.
func figurePipeline(b *testing.B, src, root string, annots string) *ipet.Estimate {
	b.Helper()
	b.ReportAllocs()
	exe, err := asm.Assemble(src)
	if err != nil {
		b.Fatal(err)
	}
	var est *ipet.Estimate
	for i := 0; i < b.N; i++ {
		prog, err := cfg.Build(exe)
		if err != nil {
			b.Fatal(err)
		}
		an, err := ipet.New(prog, root, ipet.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		if annots != "" {
			file, err := constraint.Parse(annots)
			if err != nil {
				b.Fatal(err)
			}
			if err := an.Apply(file); err != nil {
				b.Fatal(err)
			}
		}
		est, err = an.Estimate()
		if err != nil {
			b.Fatal(err)
		}
	}
	return est
}

// Figure 2: the if-then-else structural constraints (eqs. 2-5).
func BenchmarkFig2IfThenElse(b *testing.B) {
	est := figurePipeline(b, `
main:
        beq r1, r0, .Lelse
        addi r2, r0, 1
        jmp .Ljoin
.Lelse: addi r2, r0, 2
.Ljoin: add r3, r2, r0
        halt
`, "main", "")
	b.ReportMetric(float64(est.WCET.Cycles), "wcet_cycles")
}

// Figure 3: the while-loop structural constraints (eqs. 6-9).
func BenchmarkFig3WhileLoop(b *testing.B) {
	est := figurePipeline(b, `
main:
        add r2, r1, r0
.Lhead: slti r3, r2, 10
        beq r3, r0, .Lexit
        addi r2, r2, 1
        jmp .Lhead
.Lexit: add r4, r2, r0
        halt
`, "main", "func main { loop 1: 0 .. 10 }\n")
	b.ReportMetric(float64(est.WCET.Cycles), "wcet_cycles")
}

// Figure 4: function-call f-edges (eqs. 10-13).
func BenchmarkFig4FunctionCalls(b *testing.B) {
	est := figurePipeline(b, `
main:
        addi r2, r0, 10
        call store
        shli r2, r2, 1
        call store
        halt
store:
        add r3, r2, r0
        ret
`, "main", "")
	b.ReportMetric(float64(est.WCET.Cycles), "wcet_cycles")
}

// Figure 5: check_data with the full functionality constraints (eqs. 14-17).
func BenchmarkFig5CheckData(b *testing.B) {
	b.ReportAllocs()
	bm, _ := bench.ByName("check_data")
	var est *ipet.Estimate
	for i := 0; i < b.N; i++ {
		bt, err := bm.Build(ipet.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		est = bt.Est
	}
	b.ReportMetric(float64(est.NumSets), "sets")
	b.ReportMetric(float64(est.WCET.Cycles), "wcet_cycles")
}

// Figure 6: the caller-context constraint (eq. 18) via fullsearch's
// context-qualified dist1 facts.
func BenchmarkFig6CallerContext(b *testing.B) {
	b.ReportAllocs()
	bm, _ := bench.ByName("fullsearch")
	var bt *bench.Built
	for i := 0; i < b.N; i++ {
		var err error
		bt, err = bm.Build(ipet.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
	}
	ctxs := 0
	for _, c := range bt.An.Contexts() {
		if c.Func == "dist1" {
			ctxs++
		}
	}
	b.ReportMetric(float64(ctxs), "dist1_contexts")
	b.ReportMetric(float64(bt.Est.WCET.Cycles), "wcet_cycles")
}

// ---- E-S1: ILP solve work (Section VI: "the first call ... resulted in
// an integer valued solution"; CPU times insignificant) ----

func BenchmarkILPSolve(b *testing.B) {
	for _, bm := range bench.All() {
		bm := bm
		b.Run(bm.Name, func(b *testing.B) {
			b.ReportAllocs()
			var est *ipet.Estimate
			for i := 0; i < b.N; i++ {
				bt, err := bm.Build(ipet.DefaultOptions())
				if err != nil {
					b.Fatal(err)
				}
				est = bt.Est
			}
			b.ReportMetric(float64(est.LPSolves), "lp_calls")
			b.ReportMetric(float64(est.Branches), "bnb_nodes")
			root := 0.0
			if est.AllRootIntegral {
				root = 1
			}
			b.ReportMetric(root, "root_integral")
		})
	}
}

// ---- E-S2: explicit vs implicit enumeration on the diamond family ----

func diamondChain(n int) string {
	var sb strings.Builder
	sb.WriteString("main:\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "        beq r1, r0, .La%d\n", i)
		fmt.Fprintf(&sb, "        mul r2, r2, r2\n")
		fmt.Fprintf(&sb, "        jmp .Lb%d\n", i)
		fmt.Fprintf(&sb, ".La%d:  addi r2, r2, 1\n", i)
		fmt.Fprintf(&sb, ".Lb%d:  addi r3, r3, 1\n", i)
	}
	sb.WriteString("        halt\n")
	return sb.String()
}

func BenchmarkExplicitVsImplicit(b *testing.B) {
	for _, n := range []int{4, 8, 12, 16, 20} {
		n := n
		exe, err := asm.Assemble(diamondChain(n))
		if err != nil {
			b.Fatal(err)
		}
		prog, err := cfg.Build(exe)
		if err != nil {
			b.Fatal(err)
		}
		costs := map[string][]march.BlockCost{
			"main": march.CostsOf(prog.Funcs["main"], march.DefaultOptions()),
		}
		b.Run(fmt.Sprintf("explicit/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			var res *pathenum.Result
			for i := 0; i < b.N; i++ {
				res, err = pathenum.Enumerate(prog, "main", pathenum.Options{
					Bounds: map[string][]int64{"main": {}},
					Costs:  costs,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.PathsExplored), "paths")
		})
		b.Run(fmt.Sprintf("implicit/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			var est *ipet.Estimate
			for i := 0; i < b.N; i++ {
				an, err := ipet.New(prog, "main", ipet.DefaultOptions())
				if err != nil {
					b.Fatal(err)
				}
				est, err = an.Estimate()
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(est.LPSolves), "lp_calls")
		})
	}
}

// ---- Ablations (DESIGN.md section 5) ----

// Ablation 1: exact pipeline-adjacency modelling vs the crude
// stall-everywhere model.
func BenchmarkAblationPipelineModel(b *testing.B) {
	bm, _ := bench.ByName("fft")
	for _, exact := range []bool{true, false} {
		exact := exact
		name := "exact"
		if !exact {
			name = "crude"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			opts := ipet.DefaultOptions()
			opts.March.ModelPipeline = exact
			var bt *bench.Built
			for i := 0; i < b.N; i++ {
				var err error
				bt, err = bm.Build(opts)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(bt.Est.WCET.Cycles), "wcet_cycles")
		})
	}
}

// Ablation 2: first-iteration cache splitting (Section IV refinement).
func BenchmarkAblationFirstIterSplit(b *testing.B) {
	bm, _ := bench.ByName("matgen")
	for _, split := range []bool{false, true} {
		split := split
		name := "allmiss"
		if split {
			name = "split"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			opts := ipet.DefaultOptions()
			opts.SplitFirstIteration = split
			var bt *bench.Built
			for i := 0; i < b.N; i++ {
				var err error
				bt, err = bm.Build(opts)
				if err != nil {
					b.Fatal(err)
				}
			}
			meas, err := bt.MeasuredBound()
			if err != nil {
				b.Fatal(err)
			}
			if meas.Hi > bt.Est.WCET.Cycles {
				b.Fatalf("unsound: measured %d > WCET %d", meas.Hi, bt.Est.WCET.Cycles)
			}
			b.ReportMetric(float64(bt.Est.WCET.Cycles), "wcet_cycles")
			b.ReportMetric(float64(meas.Hi), "measured_cycles")
		})
	}
}

// Ablation 3: null constraint-set pruning (Section III.D; dhry 8 -> 3).
func BenchmarkAblationNullPruning(b *testing.B) {
	bm, _ := bench.ByName("dhry")
	for _, prune := range []bool{true, false} {
		prune := prune
		name := "pruned"
		if !prune {
			name = "unpruned"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			opts := ipet.DefaultOptions()
			opts.PruneNullSets = prune
			var bt *bench.Built
			for i := 0; i < b.N; i++ {
				var err error
				bt, err = bm.Build(opts)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(bt.Est.SolvedSets), "sets_solved")
			b.ReportMetric(float64(bt.Est.LPSolves), "lp_calls")
		})
	}
}

// ---- E-S3: parallel constraint-set solving (Workers fan-out) ----

// BenchmarkEstimateParallel times a full Estimate — the sets x {max,min}
// ILP jobs — at several worker-pool sizes over the two multi-set
// benchmarks, then on a 64-set path-explosion workload. Pruning is
// disabled so dhry presents all 8 generated sets (16 jobs) to the pool;
// every worker count produces the identical bound (asserted here and,
// under -race, by TestParallelEstimateDeterminism and
// TestMechanismTogglesIdentical). The pivots metric is the primary cost
// of the solve; BENCH_estimate.json records a reference run.
func BenchmarkEstimateParallel(b *testing.B) {
	for _, name := range []string{"dhry", "des"} {
		bm, ok := bench.ByName(name)
		if !ok {
			b.Fatalf("unknown benchmark %q", name)
		}
		var baseline *ipet.Estimate
		for _, workers := range []int{1, 2, 4, 8} {
			workers := workers
			b.Run(fmt.Sprintf("%s/workers=%d", name, workers), func(b *testing.B) {
				b.ReportAllocs()
				opts := ipet.DefaultOptions()
				opts.PruneNullSets = false
				opts.Workers = workers
				bt, err := bm.Build(opts)
				if err != nil {
					b.Fatal(err)
				}
				var est *ipet.Estimate
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					est, err = bt.An.Estimate()
					if err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				if workers == 1 {
					baseline = est
				} else if baseline != nil &&
					(est.WCET.Cycles != baseline.WCET.Cycles || est.BCET.Cycles != baseline.BCET.Cycles) {
					b.Fatalf("workers=%d bound [%d,%d] != sequential [%d,%d]",
						workers, est.BCET.Cycles, est.WCET.Cycles,
						baseline.BCET.Cycles, baseline.WCET.Cycles)
				}
				b.ReportMetric(float64(est.SolvedSets*2), "ilp_jobs")
				b.ReportMetric(float64(est.WCET.Cycles), "wcet_cycles")
				b.ReportMetric(float64(est.Stats.Pivots), "pivots")
			})
		}
	}

	// The 64-set diamond chain with every mechanism on (dedup, warm
	// dual-simplex re-solves, incumbent pruning), sequential so the pivot
	// counter is deterministic.
	exe, err := asm.Assemble(diamondChain(6))
	if err != nil {
		b.Fatal(err)
	}
	prog, err := cfg.Build(exe)
	if err != nil {
		b.Fatal(err)
	}
	var annots strings.Builder
	annots.WriteString("func main {\n")
	for i := 0; i < 6; i++ {
		fmt.Fprintf(&annots, "    (x%d = 1 & x%d = 0) | (x%d = 0 & x%d = 1)\n",
			3*i+2, 3*i+3, 3*i+2, 3*i+3)
	}
	annots.WriteString("}\n")
	file, err := constraint.Parse(annots.String())
	if err != nil {
		b.Fatal(err)
	}
	b.Run("explosion64/incremental", func(b *testing.B) {
		b.ReportAllocs()
		opts := ipet.DefaultOptions()
		opts.Workers = 1
		an, err := ipet.New(prog, "main", opts)
		if err != nil {
			b.Fatal(err)
		}
		if err := an.Apply(file); err != nil {
			b.Fatal(err)
		}
		var est *ipet.Estimate
		for i := 0; i < b.N; i++ {
			est, err = an.Estimate()
			if err != nil {
				b.Fatal(err)
			}
		}
		if est.NumSets != 64 {
			b.Fatalf("workload has %d sets, want 64", est.NumSets)
		}
		b.ReportMetric(float64(est.Stats.Pivots), "pivots")
		b.ReportMetric(float64(est.Stats.IncumbentSkipped), "incumbent_skipped")
		b.ReportMetric(float64(est.WCET.Cycles), "wcet_cycles")
	})
}
