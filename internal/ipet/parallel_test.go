package ipet

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"cinderella/internal/asm"
	"cinderella/internal/cfg"
	"cinderella/internal/constraint"
)

// manySetProgram builds a chain of n if-then-else diamonds plus the
// annotation that pins each diamond to exactly one arm via a disjunction,
// so the DNF cross product yields 2^n functionality constraint sets — the
// stress workload for the parallel solve scheduler, and the same shape as
// examples/pathexplosion. Diamond i occupies blocks x(3i+1) (condition),
// x(3i+2) (then), x(3i+3) (else).
func manySetProgram(n int) (src, annots string) {
	var sb, ab strings.Builder
	sb.WriteString("main:\n")
	ab.WriteString("func main {\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "        beq r1, r0, .La%d\n", i)
		fmt.Fprintf(&sb, "        mul r2, r2, r2\n")
		fmt.Fprintf(&sb, "        jmp .Lb%d\n", i)
		fmt.Fprintf(&sb, ".La%d:  addi r2, r2, 1\n", i)
		fmt.Fprintf(&sb, ".Lb%d:  addi r3, r3, 1\n", i)
		fmt.Fprintf(&ab, "    (x%d = 1 & x%d = 0) | (x%d = 0 & x%d = 1)\n",
			3*i+2, 3*i+3, 3*i+2, 3*i+3)
	}
	sb.WriteString("        halt\n")
	ab.WriteString("}\n")
	return sb.String(), ab.String()
}

// estimateOpts assembles, analyzes and estimates src with the given option
// mutation applied on top of the defaults.
func estimateOpts(t *testing.T, src, annots string, mutate func(*Options)) *Estimate {
	t.Helper()
	exe, err := asm.Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	prog, err := cfg.Build(exe)
	if err != nil {
		t.Fatalf("cfg: %v", err)
	}
	opts := DefaultOptions()
	if mutate != nil {
		mutate(&opts)
	}
	an, err := New(prog, "main", opts)
	if err != nil {
		t.Fatalf("ipet.New: %v", err)
	}
	if annots != "" {
		f, err := constraint.Parse(annots)
		if err != nil {
			t.Fatalf("annotations: %v", err)
		}
		if err := an.Apply(f); err != nil {
			t.Fatalf("apply: %v", err)
		}
	}
	est, err := an.Estimate()
	if err != nil {
		t.Fatalf("estimate: %v", err)
	}
	return est
}

func estimateWithWorkers(t *testing.T, src, annots string, workers int) *Estimate {
	t.Helper()
	return estimateOpts(t, src, annots, func(o *Options) { o.Workers = workers })
}

// report projects an Estimate onto everything the analysis promises to hold
// invariant across worker counts and solver mechanisms: the two bound
// reports (cycles, counts, winning set) and the set bookkeeping. Work
// counters (pivots, warm/cold splits, incumbent skips) legitimately vary
// with the mechanism mix and — under parallel incumbent pruning — with job
// timing, so they are deliberately excluded here and compared separately
// where they are deterministic.
type report struct {
	WCET, BCET                      BoundReport
	NumSets, PrunedSets, SolvedSets int
}

func reportOf(est *Estimate) report {
	return report{
		WCET:       est.WCET,
		BCET:       est.BCET,
		NumSets:    est.NumSets,
		PrunedSets: est.PrunedSets,
		SolvedSets: est.SolvedSets,
	}
}

// stripTimes returns a copy with the wall-clock fields zeroed so the rest
// of the Estimate can be compared with reflect.DeepEqual.
func stripTimes(est *Estimate) Estimate {
	cp := *est
	cp.Stats.BuildTime = 0
	cp.Stats.SolveTime = 0
	return cp
}

// TestParallelEstimateDeterminism runs the 32-set stress workload at
// several worker counts and requires the bound reports and set statistics
// to match the sequential result exactly. With incumbent pruning disabled,
// every distinct job runs to completion whatever the schedule, so the full
// Estimate — including pivot and solve counters — must be identical too.
// Run under -race in CI this doubles as the regression gate for the worker
// pool.
func TestParallelEstimateDeterminism(t *testing.T) {
	src, annots := manySetProgram(5)
	seq := estimateWithWorkers(t, src, annots, 1)
	if seq.NumSets != 32 {
		t.Fatalf("stress workload has %d sets, want 32", seq.NumSets)
	}
	for _, workers := range []int{2, 4, 8, 0} {
		par := estimateWithWorkers(t, src, annots, workers)
		if !reflect.DeepEqual(reportOf(seq), reportOf(par)) {
			t.Errorf("workers=%d diverges from sequential:\nseq: %+v\npar: %+v",
				workers, reportOf(seq), reportOf(par))
		}
	}
	noPrune := func(w int) *Estimate {
		return estimateOpts(t, src, annots, func(o *Options) {
			o.Workers = w
			o.IncumbentPrune = false
		})
	}
	seqFull := stripTimes(noPrune(1))
	for _, workers := range []int{4, 8} {
		parFull := stripTimes(noPrune(workers))
		if !reflect.DeepEqual(seqFull, parFull) {
			t.Errorf("workers=%d (no pruning) diverges in full stats:\nseq: %+v\npar: %+v",
				workers, seqFull, parFull)
		}
	}
}

// TestParallelBenchmarksIdentical repeats the determinism check on a
// workload where some disjuncts are trivially null and get pruned,
// exercising the pruned-set bookkeeping under the pool.
func TestParallelBenchmarksIdentical(t *testing.T) {
	src, _ := manySetProgram(3)
	// First diamond pinned both ways (one disjunct null: x2 can't be 1 and
	// 0 at once after intersecting with the second formula's x2 = 1).
	annots := `func main {
    (x2 = 1 & x3 = 0) | (x2 = 0 & x3 = 1)
    x2 = 1
    (x5 = 1 & x6 = 0) | (x5 = 0 & x6 = 1)
    (x8 = 1 & x9 = 0) | (x8 = 0 & x9 = 1)
}
`
	seq := estimateWithWorkers(t, src, annots, 1)
	if seq.PrunedSets == 0 {
		t.Fatalf("expected pruned sets in the workload, got %+v", seq)
	}
	for _, workers := range []int{4, 8} {
		par := estimateWithWorkers(t, src, annots, workers)
		if !reflect.DeepEqual(reportOf(seq), reportOf(par)) {
			t.Errorf("workers=%d diverges:\nseq: %+v\npar: %+v",
				workers, reportOf(seq), reportOf(par))
		}
	}
}

// TestMechanismTogglesIdentical is the correctness gate for the incremental
// machinery on the 64-set path-explosion workload: with incumbent pruning
// on and off, at every worker count, the estimate (set dedup, warm starts,
// winner finishing) must report exactly what the exhaustive reference
// does.
func TestMechanismTogglesIdentical(t *testing.T) {
	src, annots := manySetProgram(6)
	ref, err := analyzerWith(t, src, annots, nil).ExhaustiveEstimate()
	if err != nil {
		t.Fatal(err)
	}
	if ref.NumSets != 64 {
		t.Fatalf("workload has %d sets, want 64", ref.NumSets)
	}
	want := reportOf(ref)
	for _, prune := range []bool{false, true} {
		for _, workers := range []int{1, 3, 8} {
			est := estimateOpts(t, src, annots, func(o *Options) {
				o.Workers, o.IncumbentPrune = workers, prune
			})
			if got := reportOf(est); !reflect.DeepEqual(want, got) {
				t.Errorf("prune=%v workers=%d diverges:\nwant: %+v\ngot:  %+v",
					prune, workers, want, got)
			}
		}
	}
}

// TestPivotReduction is the performance gate of the incremental machinery:
// on the 64-set workload, warm starts plus incumbent pruning must cut total
// simplex pivots at least in half relative to the exhaustive cold path
// (ExhaustiveEstimate). Run sequentially so both counters are
// deterministic.
func TestPivotReduction(t *testing.T) {
	src, annots := manySetProgram(6)
	cold, err := analyzerWith(t, src, annots, nil).ExhaustiveEstimate()
	if err != nil {
		t.Fatal(err)
	}
	fast := estimateOpts(t, src, annots, func(o *Options) { o.Workers = 1 })
	if !reflect.DeepEqual(reportOf(cold), reportOf(fast)) {
		t.Fatalf("bounds diverge:\ncold: %+v\nfast: %+v", reportOf(cold), reportOf(fast))
	}
	if fast.Stats.Pivots*2 > cold.Stats.Pivots {
		t.Errorf("pivots: cold %d, all mechanisms %d — want at least a 2x reduction",
			cold.Stats.Pivots, fast.Stats.Pivots)
	}
	t.Logf("pivots: cold %d, incremental %d (%.1fx)",
		cold.Stats.Pivots, fast.Stats.Pivots,
		float64(cold.Stats.Pivots)/float64(fast.Stats.Pivots))
}

// TestParallelFor pins the pool's stop rules at one and at four workers:
// the result is the lowest failing index's error, every lower index has
// run, and a done context starts no iteration at all.
func TestParallelFor(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ran := make([]atomic.Bool, 100)
		err := parallelFor(context.Background(), len(ran), workers, func(_ context.Context, i int) error {
			ran[i].Store(true)
			if i == 30 || i == 70 {
				return fmt.Errorf("fail %d", i)
			}
			return nil
		})
		if err == nil || err.Error() != "fail 30" {
			t.Fatalf("workers=%d: error %v, want fail 30", workers, err)
		}
		for i := 0; i < 30; i++ {
			if !ran[i].Load() {
				t.Fatalf("workers=%d: index %d below the failure never ran", workers, i)
			}
		}

		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		calls := 0
		err = parallelFor(ctx, 10, workers, func(context.Context, int) error {
			calls++
			return nil
		})
		if !errors.Is(err, context.Canceled) || calls != 0 {
			t.Fatalf("workers=%d: cancelled context gave %v after %d calls", workers, err, calls)
		}
	}
}

// TestSolveSetCancelled: solveSet must notice a dead context before paying
// for a simplex run, so a cancelled estimate drains its queued jobs without
// burning a solve each.
func TestSolveSetCancelled(t *testing.T) {
	src, annots := manySetProgram(2)
	exe, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := cfg.Build(exe)
	if err != nil {
		t.Fatal(err)
	}
	an, err := New(prog, "main", DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	f, err := constraint.Parse(annots)
	if err != nil {
		t.Fatal(err)
	}
	if err := an.Apply(f); err != nil {
		t.Fatal(err)
	}
	plan, _, err := an.solverSetup()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := an.solveSet(ctx, plan, &plan.dirs[0], plan.sets[0], 0, false)
	if r.err == nil {
		t.Fatal("solveSet on a cancelled context returned no error")
	}
	if r.stats.Pivots != 0 || r.stats.LPSolves != 0 || r.warm || r.cold {
		t.Fatalf("solveSet did work despite cancellation: %+v", r)
	}
}

// TestParallelUnboundedDiagnostic: the missing-loop-bound diagnostic must
// survive the parallel path with cancellation of sibling jobs.
func TestParallelUnboundedDiagnostic(t *testing.T) {
	src := `
main:
        add r2, r1, r0
.Lhead: slti r3, r2, 10
        beq r3, r0, .Lexit
        addi r2, r2, 1
        jmp .Lhead
.Lexit: halt
`
	// A disjunction so both directions have several jobs in flight.
	annots := `func main {
    (x1 = 1) | (x1 = 1 & x4 = 1)
}
`
	exe, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := cfg.Build(exe)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		opts := DefaultOptions()
		opts.Workers = workers
		an, err := New(prog, "main", opts)
		if err != nil {
			t.Fatal(err)
		}
		f, err := constraint.Parse(annots)
		if err != nil {
			t.Fatal(err)
		}
		if err := an.Apply(f); err != nil {
			t.Fatal(err)
		}
		_, err = an.Estimate()
		if err == nil || !strings.Contains(err.Error(), "loop lacks a bound") {
			t.Fatalf("workers=%d: error = %v, want unbounded-loop diagnostic", workers, err)
		}
		if !strings.Contains(err.Error(), "main loop 1") {
			t.Fatalf("workers=%d: diagnostic misses the loop name: %v", workers, err)
		}
	}
}

// TestEstimateContextCancelled: an already-cancelled context aborts the
// solve instead of returning a bound.
func TestEstimateContextCancelled(t *testing.T) {
	src, annots := manySetProgram(4)
	exe, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := cfg.Build(exe)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		opts := DefaultOptions()
		opts.Workers = workers
		an, err := New(prog, "main", opts)
		if err != nil {
			t.Fatal(err)
		}
		f, err := constraint.Parse(annots)
		if err != nil {
			t.Fatal(err)
		}
		if err := an.Apply(f); err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := an.EstimateContext(ctx); err == nil {
			t.Fatalf("workers=%d: cancelled estimate succeeded", workers)
		}
	}
}

// TestLazyWarmRowsConcurrent drives the once-per-(direction, atom) warm
// lowering from a worker pool: on the 256-set chain every atom joins 128
// sets, so four workers race to lower the same rows on first use. The
// estimate must equal the sequential one counter for counter (incumbent
// pruning off makes every job run to completion), and every atom must end
// up lowered in both directions. CI runs it under -race -count=10.
func TestLazyWarmRowsConcurrent(t *testing.T) {
	src, annots := manySetProgram(8)
	noPrune := func(workers int) func(*Options) {
		return func(o *Options) { o.Workers, o.IncumbentPrune = workers, false }
	}
	seq := stripTimes(estimateOpts(t, src, annots, noPrune(1)))

	exe, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := cfg.Build(exe)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	noPrune(4)(&opts)
	an, err := New(prog, "main", opts)
	if err != nil {
		t.Fatal(err)
	}
	f, err := constraint.Parse(annots)
	if err != nil {
		t.Fatal(err)
	}
	if err := an.Apply(f); err != nil {
		t.Fatal(err)
	}
	est, err := an.Estimate()
	if err != nil {
		t.Fatal(err)
	}
	if got := stripTimes(est); !reflect.DeepEqual(got, seq) {
		t.Fatalf("Workers=4 estimate differs from sequential:\n got %+v\nwant %+v", got, seq)
	}
	if est.NumSets != 256 || est.Stats.WarmSolves == 0 {
		t.Fatalf("expected 256 sets solved warm, got %d sets, %d warm solves", est.NumSets, est.Stats.WarmSolves)
	}
	for di, d := range an.plan.dirs {
		if len(d.warmRows) != len(an.atoms) {
			t.Fatalf("direction %d holds %d warm rows for %d atoms", di, len(d.warmRows), len(an.atoms))
		}
		for k := range d.warmRows {
			if d.warmRows[k].row == nil {
				t.Errorf("direction %d: atom %d never lowered", di, k)
			}
		}
	}
}
