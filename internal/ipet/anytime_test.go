package ipet

import (
	"context"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"cinderella/internal/asm"
	"cinderella/internal/cfg"
	"cinderella/internal/constraint"
)

// analyzerWith assembles src, applies annots, and returns the analyzer so
// tests can drive EstimateContext directly.
func analyzerWith(t *testing.T, src, annots string, mutate func(*Options)) *Analyzer {
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
	return an
}

// checkBrackets asserts the anytime soundness property: a degraded
// estimate must enclose the exact one (WCET from above, BCET from below),
// and Exact must imply equality.
func checkBrackets(t *testing.T, label string, exact, got *Estimate) {
	t.Helper()
	if got.WCET.Cycles < exact.WCET.Cycles {
		t.Errorf("%s: WCET %d below exact %d — unsound", label, got.WCET.Cycles, exact.WCET.Cycles)
	}
	if got.BCET.Cycles > exact.BCET.Cycles {
		t.Errorf("%s: BCET %d above exact %d — unsound", label, got.BCET.Cycles, exact.BCET.Cycles)
	}
	if got.WCET.Exact && got.WCET.Cycles != exact.WCET.Cycles {
		t.Errorf("%s: WCET claims exact but %d != %d", label, got.WCET.Cycles, exact.WCET.Cycles)
	}
	if got.BCET.Exact && got.BCET.Cycles != exact.BCET.Cycles {
		t.Errorf("%s: BCET claims exact but %d != %d", label, got.BCET.Cycles, exact.BCET.Cycles)
	}
	for _, rep := range []struct {
		name string
		r    BoundReport
	}{{"WCET", got.WCET}, {"BCET", got.BCET}} {
		if rep.r.Exact && rep.r.Slack != 0 {
			t.Errorf("%s: %s exact with slack %d", label, rep.name, rep.r.Slack)
		}
		if rep.r.Slack < -1 {
			t.Errorf("%s: %s slack %d below the unknown sentinel", label, rep.name, rep.r.Slack)
		}
	}
	// Slack is a claim about the true bound's distance from the reported
	// one; verify it against the exact oracle when known.
	if s := got.WCET.Slack; s >= 0 && exact.WCET.Cycles < got.WCET.Cycles-s {
		t.Errorf("%s: WCET slack %d does not cover exact %d (reported %d)",
			label, s, exact.WCET.Cycles, got.WCET.Cycles)
	}
	if s := got.BCET.Slack; s >= 0 && exact.BCET.Cycles > got.BCET.Cycles+s {
		t.Errorf("%s: BCET slack %d does not cover exact %d (reported %d)",
			label, s, exact.BCET.Cycles, got.BCET.Cycles)
	}
}

// TestAnytimeDegradationOn64SetChain is the acceptance gate: on the 64-set
// path-explosion chain, forcing degradation via pivot budget, wall-clock
// deadline, or set widening must return Exact=false bounds that enclose
// the unrestricted run's exact bounds, never an error.
func TestAnytimeDegradationOn64SetChain(t *testing.T) {
	src, annots := manySetProgram(6)
	exact := estimateOpts(t, src, annots, func(o *Options) { o.Workers = 1 })
	if exact.NumSets != 64 {
		t.Fatalf("workload has %d sets, want 64", exact.NumSets)
	}
	if !exact.WCET.Exact || !exact.BCET.Exact {
		t.Fatalf("unbudgeted run not exact: WCET %+v BCET %+v", exact.WCET, exact.BCET)
	}
	cases := []struct {
		label  string
		mutate func(*Options)
	}{
		{"budget=1", func(o *Options) { o.Budget = 1 }},
		{"budget=1/workers=8", func(o *Options) { o.Budget = 1; o.Workers = 8 }},
		{"deadline=1ns", func(o *Options) { o.Deadline = time.Nanosecond }},
		{"deadline=1ns/workers=8", func(o *Options) { o.Deadline = time.Nanosecond; o.Workers = 8 }},
		{"maxsets=8+widen", func(o *Options) { o.MaxSets = 8; o.WidenSets = true }},
	}
	for _, tc := range cases {
		got := estimateOpts(t, src, annots, tc.mutate)
		checkBrackets(t, tc.label, exact, got)
		if got.WCET.Exact && got.BCET.Exact && got.Stats.SetsUnsolved == 0 && got.Stats.SetsWidened == 0 {
			t.Errorf("%s: nothing degraded — the workload no longer exercises the anytime path", tc.label)
		}
		if tc.label == "budget=1" {
			if got.WCET.Exact || got.BCET.Exact {
				t.Errorf("budget=1: degraded bound claims Exact: WCET %+v BCET %+v", got.WCET, got.BCET)
			}
			if got.WCET.SetIndex != -1 || got.WCET.Counts != nil {
				t.Errorf("budget=1: envelope report names a witness set: %+v", got.WCET)
			}
			if got.Stats.SetsUnsolved == 0 {
				t.Errorf("budget=1: SetsUnsolved = 0, want all jobs gated")
			}
		}
	}
}

// TestBudgetDeterministicDegradation mirrors TestMechanismTogglesIdentical
// under full pivot-budget degradation: the budget is spent by the plan's
// own base solves, so every per-set job is gated before launch and the
// report is the pure relaxation envelope — bit-identical at every worker
// count, with incumbent pruning on or off.
func TestBudgetDeterministicDegradation(t *testing.T) {
	src, annots := manySetProgram(6)
	run := func(mutate func(*Options)) *Estimate {
		return estimateOpts(t, src, annots, func(o *Options) {
			o.Budget = 1
			mutate(o)
		})
	}
	baseline := run(func(o *Options) { o.Workers = 1 })
	if baseline.Stats.SetsUnsolved == 0 {
		t.Fatalf("budget 1 did not gate the solve jobs: %+v", baseline.Stats)
	}
	if baseline.WCET.Exact || baseline.WCET.SetIndex != -1 || baseline.WCET.Slack != -1 {
		t.Fatalf("fully degraded WCET should be the anonymous envelope: %+v", baseline.WCET)
	}
	want := reportOf(baseline)
	for _, prune := range []bool{false, true} {
		for _, workers := range []int{1, 3, 8} {
			est := run(func(o *Options) { o.Workers, o.IncumbentPrune = workers, prune })
			if got := reportOf(est); !reflect.DeepEqual(want, got) {
				t.Errorf("prune=%v workers=%d diverges:\nwant: %+v\ngot:  %+v",
					prune, workers, want, got)
			}
			if est.Stats.SetsUnsolved == 0 {
				t.Errorf("prune=%v workers=%d: no jobs gated — budget no longer covered by setup pivots",
					prune, workers)
			}
		}
	}
}

// TestEnvelopeIsBaseRelaxation pins the envelope's definition: under full
// degradation the reported WCET/BCET are the base LP relaxation optima
// rounded inward to integers.
func TestEnvelopeIsBaseRelaxation(t *testing.T) {
	src, annots := manySetProgram(4)
	an := analyzerWith(t, src, annots, func(o *Options) { o.Budget = 1; o.Workers = 1 })
	plan, _, err := an.solverSetup()
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range plan.dirs {
		if !d.relaxOK {
			t.Fatalf("budgeted plan has no relaxation envelope")
		}
	}
	est, err := an.Estimate()
	if err != nil {
		t.Fatal(err)
	}
	wantW := int64(math.Floor(plan.dirs[0].relax + 1e-6))
	wantB := int64(math.Ceil(plan.dirs[1].relax - 1e-6))
	if est.WCET.Cycles != wantW || est.BCET.Cycles != wantB {
		t.Errorf("envelope [%d, %d], want [floor %g, ceil %g] = [%d, %d]",
			est.BCET.Cycles, est.WCET.Cycles, plan.dirs[1].relax, plan.dirs[0].relax, wantB, wantW)
	}
}

// TestDeadlineVsUserCancellation is the regression test for the
// cancellation/budget distinction: the analyzer's own deadline degrades
// to the sound envelope, while the caller's context — cancelled or
// expired — remains an error, with or without an analyzer deadline.
func TestDeadlineVsUserCancellation(t *testing.T) {
	src, annots := manySetProgram(5)
	for _, workers := range []int{1, 4} {
		// Analyzer deadline: sound degraded bound, no error.
		an := analyzerWith(t, src, annots, func(o *Options) {
			o.Workers = workers
			o.Deadline = time.Nanosecond
		})
		est, err := an.EstimateContext(context.Background())
		if err != nil {
			t.Fatalf("workers=%d: deadline expiry errored: %v", workers, err)
		}
		if est.WCET.Exact || est.BCET.Exact {
			t.Errorf("workers=%d: 1ns deadline produced an exact bound: %+v", workers, est.WCET)
		}
		if !est.Stats.DeadlineHit {
			t.Errorf("workers=%d: Stats.DeadlineHit not set", workers)
		}

		// User cancellation: error, even though a deadline is configured.
		an = analyzerWith(t, src, annots, func(o *Options) {
			o.Workers = workers
			o.Deadline = time.Minute
		})
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := an.EstimateContext(ctx); err == nil {
			t.Fatalf("workers=%d: cancelled context succeeded despite deadline option", workers)
		}

		// User deadline on the caller's context: also an error — only the
		// analyzer's internal deadline opts into degradation.
		an = analyzerWith(t, src, annots, func(o *Options) { o.Workers = workers })
		expiredCtx, cancel2 := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
		defer cancel2()
		if _, err := an.EstimateContext(expiredCtx); err == nil {
			t.Fatalf("workers=%d: expired caller context succeeded", workers)
		}
	}
}

// TestWidenSetsOverflow: past MaxSets the exact expansion refuses, while
// WidenSets degrades to at most MaxSets widened sets whose bound encloses
// the exact one.
func TestWidenSetsOverflow(t *testing.T) {
	src, annots := manySetProgram(4)
	exact := estimateOpts(t, src, annots, func(o *Options) { o.Workers = 1 })

	an := analyzerWith(t, src, annots, func(o *Options) { o.MaxSets = 4; o.Workers = 1 })
	if _, err := an.Estimate(); err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("MaxSets=4 without widening: err = %v, want DNF overflow", err)
	}

	wide := estimateOpts(t, src, annots, func(o *Options) {
		o.MaxSets = 4
		o.WidenSets = true
		o.Workers = 1
	})
	if wide.NumSets > 4 {
		t.Fatalf("widened expansion kept %d sets, cap 4", wide.NumSets)
	}
	if wide.Stats.SetsWidened == 0 {
		t.Fatalf("no sets flagged widened: %+v", wide.Stats)
	}
	checkBrackets(t, "maxsets=4+widen", exact, wide)
	if wide.WCET.Exact || wide.BCET.Exact {
		t.Errorf("widened-winner bound claims Exact: WCET %+v BCET %+v", wide.WCET, wide.BCET)
	}
	// The widened report still names its winning (widened) set and carries
	// counts from a real solve of it.
	if wide.WCET.SetIndex < 0 || wide.WCET.Counts == nil {
		t.Errorf("widened WCET lost its witness: %+v", wide.WCET)
	}
}

// TestCrashedSetDegradesNotDrops: a panicking per-set solve must be
// absorbed into the relaxation envelope — never silently dropped, never a
// process crash — and must surface as an error only when no envelope
// exists to absorb it.
func TestCrashedSetDegradesNotDrops(t *testing.T) {
	src, annots := manySetProgram(3)
	exact := estimateOpts(t, src, annots, func(o *Options) { o.Workers = 1 })

	testCrashJob.Store(1) // job 0: first distinct set, WCET direction
	defer testCrashJob.Store(0)
	for _, workers := range []int{1, 4} {
		got := estimateOpts(t, src, annots, func(o *Options) { o.Workers = workers })
		checkBrackets(t, "crashed-job", exact, got)
		if got.WCET.Exact {
			t.Errorf("workers=%d: WCET with a crashed set claims Exact", workers)
		}
		if !got.BCET.Exact {
			t.Errorf("workers=%d: BCET direction unaffected by the crash, want Exact: %+v", workers, got.BCET)
		}
		if got.Stats.SetsWidened == 0 || got.Stats.SetsUnsolved == 0 {
			t.Errorf("workers=%d: crash not accounted: %+v", workers, got.Stats)
		}
	}

	// Without a warm base or budget there is no envelope; the crash must
	// surface with its message instead of a silent drop. A loop without a
	// bound leaves the base LP unbounded, a base the warm start cannot
	// solve; its one (empty) set is job 0.
	loop := "main:\n.L:     addi r1, r1, 1\n        bne r1, r0, .L\n        halt\n"
	an := analyzerWith(t, loop, "", func(o *Options) { o.Workers = 1 })
	_, err := an.Estimate()
	if err == nil || !strings.Contains(err.Error(), "crashed") {
		t.Fatalf("crash with no envelope: err = %v, want crash diagnostic", err)
	}
	if !strings.Contains(err.Error(), "test-injected") {
		t.Fatalf("crash diagnostic lost the panic message: %v", err)
	}
}

// TestUnbudgetedReportsUnchanged pins the compatibility guarantee: with no
// deadline, budget, or widening, the full Estimate — including work
// counters — is identical to one produced with the new fields ignored,
// and every report is Exact with zero slack.
func TestUnbudgetedReportsUnchanged(t *testing.T) {
	src, annots := manySetProgram(5)
	est := estimateOpts(t, src, annots, func(o *Options) { o.Workers = 1 })
	if !est.WCET.Exact || !est.BCET.Exact || est.WCET.Slack != 0 || est.BCET.Slack != 0 {
		t.Errorf("default run not exact: WCET %+v BCET %+v", est.WCET, est.BCET)
	}
	if est.Stats.SetsWidened != 0 || est.Stats.SetsUnsolved != 0 || est.Stats.DeadlineHit {
		t.Errorf("default run reports degradation: %+v", est.Stats)
	}
}
