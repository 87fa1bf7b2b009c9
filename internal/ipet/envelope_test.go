package ipet_test

import (
	"testing"

	"cinderella/internal/asm"
	"cinderella/internal/bench"
	"cinderella/internal/cc"
	"cinderella/internal/cfg"
	"cinderella/internal/constraint"
	"cinderella/internal/ipet"
)

// envelopeCase is one program the envelope test estimates.
type envelopeCase struct {
	name, root, annots string
	prog               *cfg.Program
}

func envelopeCases(t *testing.T) []envelopeCase {
	t.Helper()
	var cases []envelopeCase
	for _, b := range bench.All() {
		exe, _, err := cc.Build(b.Source)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		prog, err := cfg.Build(exe)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		cases = append(cases, envelopeCase{b.Name, b.Root, b.Annotations, prog})
	}
	asmText, annots := bench.ExplosionAsm(6)
	exe, err := asm.Assemble(asmText)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := cfg.Build(exe)
	if err != nil {
		t.Fatal(err)
	}
	return append(cases, envelopeCase{"explosion64", "main", annots, prog})
}

func estimateCase(t *testing.T, c envelopeCase, opts ipet.Options) *ipet.Estimate {
	t.Helper()
	an, err := ipet.New(c.prog, c.root, opts)
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	f, err := constraint.Parse(c.annots)
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	if err := an.Apply(f); err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	est, err := an.Estimate()
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	return est
}

// TestBudgetEnvelopeSound estimates every Table I program and the 64-set
// chain under a one-pivot budget, and again unbudgeted with the first solve
// job (a WCET set) crashing: each degraded report must enclose the exact
// bounds, WCET at or above and BCET at or below. whetstone is pinned: its
// base relaxation comes back as 27,972,759.999993, and rounding it with a
// fixed 1e-6 margin gave the envelope 27,972,759, one cycle below the
// exact WCET.
func TestBudgetEnvelopeSound(t *testing.T) {
	for _, c := range envelopeCases(t) {
		opts := ipet.DefaultOptions()
		opts.Workers = 1
		exact := estimateCase(t, c, opts)
		if !exact.WCET.Exact || !exact.BCET.Exact {
			t.Fatalf("%s: unbudgeted estimate is not exact", c.name)
		}
		budget := opts
		budget.Budget = 1
		for _, crash := range []bool{false, true} {
			run := budget
			if crash {
				run = opts
				ipet.SetTestCrashJob(1)
			}
			got := estimateCase(t, c, run)
			ipet.SetTestCrashJob(0)
			if got.Stats.SetsUnsolved == 0 || got.WCET.Exact {
				t.Errorf("%s crash=%v: WCET not degraded (%d sets unsolved)", c.name, crash, got.Stats.SetsUnsolved)
			}
			if got.WCET.Cycles < exact.WCET.Cycles {
				t.Errorf("%s crash=%v: WCET envelope %d below the exact %d", c.name, crash, got.WCET.Cycles, exact.WCET.Cycles)
			}
			if got.BCET.Cycles > exact.BCET.Cycles {
				t.Errorf("%s crash=%v: BCET envelope %d above the exact %d", c.name, crash, got.BCET.Cycles, exact.BCET.Cycles)
			}
			if c.name == "whetstone" && got.WCET.Cycles != 27972760 {
				t.Errorf("whetstone crash=%v: WCET envelope %d, want 27972760", crash, got.WCET.Cycles)
			}
		}
	}
}
