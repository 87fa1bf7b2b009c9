package ipet

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"cinderella/internal/asm"
	"cinderella/internal/cfg"
	"cinderella/internal/constraint"
	"cinderella/internal/ilp"
)

// buildProg assembles a test program straight to its CFG.
func buildProg(t *testing.T, src string) *cfg.Program {
	t.Helper()
	exe, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := cfg.Build(exe)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// uncertifiedView strips the certificate-layer fields from a report so a
// certified run can be compared field-for-field against an uncertified one:
// the promise is that Certify changes only those fields, never the bounds,
// counts, or winning sets.
func uncertifiedView(r report) report {
	r.WCET.Certified, r.WCET.RecheckedSets = false, 0
	r.BCET.Certified, r.BCET.RecheckedSets = false, 0
	return r
}

// TestCertifiedBitIdentical: enabling Certify must not move any bound,
// count, or winning set at any worker count — the exact layer only checks
// (and, on a healthy solver, only confirms). On the 32-set stress workload
// every claim ends root-integral on the warm path with a certificate, so a
// healthy solver also reports zero certificate failures.
func TestCertifiedBitIdentical(t *testing.T) {
	src, annots := manySetProgram(5)
	plain := estimateWithWorkers(t, src, annots, 1)
	for _, workers := range []int{1, 4, 8} {
		cert := estimateOpts(t, src, annots, func(o *Options) {
			o.Workers = workers
			o.Certify = true
		})
		if got, want := uncertifiedView(reportOf(cert)), reportOf(plain); !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: certified run diverges from uncertified:\ncert:  %+v\nplain: %+v",
				workers, got, want)
		}
		if !cert.WCET.Certified || !cert.BCET.Certified {
			t.Errorf("workers=%d: bounds not certified: WCET=%v BCET=%v",
				workers, cert.WCET.Certified, cert.BCET.Certified)
		}
		if cert.Stats.CertFailures != 0 {
			t.Errorf("workers=%d: healthy solver reported %d certificate failures",
				workers, cert.Stats.CertFailures)
		}
	}
	if plain.WCET.Certified || plain.BCET.Certified {
		t.Errorf("uncertified run claims certification: %+v", reportOf(plain))
	}
}

// TestCertifyCheckData repeats the bit-identity check on the paper's
// check_data program: the certified bounds, counts, and winning sets must
// match the uncertified run exactly, with every claim certificate-verified.
func TestCertifyCheckData(t *testing.T) {
	prog := checkDataProgram(t)
	plain := oneShot(t, prog, "check_data", checkDataAnnots, DefaultOptions())
	opts := DefaultOptions()
	opts.Certify = true
	cert := oneShot(t, prog, "check_data", checkDataAnnots, opts)
	if got, want := uncertifiedView(reportOf(cert)), reportOf(plain); !reflect.DeepEqual(got, want) {
		t.Errorf("certified check_data diverges from uncertified:\ncert:  %+v\nplain: %+v", got, want)
	}
	if !cert.WCET.Certified || !cert.BCET.Certified {
		t.Errorf("check_data bounds not certified: %+v / %+v", cert.WCET, cert.BCET)
	}
	if cert.Stats.CertFailures != 0 {
		t.Errorf("healthy solver reported %d certificate failures", cert.Stats.CertFailures)
	}
}

// TestCertifyInfeasibleClaims: a structurally infeasible conjunctive set
// (x2 = 1 & x3 = 1 contradicts the diamond's flow equation x2 + x3 = 1, a
// two-variable fact the trivial-null pruner cannot see) produces an
// infeasibility claim, which carries no certificate and must be re-proved
// by the exact solver — RecheckedSets is nonzero while the bounds match the
// uncertified run.
func TestCertifyInfeasibleClaims(t *testing.T) {
	src, _ := manySetProgram(2)
	annots := `func main {
    (x2 = 1 & x3 = 1) | (x2 = 0 & x3 = 1)
    (x5 = 1 & x6 = 0) | (x5 = 0 & x6 = 1)
}
`
	plain := estimateWithWorkers(t, src, annots, 1)
	cert := estimateOpts(t, src, annots, func(o *Options) {
		o.Workers = 1
		o.Certify = true
	})
	if got, want := uncertifiedView(reportOf(cert)), reportOf(plain); !reflect.DeepEqual(got, want) {
		t.Errorf("certified run diverges from uncertified:\ncert:  %+v\nplain: %+v", got, want)
	}
	if !cert.WCET.Certified || !cert.BCET.Certified {
		t.Errorf("bounds not certified: %+v / %+v", cert.WCET, cert.BCET)
	}
	if cert.Stats.ExactResolves == 0 {
		t.Errorf("infeasibility claims were not exact-resolved: %+v", cert.Stats)
	}
	if want := (ResolveCauses{Infeasible: cert.Stats.ExactResolves}); cert.Stats.Resolves != want {
		t.Errorf("exact resolves by cause {%v}, want all infeasible", cert.Stats.Resolves)
	}
	if cert.WCET.RecheckedSets == 0 || cert.BCET.RecheckedSets == 0 {
		t.Errorf("expected rechecked sets in both directions: %+v / %+v", cert.WCET, cert.BCET)
	}
}

// TestCertifyFaultInjection corrupts each instrumented float64 site of the
// production solvers in turn and requires the certificate layer to catch
// the damage: the certified bounds must come back bit-identical to the
// unfaulted oracle, recovered through exact rational re-solves. The
// objective fault is the deterministic certificate-rejection case: the
// solver optimizes a perturbed objective, lands on the wrong vertex, and
// the (honestly reported) basis cannot prove the true objective optimal.
//
// The injector is process-global, so no subtest runs parallel, and
// ilp.SetSelfCheck must stay off (the dense differential oracle is
// deliberately unfaulted and would panic by design).
func TestCertifyFaultInjection(t *testing.T) {
	src, annots := faultProgram()
	oracle := estimateOpts(t, src, annots, certifyOneWorker)
	if !oracle.WCET.Certified || !oracle.BCET.Certified {
		t.Fatalf("oracle run not certified: %+v / %+v", oracle.WCET, oracle.BCET)
	}
	for _, tc := range certFaults {
		t.Run(tc.name, func(t *testing.T) {
			ilp.SetFaultInjector(tc.fault)
			defer ilp.SetFaultInjector(nil)
			est := estimateOpts(t, src, annots, certifyOneWorker)
			if est.WCET.Cycles != oracle.WCET.Cycles || est.BCET.Cycles != oracle.BCET.Cycles {
				t.Errorf("faulted bounds [%d, %d] diverge from oracle [%d, %d]",
					est.BCET.Cycles, est.WCET.Cycles, oracle.BCET.Cycles, oracle.WCET.Cycles)
			}
			if !est.WCET.Certified || !est.BCET.Certified {
				t.Errorf("faulted run not certified: WCET=%v BCET=%v",
					est.WCET.Certified, est.BCET.Certified)
			}
			if est.Stats.ExactResolves == 0 {
				t.Errorf("fault caused no exact resolves; the corruption went unnoticed: %+v", est.Stats)
			}
			if tc.wantCertFail && est.Stats.CertFailures == 0 {
				t.Errorf("expected rejected certificates, got stats %+v", est.Stats)
			}
			// A fault shows as a rejected certificate or as suspect pivots,
			// never as a claim the solver could not certify anyway.
			if c := est.Stats.Resolves; c.Suspect+c.Rejected != est.Stats.ExactResolves {
				t.Errorf("exact resolves %d by cause {%v}, want all rejected or suspect",
					est.Stats.ExactResolves, c)
			}
			t.Logf("recovered: %d exact resolves (%v), %d certificate failures, %d suspect pivots",
				est.Stats.ExactResolves, est.Stats.Resolves, est.Stats.CertFailures, est.Stats.SuspectPivots)
		})
	}
}

// faultProgram is the fault-injection workload: three diamonds with only
// the first pinned. The remaining two are chosen by the objective, so
// corrupting the objective genuinely moves the optimum (fully pinned sets
// are single points and mask objective faults).
func faultProgram() (src, annots string) {
	src, _ = manySetProgram(3)
	return src, `func main {
    (x2 = 1 & x3 = 0) | (x2 = 0 & x3 = 1)
}
`
}

func certifyOneWorker(o *Options) {
	o.Workers = 1
	o.Certify = true
}

// certFaults corrupts each instrumented float64 site of the production
// solvers in turn.
var certFaults = []struct {
	name  string
	fault func(ilp.FaultSite, float64) float64
	// wantCertFail marks faults that deterministically produce rejected
	// certificates (not merely claims that skip certification).
	wantCertFail bool
}{
	{
		name: "flipped pivot sign",
		fault: func(s ilp.FaultSite, v float64) float64 {
			if s == ilp.FaultPivot {
				return -v
			}
			return v
		},
	},
	{
		name: "truncated objective coefficient",
		fault: func(s ilp.FaultSite, v float64) float64 {
			if s == ilp.FaultObjective {
				return math.Trunc(v / 16)
			}
			return v
		},
		wantCertFail: true,
	},
	{
		name: "stale warm-start basis",
		fault: func(s ilp.FaultSite, v float64) float64 {
			if s == ilp.FaultWarmBase {
				return v + 1
			}
			return v
		},
	},
}

// TestWitnessConsistencyUnderFaults: the counts reported with a certified
// bound are a witness of it — priced at the block costs they add up to the
// reported cycles — even when every float solve is corrupted. Under these
// faults the winners' finishing warm solves fail their checks, so the
// counts come from the cold finish and its exact backing.
func TestWitnessConsistencyUnderFaults(t *testing.T) {
	src, annots := faultProgram()
	for _, tc := range certFaults {
		t.Run(tc.name, func(t *testing.T) {
			ilp.SetFaultInjector(tc.fault)
			defer ilp.SetFaultInjector(nil)
			an := analyzerWith(t, src, annots, certifyOneWorker)
			est, err := an.Estimate()
			if err != nil {
				t.Fatal(err)
			}
			for _, side := range []struct {
				name  string
				rep   BoundReport
				worst bool
			}{{"WCET", est.WCET, true}, {"BCET", est.BCET, false}} {
				if got := witnessCycles(an.Session, side.rep.Counts, side.worst); got != side.rep.Cycles {
					t.Errorf("%s counts price to %d cycles, report says %d", side.name, got, side.rep.Cycles)
				}
			}
			t.Logf("%d cold solves", est.Stats.ColdSolves)
		})
	}
}

// witnessCycles prices per-function block counts at the session's block
// costs, worst-case or best-case.
func witnessCycles(s *Session, counts map[string][]int64, worst bool) int64 {
	var total int64
	for fn, cs := range counts {
		costs := s.BlockCosts(fn)
		for b, n := range cs {
			if worst {
				total += n * costs[b].Worst
			} else {
				total += n * costs[b].Best
			}
		}
	}
	return total
}

// TestCertifySessionCache: a certifying estimate must never trust an
// uncertified cached outcome, and its own certified outcomes must satisfy
// later certifying estimates entirely from cache.
func TestCertifySessionCache(t *testing.T) {
	prog := checkDataProgram(t)
	opts := DefaultOptions()
	opts.Workers = 1
	sess, err := Prepare(prog, "check_data", opts)
	if err != nil {
		t.Fatal(err)
	}
	annots := parseAnnots(t, checkDataAnnots)

	// Uncertified estimate populates the cache with uncertified outcomes.
	plain, err := sess.Estimate(annots)
	if err != nil {
		t.Fatal(err)
	}
	certOf := func() *Estimate {
		an, err := sess.Analyzer(annots)
		if err != nil {
			t.Fatal(err)
		}
		an.Opts.Certify = true
		est, err := an.Estimate()
		if err != nil {
			t.Fatal(err)
		}
		return est
	}

	// The certifying run must bypass every uncertified hit and re-solve.
	cert1 := certOf()
	if cert1.Stats.CacheHits != 0 {
		t.Errorf("certifying run accepted %d uncertified cache hits", cert1.Stats.CacheHits)
	}
	if !cert1.WCET.Certified || !cert1.BCET.Certified {
		t.Fatalf("session certify run not certified: %+v / %+v", cert1.WCET, cert1.BCET)
	}
	if cert1.WCET.Cycles != plain.WCET.Cycles || cert1.BCET.Cycles != plain.BCET.Cycles {
		t.Errorf("certified bounds [%d, %d] diverge from uncertified [%d, %d]",
			cert1.BCET.Cycles, cert1.WCET.Cycles, plain.BCET.Cycles, plain.WCET.Cycles)
	}

	// Its certified outcomes now satisfy a second certifying run from cache.
	cert2 := certOf()
	if cert2.Stats.CacheHits == 0 {
		t.Errorf("second certifying run hit no cached outcomes: %+v", cert2.Stats)
	}
	if cert2.WCET.Cycles != cert1.WCET.Cycles || cert2.BCET.Cycles != cert1.BCET.Cycles ||
		!cert2.WCET.Certified || !cert2.BCET.Certified {
		t.Errorf("cached certify run diverges: %+v vs %+v", cert2.WCET, cert1.WCET)
	}

	// And an uncertified run accepts certified hits too.
	plain2, err := sess.Estimate(annots)
	if err != nil {
		t.Fatal(err)
	}
	if plain2.Stats.CacheHits == 0 {
		t.Errorf("uncertified run rejected certified cache hits: %+v", plain2.Stats)
	}
	if plain2.WCET.Cycles != plain.WCET.Cycles || plain2.BCET.Cycles != plain.BCET.Cycles {
		t.Errorf("bounds moved across cache round trips: %+v vs %+v", plain2.WCET, plain.WCET)
	}
}

// TestInfeasibleTypedError: both total-infeasibility shapes — every set
// null before solving, and every set infeasible at the solver — surface as
// *InfeasibleError so callers can distinguish an annotation contradiction
// from an analysis failure.
func TestInfeasibleTypedError(t *testing.T) {
	src, _ := manySetProgram(2)
	prog := buildProg(t, src)
	run := func(annots string, mutate func(*Options)) error {
		t.Helper()
		opts := DefaultOptions()
		if mutate != nil {
			mutate(&opts)
		}
		an, err := New(prog, "main", opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := an.Apply(parseAnnots(t, annots)); err != nil {
			t.Fatal(err)
		}
		est, err := an.Estimate()
		if err == nil {
			t.Fatalf("estimate succeeded (%+v), want infeasibility", est)
		}
		return err
	}

	// x2 pinned to both 0 and 1: every set is trivially null and pruned
	// before any solve.
	nullErr := run("func main {\n    x2 = 1\n    x2 = 0\n}\n", nil)
	var ie *InfeasibleError
	if !errors.As(nullErr, &ie) {
		t.Fatalf("all-null error is %T (%v), want *InfeasibleError", nullErr, nullErr)
	}
	if !ie.AllNull || ie.Sets == 0 {
		t.Errorf("all-null error fields: %+v", ie)
	}

	// The same contradiction with pruning disabled reaches the solver and
	// comes back as solver-proven infeasibility.
	solvErr := run("func main {\n    x2 = 1\n    x2 = 0\n}\n", func(o *Options) { o.PruneNullSets = false })
	ie = nil
	if !errors.As(solvErr, &ie) {
		t.Fatalf("solver-infeasible error is %T (%v), want *InfeasibleError", solvErr, solvErr)
	}
	if ie.AllNull {
		t.Errorf("solver-proven infeasibility flagged AllNull: %+v", ie)
	}
}

// TestAnnotationErrorPositions: malformed annotations must fail at Apply
// with an *AnnotationError carrying the file name and line that
// constraint.ParseNamed stamped, never panic or slip through to Estimate.
func TestAnnotationErrorPositions(t *testing.T) {
	src, _ := manySetProgram(2)
	prog := buildProg(t, src)

	apply := func(annots string) error {
		t.Helper()
		an, err := New(prog, "main", DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		f, err := constraint.ParseNamed("bad.ann", annots)
		if err != nil {
			t.Fatalf("parse: %v", err)
		}
		// Route through Merge: the CLI always merges annotation files, and
		// Merge must preserve the stamped positions (File regression).
		return an.Apply(constraint.Merge(f))
	}

	cases := []struct {
		name, annots, wantSub string
		wantLine              int
	}{
		{
			name:     "unknown function",
			annots:   "func nosuch {\n    x1 = 1\n}\n",
			wantSub:  `unknown function "nosuch"`,
			wantLine: 1,
		},
		{
			name:     "loop out of range",
			annots:   "func main {\n    loop 7: 1 .. 3\n}\n",
			wantSub:  "loop 7",
			wantLine: 2,
		},
		{
			name:     "unresolvable variable",
			annots:   "func main {\n    x1 = 1\n    x99 = 1\n}\n",
			wantSub:  "x99",
			wantLine: 3,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := apply(tc.annots)
			if err == nil {
				t.Fatal("Apply accepted the malformed annotation")
			}
			var ae *AnnotationError
			if !errors.As(err, &ae) {
				t.Fatalf("error is %T (%v), want *AnnotationError", err, err)
			}
			if ae.File != "bad.ann" || ae.Line != tc.wantLine {
				t.Errorf("position %s:%d, want bad.ann:%d (error: %v)", ae.File, ae.Line, tc.wantLine, err)
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Errorf("error %q does not mention %q", err.Error(), tc.wantSub)
			}
		})
	}

	// The parser rejects loop 0, but a programmatically built file can still
	// carry it; unguarded it would index fc.Loops[-1] deep inside Estimate.
	an, err := New(prog, "main", DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	bad := &constraint.File{Sections: []constraint.Section{{
		Func:       "main",
		LoopBounds: []constraint.LoopBound{{Loop: 0, Lo: 1, Hi: 3}},
	}}}
	err = an.Apply(bad)
	var ae *AnnotationError
	if !errors.As(err, &ae) {
		t.Fatalf("loop 0 error is %T (%v), want *AnnotationError", err, err)
	}
}
