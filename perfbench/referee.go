package main

import (
	"context"
	"errors"
	"fmt"

	"cinderella/internal/asm"
	"cinderella/internal/cc"
	"cinderella/internal/cfg"
	"cinderella/internal/constraint"
	"cinderella/internal/ipet"
	"cinderella/internal/march"
	"cinderella/internal/pathenum"
	"cinderella/internal/prepcache"
)

// golden holds the [BCET, WCET] of every Table I program under its paper
// annotations, frozen from the estimated-bound table of EXPERIMENTS.md
// (Experiment 1). They are committed values, never recomputed by the code
// under test.
var golden = map[string]bounds{
	"check_data":      {155, 3761},
	"fft":             {130349, 404931},
	"piksrt":          {2092, 39173},
	"des":             {836219, 3298341},
	"line":            {858, 113448},
	"circle":          {2627, 342315},
	"jpeg_fdct_islow": {48831, 190231},
	"jpeg_idct_islow": {39687, 230151},
	"recon":           {39898, 445635},
	"fullsearch":      {5769203, 22041456},
	"whetstone":       {8401194, 27972760},
	"dhry":            {158601, 666115},
	"matgen":          {210355, 686451},
}

// goldenReferee fills the Table I scenarios' answers from the frozen table.
func goldenReferee(scs []*scenario) error {
	for _, sc := range scs {
		g, ok := golden[sc.class]
		if !ok {
			return fmt.Errorf("no golden bound for %s", sc.class)
		}
		sc.ref = g
	}
	return nil
}

// chainReferee answers a loop-free chain scenario by explicit enumeration
// of its paths filtered by the annotation's constraint sets — the Park/Shaw
// baseline, which shares no solver code with the ILP.
func chainReferee(sc *scenario) error {
	exe, err := asm.Assemble(sc.prog.asm)
	if err != nil {
		return fmt.Errorf("%s: assemble: %w", sc.class, err)
	}
	prog, err := cfg.Build(exe)
	if err != nil {
		return fmt.Errorf("%s: cfg: %w", sc.class, err)
	}
	file, err := constraint.ParseNamed(sc.class, sc.annots)
	if err != nil {
		return err
	}
	var sets []constraint.ConjunctiveSet
	if sec, ok := file.Section(sc.prog.root); ok {
		sets, err = constraint.CrossProduct(sec.Formulas, 1<<12)
		if err != nil {
			return err
		}
	}
	costs := map[string][]march.BlockCost{}
	for name, f := range prog.Funcs {
		costs[name] = march.CostsOf(f, march.DefaultOptions())
	}
	res, err := pathenum.EnumerateConstrained(prog, sc.prog.root, pathenum.Options{
		Bounds: map[string][]int64{sc.prog.root: {}},
		Costs:  costs,
	}, sets)
	if err != nil {
		return fmt.Errorf("%s: enumerate: %w", sc.class, err)
	}
	if !res.Complete {
		return fmt.Errorf("%s: enumeration incomplete", sc.class)
	}
	sc.ref = bounds{res.Best, res.Worst}
	return nil
}

// servedChainReferee answers a chain scenario a server will be asked: by
// path enumeration, and by a fresh one-shot session, which must agree.
func servedChainReferee(sc *scenario) error {
	if err := chainReferee(sc); err != nil {
		return err
	}
	enum := sc.ref
	if err := oneShotReferee(sc); err != nil {
		return err
	}
	if sc.ref != enum {
		return fmt.Errorf("%s: one-shot referee %s disagrees with path enumeration %s", sc.class, sc.ref, enum)
	}
	return nil
}

// errInfeasible marks a generated scenario whose annotations admit no
// execution; generators drop such candidates.
var errInfeasible = errors.New("annotations admit no execution")

// oneShotReferee answers a scenario with a fresh one-shot session: a new
// artifact cache, a fresh front end and Prepare, and one estimate. Served
// answers are checked against it, so no server or session state can leak
// into the reference.
func oneShotReferee(sc *scenario) error {
	sess, err := prepare(opSpans{}, sc.prog, false, prepcache.New())
	if err != nil {
		return err
	}
	file, err := constraint.ParseNamed(sc.class, sc.annots)
	if err != nil {
		return err
	}
	if len(sc.params) > 0 {
		if file, err = file.Bind(sc.params); err != nil {
			return err
		}
	}
	est, err := sess.EstimateContext(context.Background(), file)
	var ie *ipet.InfeasibleError
	if errors.As(err, &ie) {
		return errInfeasible
	}
	if err != nil {
		return fmt.Errorf("%s: referee estimate: %w", sc.class, err)
	}
	if !est.WCET.Exact || !est.BCET.Exact {
		return fmt.Errorf("%s: referee estimate is not exact", sc.class)
	}
	sc.ref = bounds{est.BCET.Cycles, est.WCET.Cycles}
	return nil
}

// prepare runs the front end and Prepare for one program against the given
// artifact cache, with a span around each call: compile or assemble →
// BuildProgram → Prepare. Every workload analyses with the standard
// options and one solver worker.
func prepare(sp opSpans, p *program, certify bool, art *prepcache.Cache) (*ipet.Session, error) {
	var (
		exe *asm.Executable
		err error
	)
	if p.source != "" {
		s := sp.begin("cc.build")
		exe, _, err = cc.Build(p.source)
		sp.end(s)
	} else {
		s := sp.begin("asm.assemble")
		exe, err = asm.Assemble(p.asm)
		sp.end(s)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: front end: %w", p.name, err)
	}
	s := sp.begin("prepcache.build_program")
	prog, err := art.BuildProgram(exe)
	sp.end(s)
	if err != nil {
		return nil, fmt.Errorf("%s: cfg: %w", p.name, err)
	}
	opts := ipet.DefaultOptions()
	opts.Workers, opts.Certify, opts.Artifacts = 1, certify, art
	s = sp.begin("ipet.prepare")
	sess, err := ipet.Prepare(prog, p.root, opts)
	sp.end(s)
	return sess, err
}

// verdict compares one answer with the referee. Only an exact answer equal
// to it passes. No workload sets an SLO, a pivot budget or a watchdog, so
// an envelope (exact=false) is a regression even when it is sound; the
// error still says whether it contains the referee — WCET from above, BCET
// from below.
func verdict(got bounds, exact bool, ref bounds) error {
	switch {
	case !exact && (got.wcet < ref.wcet || got.bcet > ref.bcet):
		return fmt.Errorf("unsound envelope %s, referee %s", got, ref)
	case !exact:
		return fmt.Errorf("inexact answer %s, a sound envelope of the referee %s", got, ref)
	case got != ref:
		return fmt.Errorf("answer %s, referee %s", got, ref)
	}
	return nil
}
