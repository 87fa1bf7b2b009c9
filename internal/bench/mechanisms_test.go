package bench

import (
	"fmt"
	"reflect"
	"testing"

	"cinderella/internal/constraint"
	"cinderella/internal/ipet"
)

// benchReport is the projection of an Estimate that must be invariant under
// every solver mechanism and worker count: both bound reports (cycles,
// extreme-case counts, winning set index) and the set bookkeeping.
type benchReport struct {
	WCET, BCET                      ipet.BoundReport
	NumSets, PrunedSets, SolvedSets int
}

func benchReportOf(est *ipet.Estimate) benchReport {
	return benchReport{
		WCET:       est.WCET,
		BCET:       est.BCET,
		NumSets:    est.NumSets,
		PrunedSets: est.PrunedSets,
		SolvedSets: est.SolvedSets,
	}
}

// toggleWorkload is one analysis the mechanism-toggle gate replays under
// varying options: build returns the analyzer and its estimate.
type toggleWorkload struct {
	name  string
	build func(ipet.Options) (*ipet.Analyzer, *ipet.Estimate, error)
}

// toggleWorkloads are the 13 Table I programs and the 16- and 64-set
// path-explosion chains.
func toggleWorkloads() []toggleWorkload {
	var ws []toggleWorkload
	for _, bm := range All() {
		ws = append(ws, toggleWorkload{bm.Name, func(opts ipet.Options) (*ipet.Analyzer, *ipet.Estimate, error) {
			bt, err := bm.Build(opts)
			if err != nil {
				return nil, nil, err
			}
			return bt.An, bt.Est, nil
		}})
	}
	for _, n := range []int{4, 6} {
		ws = append(ws, toggleWorkload{fmt.Sprintf("chain%d", 1<<n), func(opts ipet.Options) (*ipet.Analyzer, *ipet.Estimate, error) {
			an, err := explosionWorkload(n, opts)
			if err != nil {
				return nil, nil, err
			}
			est, err := an.Estimate()
			return an, est, err
		}})
	}
	return ws
}

// TestMechanismTogglesOnBenchmarks is the acceptance gate for the
// incremental cross-product machinery on the paper's own workloads: for
// every Table I program and the 16- and 64-set chains, plain, with the
// first-iteration split, without null-set pruning and certified, the
// estimate must report exactly what the exhaustive reference
// (ipet.Analyzer.ExhaustiveEstimate) does, with incumbent pruning on and
// off, at one and at four workers. The warm start decides how a winner's
// counts are finished (a unique warm optimum, or a cold re-solve), so
// every program whose winners take either route is covered. Certified
// reports are compared without their certificate-layer fields.
func TestMechanismTogglesOnBenchmarks(t *testing.T) {
	modes := []struct {
		name   string
		mutate func(*ipet.Options)
	}{
		{"plain", func(*ipet.Options) {}},
		{"split", func(o *ipet.Options) { o.SplitFirstIteration = true }},
		{"noprune", func(o *ipet.Options) { o.PruneNullSets = false }},
		{"certify", func(o *ipet.Options) { o.Certify = true }},
	}
	uncertified := func(est *ipet.Estimate) benchReport {
		r := benchReportOf(est)
		r.WCET.Certified, r.WCET.RecheckedSets = false, 0
		r.BCET.Certified, r.BCET.RecheckedSets = false, 0
		return r
	}
	for _, w := range toggleWorkloads() {
		t.Run(w.name, func(t *testing.T) {
			for _, m := range modes {
				var want benchReport
				for i, cfg := range []struct {
					prune   bool
					workers int
				}{{true, 1}, {false, 1}, {true, 4}, {false, 4}} {
					opts := ipet.DefaultOptions()
					m.mutate(&opts)
					opts.Workers, opts.IncumbentPrune = cfg.workers, cfg.prune
					an, est, err := w.build(opts)
					if err != nil {
						t.Fatalf("%s prune=%v workers=%d: %v", m.name, cfg.prune, cfg.workers, err)
					}
					if i == 0 {
						ref, err := an.ExhaustiveEstimate()
						if err != nil {
							t.Fatalf("%s reference: %v", m.name, err)
						}
						want = benchReportOf(ref)
					}
					if got := uncertified(est); !reflect.DeepEqual(want, got) {
						t.Errorf("%s prune=%v workers=%d diverges from the exhaustive reference:\nwant: %+v\ngot:  %+v",
							m.name, cfg.prune, cfg.workers, want, got)
					}
				}
			}
		})
	}
}

// TestWinnerFinishRoutes pins, at Workers=1 and default options, which
// winners keep their warm counts: des, jpeg_idct_islow and fullsearch have
// unique optima in both directions, so their only cold solves are the two
// warm-base solves; dhry and whetstone have several optimal count vectors
// in both directions and keep a cold re-solve per direction. It also pins
// the warm solves: a one-set program makes one per direction, its per-set
// job doubling as the winner's finish, while dhry solves its three
// surviving sets warm in each direction and then re-solves each winner
// warm to finish it.
func TestWinnerFinishRoutes(t *testing.T) {
	for _, c := range []struct {
		name       string
		warm, cold int
	}{
		{"des", 2, 2}, {"jpeg_idct_islow", 2, 2}, {"fullsearch", 2, 2}, {"dhry", 8, 4}, {"whetstone", 2, 4},
	} {
		bm, ok := ByName(c.name)
		if !ok {
			t.Fatalf("unknown benchmark %q", c.name)
		}
		opts := ipet.DefaultOptions()
		opts.Workers = 1
		bt, err := bm.Build(opts)
		if err != nil {
			t.Fatal(err)
		}
		if s := bt.Est.Stats; s.ColdSolves != c.cold || s.WarmSolves != c.warm {
			t.Errorf("%s: %d warm and %d cold solves (%d pivots), want %d and %d",
				c.name, s.WarmSolves, s.ColdSolves, s.Pivots, c.warm, c.cold)
		}
	}
}

// TestColdWinnerCountsCached: on a prepared session every winner's counts
// enter the session's count cache, whether its warm optimum is unique (des)
// or it was re-solved cold (dhry). A repeat of the scenario then spends no
// pivots at all and reports exactly what a fresh session does. Incumbent
// pruning is off so that every set solves to a cacheable outcome.
func TestColdWinnerCountsCached(t *testing.T) {
	for _, name := range []string{"des", "dhry"} {
		bm, ok := ByName(name)
		if !ok {
			t.Fatalf("unknown benchmark %q", name)
		}
		opts := ipet.DefaultOptions()
		opts.Workers = 1
		opts.IncumbentPrune = false
		bt, err := bm.Build(opts)
		if err != nil {
			t.Fatal(err)
		}
		file, err := constraint.Parse(bm.Annotations)
		if err != nil {
			t.Fatal(err)
		}
		estimates := func(n int) []*ipet.Estimate {
			sess, err := ipet.Prepare(bt.CFG, bm.Root, opts)
			if err != nil {
				t.Fatal(err)
			}
			var out []*ipet.Estimate
			for i := 0; i < n; i++ {
				est, err := sess.Estimate(file)
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, est)
			}
			return out
		}
		runs, fresh := estimates(2), estimates(1)[0]
		if p := runs[1].Stats.Pivots; p != 0 {
			t.Errorf("%s: repeat spent %d pivots (first run %d); the winners' counts were not cached",
				name, p, runs[0].Stats.Pivots)
		}
		for i, est := range runs {
			if got, want := benchReportOf(est), benchReportOf(fresh); !reflect.DeepEqual(got, want) {
				t.Errorf("%s run %d diverges from a fresh session:\ngot:  %+v\nwant: %+v", name, i, got, want)
			}
		}
	}
}
