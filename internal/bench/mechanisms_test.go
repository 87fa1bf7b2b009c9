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

// toggleWorkload is one estimate the mechanism-toggle gate replays under
// varying options.
type toggleWorkload struct {
	name     string
	estimate func(ipet.Options) (*ipet.Estimate, error)
}

// toggleWorkloads are the 13 Table I programs and the 16- and 64-set
// path-explosion chains.
func toggleWorkloads() []toggleWorkload {
	var ws []toggleWorkload
	for _, bm := range All() {
		ws = append(ws, toggleWorkload{bm.Name, func(opts ipet.Options) (*ipet.Estimate, error) {
			bt, err := bm.Build(opts)
			if err != nil {
				return nil, err
			}
			return bt.Est, nil
		}})
	}
	for _, n := range []int{4, 6} {
		ws = append(ws, toggleWorkload{fmt.Sprintf("chain%d", 1<<n), func(opts ipet.Options) (*ipet.Estimate, error) {
			an, err := explosionWorkload(n, opts)
			if err != nil {
				return nil, err
			}
			return an.Estimate()
		}})
	}
	return ws
}

// TestMechanismTogglesOnBenchmarks is the acceptance gate for the
// incremental cross-product machinery on the paper's own workloads: for
// every Table I program and the 16- and 64-set chains, toggling set dedup,
// warm start and incumbent pruning in every combination (four of them
// under -short) — at one and at four workers — must reproduce the
// exhaustive cold sequential bound report bit for bit. The warm start
// decides how a winner's counts are finished (a unique warm optimum, or a
// cold re-solve), so every program whose winners take either route is
// covered.
func TestMechanismTogglesOnBenchmarks(t *testing.T) {
	for _, w := range toggleWorkloads() {
		t.Run(w.name, func(t *testing.T) {
			coldOpts := ipet.DefaultOptions()
			coldOpts.Workers = 1
			coldOpts.DedupSets, coldOpts.WarmStart, coldOpts.IncumbentPrune = false, false, false
			cold, err := w.estimate(coldOpts)
			if err != nil {
				t.Fatal(err)
			}
			want := benchReportOf(cold)
			masks := []int{1, 2, 4, 7}
			if !testing.Short() {
				masks = []int{0, 1, 2, 3, 4, 5, 6, 7}
			}
			for _, mask := range masks {
				dedup, warm, prune := mask&1 != 0, mask&2 != 0, mask&4 != 0
				for _, workers := range []int{1, 4} {
					opts := ipet.DefaultOptions()
					opts.Workers = workers
					opts.DedupSets, opts.WarmStart, opts.IncumbentPrune = dedup, warm, prune
					est, err := w.estimate(opts)
					if err != nil {
						t.Fatalf("dedup=%v warm=%v prune=%v workers=%d: %v",
							dedup, warm, prune, workers, err)
					}
					if got := benchReportOf(est); !reflect.DeepEqual(want, got) {
						t.Errorf("dedup=%v warm=%v prune=%v workers=%d diverges:\nwant: %+v\ngot:  %+v",
							dedup, warm, prune, workers, want, got)
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
// in both directions and keep a cold re-solve per direction.
func TestWinnerFinishRoutes(t *testing.T) {
	for _, c := range []struct {
		name string
		cold int
	}{
		{"des", 2}, {"jpeg_idct_islow", 2}, {"fullsearch", 2}, {"dhry", 4}, {"whetstone", 4},
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
		if s := bt.Est.Stats; s.ColdSolves != c.cold {
			t.Errorf("%s: %d cold solves (%d warm, %d pivots), want %d", c.name, s.ColdSolves, s.WarmSolves, s.Pivots, c.cold)
		}
	}
}

// TestColdWinnerCountsCached: on a prepared session without the warm start
// every winner is solved cold, and its counts must enter the session's
// count cache like any other winner's. A repeat of the scenario then
// spends no pivots at all and reports exactly what a fresh session does.
// Incumbent pruning is off so that every set solves to a cacheable
// outcome.
func TestColdWinnerCountsCached(t *testing.T) {
	for _, name := range []string{"des", "dhry"} {
		bm, ok := ByName(name)
		if !ok {
			t.Fatalf("unknown benchmark %q", name)
		}
		opts := ipet.DefaultOptions()
		opts.Workers = 1
		opts.WarmStart, opts.IncumbentPrune = false, false
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
