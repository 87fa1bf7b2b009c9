package bench

import (
	"testing"

	"cinderella/internal/ipet"
)

// TestWitnessConsistency: the block counts reported with each bound are a
// witness of it. Priced at the analysis' own block costs (worst-case for
// the WCET, best-case for the BCET) they add up to the reported cycles
// exactly, on every Table I program, with and without Certify, at one and
// at four workers. The winners whose optimum is not unique (dhry,
// whetstone, line's BCET) take their counts from the cold finish, the
// rest from the warm finish.
func TestWitnessConsistency(t *testing.T) {
	for _, bm := range All() {
		for _, certify := range []bool{false, true} {
			for _, workers := range []int{1, 4} {
				opts := ipet.DefaultOptions()
				opts.Certify, opts.Workers = certify, workers
				bt, err := bm.Build(opts)
				if err != nil {
					t.Fatal(err)
				}
				for _, side := range []struct {
					name  string
					rep   ipet.BoundReport
					worst bool
				}{{"WCET", bt.Est.WCET, true}, {"BCET", bt.Est.BCET, false}} {
					if got := witnessCycles(bt.An, side.rep.Counts, side.worst); got != side.rep.Cycles {
						t.Errorf("%s certify=%v workers=%d: %s counts price to %d cycles, report says %d",
							bm.Name, certify, workers, side.name, got, side.rep.Cycles)
					}
				}
			}
		}
	}
}

// witnessCycles prices per-function block counts at the analyzer's block
// costs, worst-case or best-case.
func witnessCycles(an *ipet.Analyzer, counts map[string][]int64, worst bool) int64 {
	var total int64
	for fn, cs := range counts {
		costs := an.BlockCosts(fn)
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
