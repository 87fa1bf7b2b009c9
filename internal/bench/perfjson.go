// Benchmark artifact emission: BENCH_estimate.json records the estimate
// benchmark's timing and solver-work counters so regressions in the
// incremental cross-product machinery (set dedup, warm starts, incumbent
// pruning) show up as reviewable diffs, not just local benchmark noise.
package bench

import (
	"encoding/json"
	"io"
	"os"

	"cinderella/internal/ipet"
)

// EstimatePerf is one row of BENCH_estimate.json: a named estimate
// workload with its per-operation cost and the solver-work breakdown of a
// steady-state Estimate call.
type EstimatePerf struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`

	SetsTotal        int `json:"sets_total"`
	SetsSolved       int `json:"sets_solved"`
	Deduped          int `json:"sets_deduped"`
	IncumbentSkipped int `json:"sets_incumbent_skipped"`
	CacheHits        int `json:"cache_hits"`
	Pivots           int `json:"pivots"`
	WarmSolves       int `json:"warm_solves"`
	ColdSolves       int `json:"cold_solves"`

	// Revised (factored-basis) kernel counters: its pivots and
	// refactorizations.
	RevisedPivots    int `json:"revised_pivots"`
	Refactorizations int `json:"refactorizations"`

	SetsWidened  int  `json:"sets_widened"`
	SetsUnsolved int  `json:"sets_unsolved"`
	DeadlineHit  bool `json:"deadline_hit"`
	Exact        bool `json:"exact"`

	// Certificate-layer counters (ipet.Options.Certify): whether both bounds
	// were backed by exact rational checks, and the work the layer performed.
	Certified     bool `json:"certified"`
	RecheckedSets int  `json:"rechecked_sets"`
	CertFailures  int  `json:"cert_failures"`
	ExactResolves int  `json:"exact_resolves"`
	SuspectPivots int  `json:"suspect_pivots"`

	// Parametric-layer counters (Session.Parametrize): queries answered by
	// the piecewise-linear formula, enumerated regions, and queries that fell
	// back to a concrete warm-started solve.
	FormulaEvals   int64 `json:"formula_evals"`
	ParamRegions   int   `json:"param_regions"`
	ParamFallbacks int64 `json:"param_fallbacks"`

	WCET int64 `json:"wcet_cycles"`
	BCET int64 `json:"bcet_cycles"`

	// Server load-harness counters (internal/serve/loadgen rows, named
	// "serve/..."): request throughput and latency percentiles against a
	// live cinderelld instance, plus the store and soundness ledger of the
	// run. Zero (and omitted) for plain estimate workloads.
	Requests  int64   `json:"requests,omitempty"`
	ReqPerSec float64 `json:"req_per_sec,omitempty"`
	P50Us     int64   `json:"p50_us,omitempty"`
	P99Us     int64   `json:"p99_us,omitempty"`
	WarmP50Us int64   `json:"warm_p50_us,omitempty"`
	ColdP50Us int64   `json:"cold_p50_us,omitempty"`
	// PrepareP50Us/PrepareP99Us split the frontend+Prepare pipeline cost
	// out of cold latencies; ArtifactHitRate is the prepare-artifact cache
	// hit fraction across the run (serve rows), and ArtifactHits/Misses
	// are the per-Prepare artifact counters (prepare rows).
	PrepareP50Us    int64   `json:"prepare_p50_us,omitempty"`
	PrepareP99Us    int64   `json:"prepare_p99_us,omitempty"`
	ArtifactHitRate float64 `json:"artifact_hit_rate,omitempty"`
	ArtifactHits    int64   `json:"artifact_hits,omitempty"`
	ArtifactMisses  int64   `json:"artifact_misses,omitempty"`
	Degraded        int64   `json:"degraded,omitempty"`
	Shed            int64   `json:"shed,omitempty"`
	Coalesced       int64   `json:"coalesced,omitempty"`
	Evictions       int64   `json:"evictions,omitempty"`
	NonSound        int64   `json:"non_sound,omitempty"`
}

// FillFromEstimate copies the solver-work counters and bounds of est.
func (p *EstimatePerf) FillFromEstimate(est *ipet.Estimate) {
	p.SetsTotal = est.Stats.SetsTotal
	p.SetsSolved = est.SolvedSets
	p.Deduped = est.Stats.Deduped
	p.IncumbentSkipped = est.Stats.IncumbentSkipped
	p.CacheHits = est.Stats.CacheHits
	p.Pivots = est.Stats.Pivots
	p.WarmSolves = est.Stats.WarmSolves
	p.ColdSolves = est.Stats.ColdSolves
	p.RevisedPivots = est.Stats.RevisedPivots
	p.Refactorizations = est.Stats.Refactorizations
	p.SetsWidened = est.Stats.SetsWidened
	p.SetsUnsolved = est.Stats.SetsUnsolved
	p.DeadlineHit = est.Stats.DeadlineHit
	p.Exact = est.WCET.Exact && est.BCET.Exact
	p.Certified = est.WCET.Certified && est.BCET.Certified
	p.RecheckedSets = est.WCET.RecheckedSets + est.BCET.RecheckedSets
	p.CertFailures = est.Stats.CertFailures
	p.ExactResolves = est.Stats.ExactResolves
	p.SuspectPivots = est.Stats.SuspectPivots
	p.FormulaEvals = int64(est.Stats.FormulaEvals)
	p.ParamRegions = est.Stats.ParamRegions
	p.ParamFallbacks = int64(est.Stats.ParamFallbacks)
	p.WCET = est.WCET.Cycles
	p.BCET = est.BCET.Cycles
}

// WriteEstimatePerf writes the records as indented JSON.
func WriteEstimatePerf(w io.Writer, recs []EstimatePerf) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(recs)
}

// WriteEstimatePerfFile writes the records to path.
func WriteEstimatePerfFile(path string, recs []EstimatePerf) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteEstimatePerf(f, recs); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
