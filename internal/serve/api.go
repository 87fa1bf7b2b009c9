// Package serve implements cinderelld, the analysis-as-a-service layer:
// a long-lived HTTP daemon that keeps prepared ipet.Sessions resident in a
// sharded LRU store keyed by program hash and answers timing-estimate
// queries against them. The paper's workflow — derive structural
// constraints once, then iterate annotation scenarios against the same ILP
// model — is exactly the shape of a server: the expensive front end
// (compile, CFG reconstruction, context expansion, row lowering, warm base
// tableaux) is paid once per program and amortized over every request.
//
// Overload never queues without bound and never fails soundness: admission
// control maps each request's SLO onto the session machinery's anytime
// budgets (ipet.Analyzer.SetAnytime), so a request the server cannot solve
// in time degrades to the sound relaxation envelope — Exact=false, honest
// Slack — instead of an error or an unbounded queue.
package serve

import "cinderella/internal/ipet"

// ProgramSpec identifies a program and the analysis options that shape its
// session. Every field participates in the program hash: two specs
// differing in any field are distinct resident sessions.
type ProgramSpec struct {
	// Source is MC source text; Asm is CR32 assembly. Exactly one must be
	// set when submitting (a bare hash reference leaves both empty).
	Source string `json:"source,omitempty"`
	Asm    string `json:"asm,omitempty"`
	// Root is the analyzed function; default "main".
	Root string `json:"root,omitempty"`
	// Optimize compiles Source with the peephole optimizer (cinderella -O).
	Optimize bool `json:"optimize,omitempty"`
	// Split enables first-iteration cache splitting (cinderella -split).
	Split bool `json:"split,omitempty"`
	// Profile is the processor timing profile name; default "i960kb".
	Profile string `json:"profile,omitempty"`
	// Certify backs every bound with the exact rational layer (cinderella
	// -certify). Certifying sessions solve without incumbent pruning and
	// keep only certified outcomes in their caches, so the flag is part of
	// the program identity rather than a per-request knob.
	Certify bool `json:"certify,omitempty"`
}

// SubmitResponse answers POST /v1/programs.
type SubmitResponse struct {
	// Program is the hash naming the resident session; pass it in
	// EstimateRequest.Program.
	Program string `json:"program"`
	Root    string `json:"root"`
	// Cached reports that the session was already resident.
	Cached bool `json:"cached"`
	// MemoryBytes is the session's accounted footprint.
	MemoryBytes int64 `json:"memory_bytes"`
}

// EstimateRequest asks for one timing estimate. The program is named by
// hash (after a submit) or inline via the embedded ProgramSpec; an inline
// spec doubles as the resubmission path when the hash was evicted.
type EstimateRequest struct {
	// Program is the hash of a submitted program. Optional when the
	// embedded spec carries the source.
	Program string `json:"program,omitempty"`
	ProgramSpec
	// Annotations is the functionality constraint file text.
	Annotations string `json:"annotations"`
	// Params gives values for annotation symbols (parametric analysis).
	// When a previously built formula covers the point the answer is a
	// formula evaluation; otherwise the symbols are bound and solved
	// concretely.
	Params map[string]int64 `json:"params,omitempty"`
	// SLOMillis is this request's latency objective in milliseconds. The
	// server spends at most about half of it queueing and maps the rest
	// onto the solver's anytime deadline; overload degrades the answer to
	// a sound envelope rather than blowing the SLO. Zero uses the server
	// default.
	SLOMillis float64 `json:"slo_ms,omitempty"`
	// Budget caps the request's simplex pivots (deterministic anytime
	// cutoff); zero means unlimited.
	Budget int `json:"budget,omitempty"`
	// WantStats includes the solver work breakdown in the response.
	WantStats bool `json:"want_stats,omitempty"`
}

// EstimateResponse carries one estimate. WCET/BCET are the exact structs
// the CLI path computes — a server answer is bit-identical to a
// cmd/cinderella one-shot run of the same program and annotations.
type EstimateResponse struct {
	Program string           `json:"program"`
	WCET    ipet.BoundReport `json:"wcet"`
	BCET    ipet.BoundReport `json:"bcet"`

	NumSets         int  `json:"num_sets"`
	PrunedSets      int  `json:"pruned_sets"`
	SolvedSets      int  `json:"solved_sets"`
	AllRootIntegral bool `json:"all_root_integral"`

	// Exact mirrors WCET.Exact && BCET.Exact; Degraded is its negation,
	// surfaced for load tooling.
	Exact    bool `json:"exact"`
	Degraded bool `json:"degraded"`
	// Admission reports how the request got its solve slot: "ok" (ran
	// within its SLO), "shed" (overload — the solver ran envelope-only
	// under a token deadline), or "watchdog" (the solve wedged past the
	// hard ceiling and was cancelled; the answer is a sound envelope).
	Admission string `json:"admission"`
	// AnsweredBy is "solver", "formula" (parametric piece, no simplex
	// work), or "infeasible".
	AnsweredBy string `json:"answered_by"`
	// Coalesced marks an answer shared with an identical in-flight
	// request.
	Coalesced bool `json:"coalesced"`
	// ColdStart marks that this request (re)prepared the session.
	ColdStart bool `json:"cold_start"`
	// PrepareMicros is the frontend+Prepare wall time this request paid;
	// present only on cold starts. Load tooling splits it out of the
	// blended latency to watch the cold path directly.
	PrepareMicros int64 `json:"prepare_us,omitempty"`

	ElapsedMicros int64       `json:"elapsed_us"`
	Stats         *ipet.Stats `json:"stats,omitempty"`
}

// ParamSpecJSON is one parameter domain declaration.
type ParamSpecJSON struct {
	Name string `json:"name"`
	Lo   int64  `json:"lo"`
	Hi   int64  `json:"hi"`
}

// ParametrizeRequest builds (and caches on the session) a piecewise-linear
// bound formula over the given parameter domains; later estimates naming a
// covered point are answered by formula evaluation.
type ParametrizeRequest struct {
	Program string `json:"program,omitempty"`
	ProgramSpec
	Annotations string          `json:"annotations"`
	Specs       []ParamSpecJSON `json:"specs"`
}

// ParametrizeResponse answers POST /v1/parametrize.
type ParametrizeResponse struct {
	Program   string `json:"program"`
	Formula   string `json:"formula"`
	Pieces    int    `json:"pieces"`
	Certified bool   `json:"certified"`
	// Cached reports that an identical formula was already resident.
	Cached    bool  `json:"cached"`
	ColdStart bool  `json:"cold_start"`
	ElapsedUs int64 `json:"elapsed_us"`
}

// ErrorResponse is the body of every non-2xx answer.
type ErrorResponse struct {
	Error string `json:"error"`
	// Code is the machine-readable failure class (the Code* constants in
	// this package): bad_body, too_large, bad_request, not_resident,
	// annotation, infeasible, unbound_symbol, panic, watchdog_timeout.
	// Clients branch on Code; Error is for humans.
	Code string `json:"code"`
	// Resubmit hints that the named program is not resident (evicted or
	// never submitted) and the client should retry with inline source.
	Resubmit bool `json:"resubmit,omitempty"`
}

// StatsResponse answers GET /v1/stats: server counters, store occupancy,
// and per-session cumulative solver work. Snapshots are consistent per
// counter (each is read atomically) and safe to poll while estimates run.
type StatsResponse struct {
	UptimeSeconds float64 `json:"uptime_seconds"`

	Requests     int64 `json:"requests"`
	Submits      int64 `json:"submits"`
	Estimates    int64 `json:"estimates"`
	Parametrizes int64 `json:"parametrizes"`
	Coalesced    int64 `json:"coalesced"`
	Degraded     int64 `json:"degraded"`
	Shed         int64 `json:"shed"`
	Errors       int64 `json:"errors"`
	// Panics counts requests answered by the fault barrier (typed 500s);
	// Wedged counts solves the watchdog cancelled. WedgeStreak is the
	// current run of consecutive wedges; Health mirrors /healthz ("ok" or
	// "degraded").
	Panics      int64  `json:"panics"`
	Wedged      int64  `json:"wedged"`
	WedgeStreak int64  `json:"wedge_streak"`
	Health      string `json:"health"`

	FormulaAnswered  int64 `json:"formula_answered"`
	FallbackAnswered int64 `json:"fallback_answered"`

	Store StoreStatsJSON `json:"store"`
	// Artifacts describes the process-wide content-addressed prepare
	// artifact cache (internal/prepcache) shared by every session build.
	Artifacts ArtifactStatsJSON  `json:"artifacts"`
	Sessions  []SessionStatsJSON `json:"sessions"`
}

// ArtifactStatsJSON describes the process-wide prepare-artifact cache:
// per-function CFG skeletons, block-cost tables, and packed structural row
// templates keyed by content hash of the function body.
type ArtifactStatsJSON struct {
	Hits    int64 `json:"hits"`
	Misses  int64 `json:"misses"`
	Bytes   int64 `json:"bytes"`
	Entries int   `json:"entries"`
	// Persist is the disk tier's ledger when a persistence directory is
	// attached (all zero otherwise).
	Persist PersistStatsJSON `json:"persist"`
}

// PersistStatsJSON mirrors prepcache.PersistStats: the persistent
// artifact store's restores, spills, detected-and-rebuilt corruptions,
// failed writes, and clean misses.
type PersistStatsJSON struct {
	Restored    int64 `json:"restored"`
	Spilled     int64 `json:"spilled"`
	Corrupt     int64 `json:"corrupt"`
	WriteErrors int64 `json:"write_errors"`
	Misses      int64 `json:"misses"`
}

// StoreStatsJSON describes the session store.
type StoreStatsJSON struct {
	Resident    int   `json:"resident"`
	MemoryBytes int64 `json:"memory_bytes"`
	MaxSessions int   `json:"max_sessions,omitempty"`
	MemBudget   int64 `json:"mem_budget,omitempty"`
	Hits        int64 `json:"hits"`
	Misses      int64 `json:"misses"`
	Prepares    int64 `json:"prepares"`
	Resubmits   int64 `json:"resubmits"`
	Evictions   int64 `json:"evictions"`
}

// SessionStatsJSON is one resident session's cumulative ledger.
type SessionStatsJSON struct {
	Program      string `json:"program"`
	Root         string `json:"root"`
	MemoryBytes  int64  `json:"memory_bytes"`
	Estimates    int64  `json:"estimates"`
	Formula      int64  `json:"formula_answers"`
	Degraded     int64  `json:"degraded"`
	DeadlineHits int64  `json:"deadline_hits"`
	Pivots       int    `json:"pivots"`
	CacheHits    int    `json:"cache_hits"`
	WarmBases    int    `json:"warm_bases"`
	SetOutcomes  int    `json:"set_outcomes"`
	CountVectors int    `json:"count_vectors"`
	// ArtifactHits/ArtifactMisses are the prepare artifacts this session's
	// build served from (vs inserted into) the process-wide cache — a
	// re-prepared (evicted and resubmitted) session should be all hits.
	ArtifactHits   int64 `json:"artifact_hits"`
	ArtifactMisses int64 `json:"artifact_misses"`
}
