package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cinderella/internal/asm"
	"cinderella/internal/cc"
	"cinderella/internal/constraint"
	"cinderella/internal/ipet"
	"cinderella/internal/isa"
	"cinderella/internal/prepcache"
	"cinderella/internal/serve/chaos"
)

// Config sizes the server. The zero value of each field selects the
// documented default.
type Config struct {
	// Shards is the session-store shard count (default 8). One shard gives
	// exact global LRU order, which tests rely on.
	Shards int
	// MaxSessions caps resident prepared sessions across all shards
	// (0 = uncapped).
	MaxSessions int
	// MemoryBudget caps the summed accounted session footprint in bytes
	// (0 = unbudgeted). Budgets are per shard: MemoryBudget/Shards each.
	MemoryBudget int64
	// MaxConcurrent caps simultaneous solver passes (default GOMAXPROCS);
	// MaxQueue caps requests waiting for a solve slot (default 4x).
	MaxConcurrent int
	MaxQueue      int
	// DefaultSLO applies to requests that set no slo_ms (0 = none: such
	// requests solve without a deadline and queue up to a generous bound).
	DefaultSLO time.Duration
	// Workers is the per-estimate solver concurrency (ipet Options.Workers;
	// 0 = GOMAXPROCS). Bounds are bit-identical at every worker count.
	Workers int
	// MaxBodyBytes caps request bodies (default 4 MiB).
	MaxBodyBytes int64
	// Artifacts is the prepare-artifact cache sessions build against
	// (nil = the process-wide prepcache.Default()). Attach a persistence
	// directory to it (Cache.SetPersistDir) to make prepared artifacts
	// survive restarts; tests pass an isolated cache.
	Artifacts *prepcache.Cache
	// WatchdogCeiling is the hard per-request solve ceiling, set above any
	// SLO: a solve still running past it is cancelled, its admission slot
	// freed, and the request answered with the sound anytime envelope
	// (Exact=false). 0 disables the watchdog.
	WatchdogCeiling time.Duration
	// DegradedThreshold is how many consecutive watchdog firings flip
	// /healthz to 503 degraded (default 3; any successful solve resets the
	// streak).
	DegradedThreshold int
	// Chaos arms deterministic fault injection at the server's fault
	// points. nil (production) is inert. When the artifact cache has a
	// persistence directory, arming chaos also installs disk-fault hooks
	// on it.
	Chaos *chaos.Injector
}

// Server is the cinderelld analysis service: a sharded store of prepared
// sessions fronted by admission control and request coalescing.
type Server struct {
	conf      Config
	store     *store
	adm       *admission
	ctrs      counters
	artifacts *prepcache.Cache
	start     time.Time

	// wedgeStreak counts consecutive watchdog firings; any solve that
	// finishes inside the ceiling resets it. At DegradedThreshold the
	// health endpoint reports degraded.
	wedgeStreak atomic.Int64
}

// New builds a server from the config; see Config for defaults.
func New(conf Config) *Server {
	if conf.Shards <= 0 {
		conf.Shards = 8
	}
	if conf.MaxBodyBytes <= 0 {
		conf.MaxBodyBytes = 4 << 20
	}
	if conf.DegradedThreshold <= 0 {
		conf.DegradedThreshold = 3
	}
	s := &Server{
		conf:      conf,
		adm:       newAdmission(conf.MaxConcurrent, conf.MaxQueue),
		artifacts: conf.Artifacts,
		start:     time.Now(),
	}
	if s.artifacts == nil {
		s.artifacts = prepcache.Default()
	}
	s.store = newStore(conf.Shards, conf.MaxSessions, conf.MemoryBudget, &s.ctrs)
	if conf.Chaos != nil {
		// Route the artifact cache's disk I/O through the injector: failed
		// spills and bit-flipped reads, at the injector's deterministic
		// rates.
		inj := conf.Chaos
		s.artifacts.SetPersistHooks(prepcache.PersistHooks{
			BeforeWrite: func(kind string) error {
				if inj.Fire(chaos.DiskWrite) {
					return errors.New("chaos: injected disk write failure")
				}
				return nil
			},
			AfterRead: func(kind string, raw []byte) []byte {
				if inj.Fire(chaos.DiskCorrupt) && len(raw) > 0 {
					out := append([]byte(nil), raw...)
					out[len(out)/2] ^= 0x5a
					return out
				}
				return raw
			},
		})
	}
	return s
}

// Handler returns the HTTP API:
//
//	POST /v1/programs     submit a program, get its hash
//	POST /v1/estimate     one timing estimate (annotations or parameter point)
//	POST /v1/parametrize  build a piecewise-linear bound formula
//	GET  /v1/stats        server, store, and per-session counters
//	GET  /healthz         liveness
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/programs", s.protect(s.handleSubmit))
	mux.HandleFunc("POST /v1/estimate", s.protect(s.handleEstimate))
	mux.HandleFunc("POST /v1/parametrize", s.protect(s.handleParametrize))
	mux.HandleFunc("GET /v1/stats", s.protect(s.handleStats))
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	return mux
}

// protect is the request fault barrier: a panic anywhere in a handler
// becomes a typed 500 envelope instead of killing the process. Panics
// inside a flight are already converted by runFlight; this catches
// everything outside one (decode, resolve plumbing, response encoding).
func (s *Server) protect(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				s.ctrs.panics.Add(1)
				s.writeErr(w, http.StatusInternalServerError, &ErrorResponse{
					Error: fmt.Sprintf("internal panic: %v", rec),
					Code:  CodePanic,
				})
			}
		}()
		h(w, r)
	}
}

// handleHealthz reports liveness: plain "ok" while healthy, a 503 JSON
// body once DegradedThreshold consecutive solves have hit the watchdog
// ceiling — the signal a load balancer drains on.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	streak := s.wedgeStreak.Load()
	if streak >= int64(s.conf.DegradedThreshold) {
		s.writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"status":       "degraded",
			"wedge_streak": streak,
		})
		return
	}
	w.Write([]byte("ok\n"))
}

// normalize fills a spec's defaulted fields; the hash is computed over the
// normalized form so "root omitted" and "root main" are the same program.
func (sp *ProgramSpec) normalize() {
	if sp.Root == "" {
		sp.Root = "main"
	}
	if sp.Profile == "" {
		sp.Profile = "i960kb"
	}
}

// hashSpec names a normalized program spec: SHA-256 over every field that
// shapes the prepared session. Certify is deliberately part of the
// identity — certifying sessions solve without incumbent pruning and keep
// exact checkers with their warm bases, so a certified and an uncertified
// analysis of the same text are distinct resident sessions rather than one
// session serving mixed cache entries.
func hashSpec(sp ProgramSpec) string {
	h := sha256.New()
	kind, text := "src", sp.Source
	if sp.Asm != "" {
		kind, text = "asm", sp.Asm
	}
	fmt.Fprintf(h, "%s|%s|%t|%t|%s|%t|", kind, sp.Root, sp.Optimize, sp.Split, sp.Profile, sp.Certify)
	h.Write([]byte(text))
	return hex.EncodeToString(h.Sum(nil))
}

// buildSession runs the one-shot front end for a spec: compile or
// assemble, reconstruct CFGs, prepare the session.
func (s *Server) buildSession(sp ProgramSpec) (*ipet.Session, error) {
	return buildSession(sp, s.conf.Workers, s.artifacts)
}

func buildSession(sp ProgramSpec, workers int, artifacts *prepcache.Cache) (*ipet.Session, error) {
	timing, ok := isa.Profiles()[sp.Profile]
	if !ok {
		return nil, fmt.Errorf("unknown timing profile %q", sp.Profile)
	}
	var (
		exe *asm.Executable
		err error
	)
	// The built image is itself a content-addressed artifact: identical
	// program text (under the same frontend mode) is served from memory or
	// the persistent tier, so eviction churn and daemon restarts skip the
	// compile/assemble frontend entirely.
	switch {
	case sp.Source != "" && sp.Asm != "":
		return nil, errors.New("give source or asm, not both")
	case sp.Source != "":
		mode, build := "cc", cc.Build
		if sp.Optimize {
			mode, build = "cc-opt", cc.BuildOptimized
		}
		exe, _, err = artifacts.Executable(mode, sp.Source, func() (*asm.Executable, error) {
			e, _, berr := build(sp.Source)
			return e, berr
		})
	case sp.Asm != "":
		exe, _, err = artifacts.Executable("asm", sp.Asm, func() (*asm.Executable, error) {
			return asm.Assemble(sp.Asm)
		})
	default:
		return nil, errors.New("no program text")
	}
	if err != nil {
		return nil, err
	}
	// Content-addressed CFG reconstruction: a resubmitted or edited program
	// reuses every function body the process has built before (eviction
	// churn and one-function edits rebuild only what changed), and — with a
	// persistence directory attached — every body any prior process built.
	prog, err := artifacts.BuildProgram(exe)
	if err != nil {
		return nil, err
	}
	opts := ipet.DefaultOptions()
	opts.SplitFirstIteration = sp.Split
	opts.March.Timing = timing
	opts.Certify = sp.Certify
	opts.Workers = workers
	opts.Artifacts = artifacts
	return ipet.Prepare(prog, sp.Root, opts)
}

// resolve turns a request's program reference — hash, inline text, or both
// — into a resident entry, preparing (or re-preparing, after eviction) at
// most once per hash however many requests race. coldStart reports that
// this request had to prepare. On failure it returns the HTTP status and
// error body to send.
func (s *Server) resolve(hash string, sp ProgramSpec) (ent *entry, coldStart bool, status int, eresp *ErrorResponse) {
	sp.normalize()
	hasText := sp.Source != "" || sp.Asm != ""
	if sp.Source != "" && sp.Asm != "" {
		return nil, false, http.StatusBadRequest, &ErrorResponse{Error: "give source or asm, not both"}
	}
	if hasText {
		hash = hashSpec(sp)
	} else if hash == "" {
		return nil, false, http.StatusBadRequest, &ErrorResponse{Error: "no program: give a program hash or inline source/asm"}
	}
	if ent, ok := s.store.lookup(hash); ok {
		return ent, false, 0, nil
	}
	if !hasText {
		return nil, false, http.StatusNotFound, &ErrorResponse{
			Error:    fmt.Sprintf("program %.12s… is not resident (never submitted, or evicted)", hash),
			Code:     CodeNotResident,
			Resubmit: true,
		}
	}
	v, err, _ := s.store.prepFlights.Do(hash, func() (any, error) {
		// Double-check under the flight: a request that lost the race to a
		// just-finished flight must not rebuild.
		if ent, ok := s.store.lookup(hash); ok {
			return ent, nil
		}
		prepStart := time.Now()
		sess, err := s.buildSession(sp)
		if err != nil {
			return nil, err
		}
		ent := &entry{hash: hash, spec: sp, root: sp.Root, sess: sess,
			prepMicros: time.Since(prepStart).Microseconds()}
		s.store.insert(ent)
		s.ctrs.prepares.Add(1)
		return ent, nil
	})
	if err != nil {
		status, eresp := errEnvelope(err)
		return nil, false, status, eresp
	}
	return v.(*entry), true, 0, nil
}

// Machine-readable error codes, one per failure class; every non-2xx body
// carries exactly one. Clients branch on Code, never on message text.
const (
	// CodeBadBody: the request body failed to decode (malformed JSON,
	// unknown fields).
	CodeBadBody = "bad_body"
	// CodeTooLarge: the request body exceeded MaxBodyBytes (413).
	CodeTooLarge = "too_large"
	// CodeBadRequest: a well-formed request the analysis rejected (unknown
	// profile, missing program text, assembler/compiler errors, missing
	// loop bounds).
	CodeBadRequest = "bad_request"
	// CodeNotResident: the named program hash is not in the store (404);
	// Resubmit is set — retry with inline source.
	CodeNotResident = "not_resident"
	// CodeAnnotation: the annotation file failed to parse or referenced
	// unknown blocks (ipet.AnnotationError).
	CodeAnnotation = "annotation"
	// CodeInfeasible: the annotations contradict the structural flow
	// system (ipet.InfeasibleError, 422).
	CodeInfeasible = "infeasible"
	// CodeUnboundSymbol: the annotations use symbols with no binding and
	// no parametrization (ipet.UnboundSymbolError).
	CodeUnboundSymbol = "unbound_symbol"
	// CodePanic: a panic was recovered serving the request (500). The
	// process survives; the request does not.
	CodePanic = "panic"
	// CodeWatchdog: the solve hit the watchdog ceiling and even the
	// envelope fallback failed (503). The bound was not computed.
	CodeWatchdog = "watchdog_timeout"
)

// errEnvelope maps an error crossing the handler boundary to its HTTP
// status and typed envelope: the one place the error taxonomy lives.
func errEnvelope(err error) (int, *ErrorResponse) {
	var (
		pe *panicError
		ie *ipet.InfeasibleError
		ae *ipet.AnnotationError
		ue *ipet.UnboundSymbolError
	)
	switch {
	case errors.As(err, &pe):
		return http.StatusInternalServerError, &ErrorResponse{Error: pe.Error(), Code: CodePanic}
	case errors.Is(err, errWedged), errors.Is(err, context.DeadlineExceeded):
		return http.StatusServiceUnavailable, &ErrorResponse{Error: err.Error(), Code: CodeWatchdog}
	case errors.As(err, &ie):
		return http.StatusUnprocessableEntity, &ErrorResponse{Error: err.Error(), Code: CodeInfeasible}
	case errors.As(err, &ae):
		return http.StatusBadRequest, &ErrorResponse{Error: err.Error(), Code: CodeAnnotation}
	case errors.As(err, &ue):
		return http.StatusBadRequest, &ErrorResponse{Error: err.Error(), Code: CodeUnboundSymbol}
	}
	return http.StatusBadRequest, &ErrorResponse{Error: err.Error(), Code: CodeBadRequest}
}

func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func (s *Server) writeErr(w http.ResponseWriter, status int, eresp *ErrorResponse) {
	s.ctrs.errors.Add(1)
	if eresp.Code == "" {
		eresp.Code = CodeBadRequest
	}
	s.writeJSON(w, status, eresp)
}

func (s *Server) decode(w http.ResponseWriter, r *http.Request, v any) bool {
	s.ctrs.requests.Add(1)
	r.Body = http.MaxBytesReader(w, r.Body, s.conf.MaxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			s.writeErr(w, http.StatusRequestEntityTooLarge, &ErrorResponse{
				Error: fmt.Sprintf("request body exceeds the %d-byte cap", mbe.Limit),
				Code:  CodeTooLarge,
			})
			return false
		}
		s.writeErr(w, http.StatusBadRequest, &ErrorResponse{Error: "bad request body: " + err.Error(), Code: CodeBadBody})
		return false
	}
	return true
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var sp ProgramSpec
	if !s.decode(w, r, &sp) {
		return
	}
	s.ctrs.submits.Add(1)
	if sp.Source == "" && sp.Asm == "" {
		s.writeErr(w, http.StatusBadRequest, &ErrorResponse{Error: "no program text: give source or asm"})
		return
	}
	ent, cold, status, eresp := s.resolve("", sp)
	if eresp != nil {
		s.writeErr(w, status, eresp)
		return
	}
	s.writeJSON(w, http.StatusOK, SubmitResponse{
		Program:     ent.hash,
		Root:        ent.root,
		Cached:      !cold,
		MemoryBytes: ent.sess.MemoryFootprint(),
	})
}

// estOutcome is one solver pass's result, shared by every coalesced caller.
type estOutcome struct {
	est      *ipet.Estimate
	shed     bool
	wedged   bool
	answered string
}

// errWedged is returned when a solve hit the watchdog ceiling and the
// envelope fallback also failed: the server could not even produce a
// sound bracket.
var errWedged = errors.New("solve exceeded the watchdog ceiling")

// solveWithWatchdog runs the estimate under the configured hard ceiling.
// The solve runs in its own goroutine against a cancellable context; if
// the ceiling fires first the solve is cancelled, the admission slot is
// freed immediately (release is once-guarded, so the wedged goroutine's
// own deferred release becomes a no-op), and the caller is answered with
// a freshly computed anytime envelope — sound, Exact=false — from a
// token-deadline pass. A solve that never honors cancellation leaks its
// goroutine by design; the slot and the client do not wait for it.
func (s *Server) solveWithWatchdog(ctx context.Context, ent *entry, file *constraint.File, an *ipet.Analyzer, release func()) (*ipet.Estimate, bool, error) {
	var relOnce sync.Once
	rel := func() { relOnce.Do(release) }

	if s.conf.WatchdogCeiling <= 0 {
		defer rel()
		if s.conf.Chaos.Fire(chaos.SolveSlow) {
			time.Sleep(s.conf.Chaos.SlowSolveDuration())
		}
		est, err := an.EstimateContext(ctx)
		if err == nil {
			s.wedgeStreak.Store(0)
		}
		return est, false, err
	}

	sctx, cancel := context.WithCancel(ctx)
	defer cancel()
	type solveResult struct {
		est *ipet.Estimate
		err error
	}
	ch := make(chan solveResult, 1)
	go func() {
		defer rel()
		defer func() {
			if r := recover(); r != nil {
				ch <- solveResult{nil, &panicError{val: r}}
			}
		}()
		if s.conf.Chaos.Fire(chaos.SolveSlow) {
			// A wedge ignores cancellation — exactly the failure the
			// watchdog exists for.
			time.Sleep(s.conf.Chaos.SlowSolveDuration())
		}
		est, err := an.EstimateContext(sctx)
		ch <- solveResult{est, err}
	}()

	timer := time.NewTimer(s.conf.WatchdogCeiling)
	defer timer.Stop()
	select {
	case res := <-ch:
		if res.err == nil {
			s.wedgeStreak.Store(0)
		}
		return res.est, false, res.err
	case <-timer.C:
	}

	// Wedged: cancel the solve, free its slot, and answer soundly anyway.
	cancel()
	rel()
	s.ctrs.wedged.Add(1)
	s.wedgeStreak.Add(1)
	env, err := s.envelopeAnswer(ent, file)
	if err != nil {
		return nil, true, fmt.Errorf("%w; envelope fallback failed: %v", errWedged, err)
	}
	return env, true, nil
}

// envelopeAnswer computes the sound anytime envelope for the request with
// a fresh analyzer under the token shed deadline: the same degraded-but-
// honest answer an overloaded admission produces, used when the watchdog
// killed the real solve. It deliberately ignores the (possibly already
// cancelled) request context — the pass is bounded by shedDeadline.
func (s *Server) envelopeAnswer(ent *entry, file *constraint.File) (*ipet.Estimate, error) {
	an, err := ent.sess.Analyzer(file)
	if err != nil {
		return nil, err
	}
	an.SetAnytime(shedDeadline, 0)
	return an.EstimateContext(context.Background())
}

func (s *Server) handleEstimate(w http.ResponseWriter, r *http.Request) {
	startAt := time.Now()
	var req EstimateRequest
	if !s.decode(w, r, &req) {
		return
	}
	s.ctrs.estimates.Add(1)
	ent, cold, status, eresp := s.resolve(req.Program, req.ProgramSpec)
	if eresp != nil {
		s.writeErr(w, status, eresp)
		return
	}
	if cold && req.Program != "" {
		s.ctrs.resubmits.Add(1)
	}
	// Chaos: evict the session out from under this request. The request
	// holds its entry pointer and must still answer; the next request for
	// the hash re-prepares (or restores from the artifact store).
	if s.conf.Chaos.Fire(chaos.Evict) {
		s.store.remove(ent.hash)
	}
	file, err := constraint.ParseNamed("annotations", req.Annotations)
	if err != nil {
		s.writeErr(w, http.StatusBadRequest, &ErrorResponse{Error: err.Error(), Code: CodeAnnotation})
		return
	}

	slo := time.Duration(req.SLOMillis * float64(time.Millisecond))
	if slo <= 0 {
		slo = s.conf.DefaultSLO
	}

	// Parametric route: a point covered by a formula this session already
	// built is answered without a solve slot — the formula evaluation is a
	// handful of affine comparisons.
	if len(req.Params) > 0 {
		if pe, point, ok := coveringFormula(ent, req.Annotations, req.Params); ok {
			est, err := pe.pb.EstimateAtContext(r.Context(), point)
			if err != nil {
				s.writeEstimateErr(w, err)
				return
			}
			answered := "formula"
			if est.Stats.ParamFallbacks > 0 {
				answered = "fallback"
				s.ctrs.fallbackAnswered.Add(1)
			} else {
				s.ctrs.formulaAnswered.Add(1)
			}
			s.writeEstimate(w, &req, ent, est, "ok", answered, false, cold, startAt)
			return
		}
		// No covering formula: bind the symbols and solve concretely.
		file, err = file.Bind(req.Params)
		if err != nil {
			s.writeErr(w, http.StatusBadRequest, &ErrorResponse{Error: err.Error(), Code: CodeAnnotation})
			return
		}
	}

	// Coalesce identical concurrent requests onto one solver pass. The key
	// covers everything that shapes the answer; WantStats is presentation
	// and deliberately excluded.
	key := coalesceKey(&req)
	v, err, shared := ent.estFlights.Do(key, func() (any, error) {
		deadline, release, shed := s.adm.admit(r.Context(), slo)
		an, err := ent.sess.Analyzer(file)
		if err != nil {
			release()
			return nil, err
		}
		if missing := an.MissingLoopBounds(); len(missing) > 0 {
			release()
			return nil, fmt.Errorf("loops without bound annotations: %s", strings.Join(missing, "; "))
		}
		if deadline > 0 || req.Budget > 0 {
			an.SetAnytime(deadline, req.Budget)
		}
		if s.conf.Chaos.Fire(chaos.SolvePanic) {
			release()
			panic("chaos: injected solver panic")
		}
		est, wedged, err := s.solveWithWatchdog(r.Context(), ent, file, an, release)
		if err != nil {
			return nil, err
		}
		if shed {
			s.ctrs.shed.Add(1)
		}
		if !est.WCET.Exact || !est.BCET.Exact {
			s.ctrs.degraded.Add(1)
		}
		return &estOutcome{est: est, shed: shed, wedged: wedged, answered: "solver"}, nil
	})
	if err != nil {
		s.writeEstimateErr(w, err)
		return
	}
	if shared {
		s.ctrs.coalesced.Add(1)
	}
	out := v.(*estOutcome)
	admission := "ok"
	if out.shed {
		admission = "shed"
	}
	if out.wedged {
		admission = "watchdog"
	}
	s.writeEstimate(w, &req, ent, out.est, admission, out.answered, shared, cold, startAt)
}

func (s *Server) writeEstimate(w http.ResponseWriter, req *EstimateRequest, ent *entry, est *ipet.Estimate, admission, answered string, coalesced, cold bool, startAt time.Time) {
	exact := est.WCET.Exact && est.BCET.Exact
	resp := EstimateResponse{
		Program:         ent.hash,
		WCET:            est.WCET,
		BCET:            est.BCET,
		NumSets:         est.NumSets,
		PrunedSets:      est.PrunedSets,
		SolvedSets:      est.SolvedSets,
		AllRootIntegral: est.AllRootIntegral,
		Exact:           exact,
		Degraded:        !exact,
		Admission:       admission,
		AnsweredBy:      answered,
		Coalesced:       coalesced,
		ColdStart:       cold,
		ElapsedMicros:   time.Since(startAt).Microseconds(),
	}
	if cold {
		resp.PrepareMicros = ent.prepMicros
	}
	if req.WantStats {
		st := est.Stats
		resp.Stats = &st
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// writeEstimateErr maps analysis errors through the central taxonomy:
// infeasible annotations are the client's contradiction (422), annotation
// and unbound-symbol errors are bad requests with their own codes, a
// recovered panic is a typed 500, a wedged solve with no envelope is a
// typed 503.
func (s *Server) writeEstimateErr(w http.ResponseWriter, err error) {
	status, eresp := errEnvelope(err)
	if eresp.Code == CodePanic {
		s.ctrs.panics.Add(1)
	}
	s.writeErr(w, status, eresp)
}

func (s *Server) handleParametrize(w http.ResponseWriter, r *http.Request) {
	startAt := time.Now()
	var req ParametrizeRequest
	if !s.decode(w, r, &req) {
		return
	}
	s.ctrs.parametrizes.Add(1)
	ent, cold, status, eresp := s.resolve(req.Program, req.ProgramSpec)
	if eresp != nil {
		s.writeErr(w, status, eresp)
		return
	}
	if len(req.Specs) == 0 {
		s.writeErr(w, http.StatusBadRequest, &ErrorResponse{Error: "no parameter specs"})
		return
	}
	file, err := constraint.ParseNamed("annotations", req.Annotations)
	if err != nil {
		s.writeErr(w, http.StatusBadRequest, &ErrorResponse{Error: err.Error(), Code: CodeAnnotation})
		return
	}
	specs := make([]ipet.ParamSpec, len(req.Specs))
	for i, sp := range req.Specs {
		specs[i] = ipet.ParamSpec{Name: sp.Name, Lo: sp.Lo, Hi: sp.Hi}
	}
	key := formulaKey(req.Annotations, specs)
	if pe, ok := ent.formula(key); ok {
		s.writeParametrize(w, ent, pe.pb, true, cold, startAt)
		return
	}
	// One enumeration per identical concurrent request; reuse the entry's
	// flight group under a distinct key space.
	v, err, _ := ent.estFlights.Do("param|"+key, func() (any, error) {
		if pe, ok := ent.formula(key); ok {
			return pe.pb, nil
		}
		// The watchdog ceiling bounds region enumeration too: an
		// adversarial domain cannot pin the flight forever. Enumeration
		// honors cancellation, so a plain deadline context suffices here
		// (no envelope fallback exists for formulas — the caller gets the
		// typed watchdog error and can fall back to point estimates).
		pctx := r.Context()
		if ceiling := s.conf.WatchdogCeiling; ceiling > 0 {
			var cancel context.CancelFunc
			pctx, cancel = context.WithTimeout(pctx, ceiling)
			defer cancel()
		}
		pb, err := ent.sess.ParametrizeContext(pctx, file, specs)
		if err != nil {
			return nil, err
		}
		ent.putFormula(key, &paramEntry{key: key, pb: pb, specs: specs})
		return pb, nil
	})
	if err != nil {
		s.writeEstimateErr(w, err)
		return
	}
	s.writeParametrize(w, ent, v.(*ipet.ParamBound), false, cold, startAt)
}

func (s *Server) writeParametrize(w http.ResponseWriter, ent *entry, pb *ipet.ParamBound, cached, cold bool, startAt time.Time) {
	s.writeJSON(w, http.StatusOK, ParametrizeResponse{
		Program:   ent.hash,
		Formula:   pb.Describe(),
		Pieces:    pb.Pieces(),
		Certified: pb.Certified(),
		Cached:    cached,
		ColdStart: cold,
		ElapsedUs: time.Since(startAt).Microseconds(),
	})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.ctrs.requests.Add(1)
	resident, mem, ents := s.store.snapshot()
	resp := StatsResponse{
		UptimeSeconds:    time.Since(s.start).Seconds(),
		Requests:         s.ctrs.requests.Load(),
		Submits:          s.ctrs.submits.Load(),
		Estimates:        s.ctrs.estimates.Load(),
		Parametrizes:     s.ctrs.parametrizes.Load(),
		Coalesced:        s.ctrs.coalesced.Load(),
		Degraded:         s.ctrs.degraded.Load(),
		Shed:             s.ctrs.shed.Load(),
		Errors:           s.ctrs.errors.Load(),
		Panics:           s.ctrs.panics.Load(),
		Wedged:           s.ctrs.wedged.Load(),
		WedgeStreak:      s.wedgeStreak.Load(),
		FormulaAnswered:  s.ctrs.formulaAnswered.Load(),
		FallbackAnswered: s.ctrs.fallbackAnswered.Load(),
		Store: StoreStatsJSON{
			Resident:    resident,
			MemoryBytes: mem,
			MaxSessions: s.conf.MaxSessions,
			MemBudget:   s.conf.MemoryBudget,
			Hits:        s.ctrs.storeHits.Load(),
			Misses:      s.ctrs.storeMisses.Load(),
			Prepares:    s.ctrs.prepares.Load(),
			Resubmits:   s.ctrs.resubmits.Load(),
			Evictions:   s.ctrs.evictions.Load(),
		},
	}
	if s.wedgeStreak.Load() >= int64(s.conf.DegradedThreshold) {
		resp.Health = "degraded"
	} else {
		resp.Health = "ok"
	}
	art := s.artifacts.Snapshot()
	resp.Artifacts = ArtifactStatsJSON{
		Hits:    art.Hits,
		Misses:  art.Misses,
		Bytes:   art.Bytes,
		Entries: art.Entries,
		Persist: PersistStatsJSON{
			Restored:    art.Persist.Restored,
			Spilled:     art.Persist.Spilled,
			Corrupt:     art.Persist.Corrupt,
			WriteErrors: art.Persist.WriteErrors,
			Misses:      art.Persist.Misses,
		},
	}
	for _, ent := range ents {
		tot := ent.sess.Totals()
		bases, solves, finishes := ent.sess.CacheStats()
		ahits, amisses := ent.sess.ArtifactStats()
		resp.Sessions = append(resp.Sessions, SessionStatsJSON{
			Program:        ent.hash,
			Root:           ent.root,
			MemoryBytes:    ent.sess.MemoryFootprint(),
			Estimates:      tot.Estimates,
			Formula:        tot.FormulaAnswers,
			Degraded:       tot.Degraded,
			DeadlineHits:   tot.DeadlineHits,
			Pivots:         tot.Stats.Pivots,
			CacheHits:      tot.Stats.CacheHits,
			WarmBases:      bases,
			SetOutcomes:    solves,
			CountVectors:   finishes,
			ArtifactHits:   ahits,
			ArtifactMisses: amisses,
		})
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// coveringFormula finds a cached parametric bound whose declared domains
// exactly name the request's parameters and contain the point. The point
// vector comes back in the formula's spec order.
func coveringFormula(ent *entry, annots string, params map[string]int64) (*paramEntry, []int64, bool) {
	for _, pe := range ent.formulas() {
		if len(pe.specs) != len(params) {
			continue
		}
		// The formula is only valid for the annotation text it was built
		// from.
		if formulaKey(annots, pe.specs) != pe.key {
			continue
		}
		point := make([]int64, len(pe.specs))
		ok := true
		for k, sp := range pe.specs {
			v, have := params[sp.Name]
			if !have || v < sp.Lo || v > sp.Hi {
				ok = false
				break
			}
			point[k] = v
		}
		if ok {
			return pe, point, true
		}
	}
	return nil, nil, false
}

// formulaKey names a parametric formula by the annotation text and the
// ordered domain declarations.
func formulaKey(annots string, specs []ipet.ParamSpec) string {
	h := sha256.New()
	fmt.Fprintf(h, "%d|", len(annots))
	h.Write([]byte(annots))
	for _, sp := range specs {
		fmt.Fprintf(h, "|%s=%d..%d", sp.Name, sp.Lo, sp.Hi)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// coalesceKey names everything that shapes an estimate's answer:
// annotations, bound parameters, SLO, and budget.
func coalesceKey(req *EstimateRequest) string {
	h := sha256.New()
	fmt.Fprintf(h, "%d|", len(req.Annotations))
	h.Write([]byte(req.Annotations))
	names := make([]string, 0, len(req.Params))
	for name := range req.Params {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(h, "|%s=%d", name, req.Params[name])
	}
	fmt.Fprintf(h, "|slo=%g|budget=%d", req.SLOMillis, req.Budget)
	return hex.EncodeToString(h.Sum(nil))
}
