package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"cinderella/internal/constraint"
	"cinderella/internal/ipet"
	"cinderella/internal/prepcache"
	"cinderella/internal/serve"
	"cinderella/internal/serve/client"
)

// server is an in-process cinderelld on a loopback listener with one
// closed-loop client. A benchmark-side middleware around Server.Handler
// records the handler span of traced requests; the client's transport
// tells it which operation a request belongs to.
type server struct {
	srv    *serve.Server
	hs     *http.Server
	served chan error
	tport  *http.Transport
	cl     *client.Client
	tr     atomic.Pointer[tracer]
}

// spanHeader carries "<op>/<parent span>/<class>" from client to middleware
// on traced requests.
const spanHeader = "X-Perfbench-Span"

type spanKey struct{}

func startServer(conf serve.Config) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &server{srv: serve.New(conf), served: make(chan error, 1)}
	s.hs = &http.Server{Handler: s.middleware(s.srv.Handler()), ReadHeaderTimeout: 10 * time.Second}
	go func() { s.served <- s.hs.Serve(ln) }()
	s.tport = &http.Transport{MaxIdleConnsPerHost: 2, DisableCompression: true}
	s.cl = client.New(client.Config{
		Base: "http://" + ln.Addr().String(),
		HTTP: &http.Client{Transport: spanTransport{s.tport}},
	})
	return s, nil
}

// close shuts the server down and waits for it to stop serving.
func (s *server) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	s.tport.CloseIdleConnections()
	return err
}

func (s *server) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tr := s.tr.Load()
		parts := strings.SplitN(r.Header.Get(spanHeader), "/", 3)
		if tr == nil || len(parts) != 3 {
			next.ServeHTTP(w, r)
			return
		}
		op, _ := strconv.ParseInt(parts[0], 10, 64)
		parent, _ := strconv.ParseInt(parts[1], 10, 32)
		id := tr.begin("serve.handler", parts[2], op, int32(parent))
		next.ServeHTTP(w, r)
		tr.end(id)
	})
}

// spanTransport stamps traced requests with their operation and parent span.
type spanTransport struct{ base http.RoundTripper }

func (t spanTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if v, ok := r.Context().Value(spanKey{}).(string); ok {
		r = r.Clone(r.Context())
		r.Header.Set(spanHeader, v)
	}
	return t.base.RoundTrip(r)
}

// svcTotals sums what the service reports: per-answer flags, and /v1/stats
// deltas read at round boundaries of traced rounds.
type svcTotals struct {
	cold, formula, typedErrors   int
	prepareUs                    []float64
	storeHits, storeMisses       int64
	evictions, degraded, shed    int64
	coalesced, artHits, artMiss  int64
	entries, storeBytes, artByte int64
	retries                      int64
	// largest is the largest resident session seen at a round end.
	largest statsSession
}

// statsSession is one resident session's size in /v1/stats: its cache
// entries (warm_bases + set_outcomes + count_vectors) and footprint.
type statsSession struct {
	entries, bytes int64
}

// statsSnap is the part of /v1/stats the per-layer metrics use.
type statsSnap struct {
	storeHits, storeMisses, evictions, degraded, shed, coalesced int64
	artHits, artMiss, artBytes, storeBytes                       int64
	sessions                                                     map[string]statsSession
}

func (s *server) stats() (statsSnap, error) {
	st, err := s.cl.Stats(context.Background())
	if err != nil {
		return statsSnap{}, fmt.Errorf("/v1/stats: %w", err)
	}
	snap := statsSnap{
		storeHits: st.Store.Hits, storeMisses: st.Store.Misses, evictions: st.Store.Evictions,
		degraded: st.Degraded, shed: st.Shed, coalesced: st.Coalesced,
		artHits: st.Artifacts.Hits, artMiss: st.Artifacts.Misses, artBytes: st.Artifacts.Bytes,
		storeBytes: st.Store.MemoryBytes, sessions: map[string]statsSession{},
	}
	for _, ss := range st.Sessions {
		snap.sessions[ss.Program] = statsSession{int64(ss.WarmBases + ss.SetOutcomes + ss.CountVectors), ss.MemoryBytes}
	}
	return snap, nil
}

// addDelta folds a traced round's /v1/stats difference into the totals.
func (t *svcTotals) addDelta(a, b statsSnap) {
	t.storeHits += b.storeHits - a.storeHits
	t.storeMisses += b.storeMisses - a.storeMisses
	t.evictions += b.evictions - a.evictions
	t.degraded += b.degraded - a.degraded
	t.shed += b.shed - a.shed
	t.coalesced += b.coalesced - a.coalesced
	t.artHits += b.artHits - a.artHits
	t.artMiss += b.artMiss - a.artMiss
	t.storeBytes = max(t.storeBytes, b.storeBytes)
	t.artByte = max(t.artByte, b.artBytes)
	for _, ss := range b.sessions {
		if ss.entries > t.largest.entries {
			t.largest = ss
		}
	}
}

// round sends one round's requests in order, back to back. On traced
// rounds it reads /v1/stats before the round and after every request, and
// afterwards replays every request in process — in the same order, so each
// replay session sees the same sequence of scenarios its server session
// did.
func (s *server) round(m *meas, order []*scenario, req func(*scenario) serve.EstimateRequest, replay *replayer) error {
	s.tr.Store(m.tr)
	var s0 statsSnap
	retries0 := s.cl.Retries()
	if m.tr != nil {
		var err error
		if s0, err = s.stats(); err != nil {
			return err
		}
	}
	ids := make([]int64, len(order))
	prev := s0
	t0 := time.Now()
	for i, sc := range order {
		var hash string
		ids[i], hash = s.request(m, sc, req(sc))
		if m.tr == nil {
			continue
		}
		// The cache entries a request wrote are its session's growth. Read
		// after every request, before a later one can evict the session,
		// so evicted sessions' entries are counted too; a session not
		// resident before the request was prepared by it, from none.
		cur, err := s.stats()
		if err != nil {
			return err
		}
		m.svc.entries += cur.sessions[hash].entries - prev.sessions[hash].entries
		prev = cur
	}
	m.busy += time.Since(t0)
	if m.tr == nil {
		return nil
	}
	m.svc.addDelta(s0, prev)
	m.svc.retries += s.cl.Retries() - retries0
	for i, sc := range order {
		replay.run(m, ids[i], sc)
	}
	return nil
}

// request sends one estimate as one operation, checks the answer, and
// returns the operation's ID and the answering program's hash. On traced
// rounds the request asks for the
// solver work breakdown and carries its span context to the middleware.
func (s *server) request(m *meas, sc *scenario, req serve.EstimateRequest) (int64, string) {
	id := m.op()
	m.ops++
	ctx := context.Background()
	var rt0 runtimeSample
	if m.tr != nil {
		req.WantStats = true
		rt0 = readRuntime()
	}
	t0 := time.Now()
	root := m.tr.begin("op", sc.class, id, -1)
	rtID := m.tr.begin("serve.roundtrip", sc.class, id, root)
	if m.tr != nil {
		ctx = context.WithValue(ctx, spanKey{}, fmt.Sprintf("%d/%d/%s", id, rtID, sc.class))
	}
	resp, err := s.cl.Estimate(ctx, req)
	m.tr.end(rtID)
	m.tr.end(root)
	d := time.Since(t0)
	if m.tr != nil {
		m.opAllocs += readRuntime().sub(rt0).allocBytes
	}
	if err != nil {
		var ae *client.APIError
		if errors.As(err, &ae) && ae.Code != "" {
			m.svc.typedErrors++
		}
		m.fail(sc.class, err)
		return id, ""
	}
	m.record(sc.class, d)
	m.check(sc.class, bounds{resp.BCET.Cycles, resp.WCET.Cycles}, resp.Exact, sc.ref)
	if resp.ColdStart {
		m.svc.cold++
		m.svc.prepareUs = append(m.svc.prepareUs, float64(resp.PrepareMicros))
	}
	if resp.AnsweredBy == "formula" {
		m.svc.formula++
	}
	if resp.Stats != nil {
		m.work.add(*resp.Stats, resp.WCET, resp.BCET, false)
	}
	return id, resp.Program
}

// replayer answers served requests again in process, on sessions warmed
// exactly like the server's, so handler time can be split into the ipet
// work and the service's own overhead.
type replayer struct {
	sessions map[*program]*ipet.Session
	formula  *ipet.ParamBound
	art      *prepcache.Cache
}

func newReplayer() *replayer {
	return &replayer{sessions: map[*program]*ipet.Session{}, art: prepcache.New()}
}

func (rp *replayer) session(p *program) (*ipet.Session, error) {
	if s, ok := rp.sessions[p]; ok {
		return s, nil
	}
	s, err := prepare(opSpans{}, p, false, rp.art)
	if err != nil {
		return nil, err
	}
	rp.sessions[p] = s
	return s, nil
}

// warm runs one scenario on its replay session, untimed.
func (rp *replayer) warm(sc *scenario) error {
	sess, err := rp.session(sc.prog)
	if err != nil {
		return err
	}
	if len(sc.params) > 0 {
		return nil
	}
	file, err := constraint.ParseNamed("annotations", sc.annots)
	if err != nil {
		return err
	}
	_, err = sess.EstimateContext(context.Background(), file)
	return err
}

// run replays one request: parse → Analyzer (apply) → EstimateContext, or
// parse → formula evaluation for parametric points.
func (rp *replayer) run(m *meas, id int64, sc *scenario) {
	root := m.tr.begin("replay", sc.class, id, -1)
	defer m.tr.end(root)
	sp := opSpans{m.tr, sc.class, id, root}
	s := sp.begin("constraint.parse")
	file, err := constraint.ParseNamed("annotations", sc.annots)
	sp.end(s)
	if err != nil {
		m.fail(sc.class, fmt.Errorf("replay: %w", err))
		return
	}
	var est *ipet.Estimate
	if len(sc.params) > 0 {
		s = sp.begin("ipet.estimate_at")
		est, err = rp.formula.EstimateAtContext(context.Background(), []int64{sc.params[formulaParam]})
		sp.end(s)
	} else {
		sess, serr := rp.session(sc.prog)
		if serr != nil {
			m.fail(sc.class, fmt.Errorf("replay: %w", serr))
			return
		}
		s = sp.begin("ipet.apply")
		an, aerr := sess.Analyzer(file)
		sp.end(s)
		if aerr != nil {
			m.fail(sc.class, fmt.Errorf("replay: %w", aerr))
			return
		}
		s = sp.begin("ipet.estimate")
		est, err = an.EstimateContext(context.Background())
		sp.end(s)
	}
	if err != nil {
		m.fail(sc.class, fmt.Errorf("replay: %w", err))
		return
	}
	if verr := verdict(bounds{est.BCET.Cycles, est.WCET.Cycles}, est.WCET.Exact && est.BCET.Exact, sc.ref); verr != nil {
		m.reject(sc.class, fmt.Errorf("replay: %w", verr))
	}
}

// breakdown splits each traced request's time from its spans: round trip,
// handler, wire (round trip minus handler), the replayed ipet calls, and
// overhead (handler minus the whole replay), all in µs by class.
type breakdown struct {
	roundtrip, handler, wire, ipet, overhead map[string][]float64
}

func serveBreakdown(tr *tracer) *breakdown {
	bd := &breakdown{map[string][]float64{}, map[string][]float64{}, map[string][]float64{},
		map[string][]float64{}, map[string][]float64{}}
	type rec struct {
		class                    string
		rt, handler, replay, ipt time.Duration
		haveHandler, haveReplay  bool
	}
	ops := map[int64]*rec{}
	get := func(s span) *rec {
		r := ops[s.Op]
		if r == nil {
			r = &rec{class: s.Class}
			ops[s.Op] = r
		}
		return r
	}
	for _, s := range tr.all() {
		switch s.Name {
		case "serve.roundtrip":
			get(s).rt = s.dur()
		case "serve.handler":
			r := get(s)
			r.handler, r.haveHandler = s.dur(), true
		case "replay":
			r := get(s)
			r.replay, r.haveReplay = s.dur(), true
		case "ipet.apply", "ipet.estimate", "ipet.estimate_at":
			get(s).ipt += s.dur()
		}
	}
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	for _, r := range ops {
		if r.rt == 0 || !r.haveHandler {
			continue
		}
		bd.roundtrip[r.class] = append(bd.roundtrip[r.class], us(r.rt))
		bd.handler[r.class] = append(bd.handler[r.class], us(r.handler))
		bd.wire[r.class] = append(bd.wire[r.class], us(r.rt-r.handler))
		if r.haveReplay {
			bd.ipet[r.class] = append(bd.ipet[r.class], us(r.ipt))
			bd.overhead[r.class] = append(bd.overhead[r.class], us(r.handler-r.replay))
		}
	}
	return bd
}

// p50 reports a median over requests, or 0 when fewer than 2*minBeyond
// samples exist.
func p50(xs []float64) float64 {
	v, _ := percentile(xs, 0.5)
	return v
}

// serveEndToEnd reports the client-side latency percentiles.
func serveEndToEnd(r *report, m *meas) {
	r.set("latency_ms.p50", p50(m.all), fmt.Sprintf("all %d requests", len(m.all)))
	if p90, ok := percentile(m.all, 0.9); ok {
		r.printf("latency_ms.p90 %.6g ms (all %d requests; not a gated metric)", p90, len(m.all))
	}
	latencyLines(r, m.lat)
}

// serveLayers reports the serve-side per-layer metrics shared by both
// serve workloads.
func serveLayers(r *report, m *meas, lt *layerTimes) {
	bd := serveBreakdown(r.spans)
	n := func(xs []float64) string { return fmt.Sprintf("%d traced requests", len(xs)) }
	rt, h, wire, ov := flatten(bd.roundtrip), flatten(bd.handler), flatten(bd.wire), flatten(bd.overhead)
	r.set("serve.roundtrip_us.p50", p50(rt), n(rt))
	r.set("serve.handler_us.p50", p50(h), n(h))
	r.set("serve.wire_us.p50", p50(wire), n(wire))
	r.set("serve.overhead_us.p50", p50(ov), n(ov))
	for _, class := range sortedKeys(bd.roundtrip) {
		w, o, ip := median(bd.wire[class]), median(bd.overhead[class]), median(bd.ipet[class])
		largest := "ipet"
		if w >= o && w >= ip {
			largest = "wire"
		} else if o >= w && o >= ip {
			largest = "overhead"
		}
		r.printf("class %-22s wire_us %.1f  overhead_us %.1f  ipet_us %.1f  (medians of %d) largest: %s",
			class, w, o, ip, len(bd.wire[class]), largest)
	}
	sv := m.svc
	reqs := float64(m.ops)
	r.set("serve.store_hit_ratio", share(float64(sv.storeHits), float64(sv.storeHits+sv.storeMisses)),
		fmt.Sprintf("%d hits, %d misses", sv.storeHits, sv.storeMisses))
	r.set("serve.evictions_per_kreq", 1000*share(float64(sv.evictions), reqs), fmt.Sprintf("%d evictions", sv.evictions))
	r.set("serve.cold_share", share(float64(sv.cold), reqs), fmt.Sprintf("%d cold of %d requests", sv.cold, m.ops))
	r.set("serve.prepare_us.p50", p50(sv.prepareUs), fmt.Sprintf("%d cold responses (0 below %d)", len(sv.prepareUs), 2*minBeyond))
	r.set("serve.store_mb", float64(sv.storeBytes)/1e6, "largest store footprint at a round end")
	r.set("serve.formula_share", share(float64(sv.formula), reqs), fmt.Sprintf("%d formula answers", sv.formula))
	r.set("serve.retries", float64(sv.retries), "client transport retries")
	r.set("serve.typed_errors", float64(sv.typedErrors), "typed error answers")
	r.set("serve.degraded", float64(sv.degraded), "/v1/stats delta")
	r.set("serve.shed", float64(sv.shed), "/v1/stats delta")
	r.set("serve.coalesced", float64(sv.coalesced), "/v1/stats delta")
	r.set("prepcache.hit_ratio", share(float64(sv.artHits), float64(sv.artHits+sv.artMiss)),
		fmt.Sprintf("server artifact cache: %d hits, %d misses", sv.artHits, sv.artMiss))
	r.set("prepcache.mb", float64(sv.artByte)/1e6, "largest server artifact cache at a round end")
	r.set("ipet.cache_entries_per_kreq", 1000*share(float64(sv.entries), reqs),
		fmt.Sprintf("Δ warm_bases+set_outcomes+count_vectors of the answering session, per request, over %d requests", m.ops))
	r.printf("largest resident session at a round end: %d cache entries, %.3f MB", sv.largest.entries, float64(sv.largest.bytes)/1e6)
	// The front end runs inside the server; these requests call no front-end
	// entry point.
	for _, name := range []string{"cc.build_ms", "asm.assemble_ms", "prepcache.build_program_ms", "ipet.prepare_ms"} {
		r.set(name, 0, "no front-end calls in this workload's operations")
	}
	for _, c := range []struct{ metric, span string }{
		{"constraint.parse_us", "constraint.parse"}, {"ipet.apply_us", "ipet.apply"}, {"ipet.estimate_us", "ipet.estimate"},
	} {
		v, n := lt.classGeomean(c.span)
		r.set(c.metric, v, "replay: "+n)
	}
	workLayers(r, m.work)
	r.set("certify.overhead_x", 0, "not certifying")
}
