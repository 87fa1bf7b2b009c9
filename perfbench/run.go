package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"cinderella/internal/ipet"
)

// workload is one benchmark workload. inputs draws the seeded inputs and
// their referee answers once per run, untimed: they depend only on the
// seed. setup then starts any server, submits and prepares the working
// set, builds formulas and warms up — the timed set-up, repeated fresh
// setupReps times. round runs one fixed batch of operations (a pass over
// the inputs, or one request stream).
type workload interface {
	inputs(seed int64) error
	setup(traced bool) error
	round(m *meas) error
	close() error
	digest() string
	// endToEnd and perLayer add the workload's metrics to the report.
	endToEnd(r *report, m *meas)
	perLayer(r *report, m *meas, lt *layerTimes)
}

// setupReps is how many fresh set-ups a run makes; setup_s is their median.
const setupReps = 11

var workloads = map[string]func() workload{
	"oneshot":       func() workload { return &batch{maxChain: 8} },
	"certified":     func() workload { return &batch{certify: true, maxChain: 5} },
	"serve-hot":     func() workload { return &hot{} },
	"serve-explore": func() workload { return &explore{} },
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// meas accumulates one mode's rounds: the untraced rounds of every run, or
// the traced rounds of a --trace 1 run.
type meas struct {
	tr     *tracer
	rounds int
	// busy is the wall time of the rounds' operation loops; throughput is
	// each round's operations per second of its loop.
	busy       time.Duration
	throughput []float64
	ops        int
	// lat holds each operation's latency in ms, by class; all holds them in
	// request order.
	lat      map[string][]float64
	all      []float64
	failed   int
	answered int
	inexact  int
	wrong    int
	notes    []string
	work     workTotals
	svc      svcTotals
	rt       runtimeSample
	opAllocs float64
	nextOp   int64
}

func newMeas(tr *tracer) *meas { return &meas{tr: tr, lat: map[string][]float64{}} }

func (m *meas) op() int64 {
	m.nextOp++
	return m.nextOp
}

// record notes one completed operation's latency.
func (m *meas) record(class string, d time.Duration) {
	ms := float64(d) / float64(time.Millisecond)
	m.lat[class] = append(m.lat[class], ms)
	m.all = append(m.all, ms)
}

// fail notes an operation that produced no answer.
func (m *meas) fail(class string, err error) {
	m.failed++
	m.note(fmt.Sprintf("FAILED %s: %v", class, err))
}

// check counts one answer and compares it with the referee. An inexact
// answer is counted and rejected even when it is sound.
func (m *meas) check(class string, got bounds, exact bool, ref bounds) {
	m.answered++
	if !exact {
		m.inexact++
	}
	if err := verdict(got, exact, ref); err != nil {
		m.reject(class, err)
	}
}

// reject notes an answer the referee rejects.
func (m *meas) reject(class string, err error) {
	m.wrong++
	m.note(fmt.Sprintf("WRONG %s: %v", class, err))
}

// note keeps the first few diagnostics for the report.
func (m *meas) note(msg string) {
	if len(m.notes) < 10 {
		m.notes = append(m.notes, msg)
	}
}

// workTotals sums the ipet work counters of every answer.
type workTotals struct {
	estimates                                int
	sets, pivots, cacheHits, solved          int
	warm, cold, network, revisedPivots       int
	exactResolves, suspect, certFailures     int
	rechecked, uncertified                   int
	artHits, artMisses, artBytes, cacheEntry int64
}

func (w *workTotals) add(st ipet.Stats, wcet, bcet ipet.BoundReport, certify bool) {
	w.estimates++
	w.sets += st.SetsTotal
	w.pivots += st.Pivots
	w.cacheHits += st.CacheHits
	w.solved += st.Solved
	w.warm += st.WarmSolves
	w.cold += st.ColdSolves
	w.network += st.NetworkSolves
	w.revisedPivots += st.RevisedPivots
	w.exactResolves += st.ExactResolves
	w.suspect += st.SuspectPivots
	w.certFailures += st.CertFailures
	w.rechecked += wcet.RecheckedSets + bcet.RecheckedSets
	if certify && !(wcet.Certified && bcet.Certified) {
		w.uncertified++
	}
}

// run performs set-up, the timed phase, and the metric computation of one
// benchmark run.
func run(cfg config) (*report, error) {
	mk, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have %v)", cfg.workload, workloadNames())
	}
	w := mk()
	if err := w.inputs(cfg.seed); err != nil {
		return nil, fmt.Errorf("inputs: %w", err)
	}
	su := &setups{w: w, traced: cfg.trace}
	base, traced := newMeas(nil), newMeas(newTracer())
	err := su.next()
	if err == nil {
		runtime.GC()
		err = timedPhase(cfg, su, base, traced)
	}
	if cerr := w.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}

	r := newReport(cfg, w.digest())
	r.spans, r.work = traced.tr, traced.work
	r.tally(base)
	r.tally(traced)
	if !cfg.trace {
		r.set("setup_s", median(su.times), fmt.Sprintf("median of %d fresh set-ups spread over the run", len(su.times)))
		rss, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		r.set("peak_rss_mb", rss, "VmHWM at exit, 1 sample")
		r.set("ops_per_s", median(base.throughput),
			fmt.Sprintf("median over %d rounds; %d ops in %.2f s", base.rounds, base.ops, base.busy.Seconds()))
		meds, minN := classMedians(base.lat)
		r.set("latency_ms.geomean", geomean(meds),
			fmt.Sprintf("geomean of %d class medians, >=%d samples each", len(meds), minN))
		w.endToEnd(r, base)
		shares(r, base)
		return r, nil
	}

	lt := traced.tr.summarize()
	w.perLayer(r, traced, lt)
	shares(r, traced)
	// Tracing overhead: the same operations' latency traced vs untraced,
	// per class, combined by geomean.
	var ratios []float64
	for class, xs := range traced.lat {
		if b := median(base.lat[class]); b > 0 {
			ratios = append(ratios, median(xs)/b)
		}
	}
	r.set("trace.overhead_frac", geomean(ratios)-1,
		fmt.Sprintf("%d classes, %d traced vs %d untraced rounds", len(ratios), traced.rounds, base.rounds))
	low, minCov := 0, 1.0
	for _, c := range lt.coverage {
		if c < 0.9 {
			low++
		}
		minCov = min(minCov, c)
	}
	r.set("trace.coverage", share(float64(lt.covered), float64(lt.treeTime["op"])),
		fmt.Sprintf("layer-span time / op time over %d ops; %d ops below 0.9, lowest %.3f", len(lt.coverage), low, minCov))
	rt := traced.rt
	r.set("runtime.alloc_kb_per_op", share(traced.opAllocs/1024, float64(traced.ops)),
		fmt.Sprintf("heap bytes allocated inside %d ops", traced.ops))
	r.set("runtime.gc_cpu_share", share(rt.gcCPU, rt.totalCPU),
		fmt.Sprintf("GC CPU over %.2f CPU-s of traced rounds", rt.totalCPU))
	r.lines = append(r.lines, lt.selfLines()...)
	return r, nil
}

// tally adds one mode's operations, failures and rejected answers to the
// result.
func (r *report) tally(m *meas) {
	r.attempted += m.ops
	r.failed += m.failed
	r.wrong += m.wrong
	r.lines = append(r.lines, m.notes...)
	if m.work.certFailures > 0 {
		r.wrong += m.work.certFailures
		r.printf("WRONG %d certificate failures", m.work.certFailures)
	}
	if m.work.uncertified > 0 {
		r.wrong += m.work.uncertified
		r.printf("WRONG %d certified answers lack Certified on a bound", m.work.uncertified)
	}
}

// setups makes a run's fresh timed set-ups. The first comes before the
// timed phase; the others are spread evenly over it, between rounds, so
// that their median covers the same stretch of host conditions as the
// rounds' medians do, not just the run's first second.
type setups struct {
	w      workload
	traced bool
	times  []float64
}

// next replaces the workload's set-up with a fresh one and times it. It
// starts from a collected heap: the garbage of the referees and of earlier
// set-ups is not its to collect.
func (s *setups) next() error {
	if len(s.times) > 0 {
		if err := s.w.close(); err != nil {
			return err
		}
	}
	runtime.GC()
	t0 := time.Now()
	if err := s.w.setup(s.traced); err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	s.times = append(s.times, time.Since(t0).Seconds())
	return nil
}

// timedPhase runs rounds until the time is spent and every mode has its
// minimum round count, and makes the remaining set-ups between them; the
// phase's clock stops during set-ups. Traced runs alternate untraced and
// traced rounds so drift hits both alike.
func timedPhase(cfg config, su *setups, base, traced *meas) error {
	// minRounds keeps a median per mode; roundSpans bounds the spans one
	// round records (the largest, serve-explore, records about 1000).
	const minRounds, roundSpans = 3, 2 * spanChunk
	dur := time.Duration(cfg.seconds * float64(time.Second))
	start := time.Now()
	var paused time.Duration
	for i := 0; ; i++ {
		elapsed := time.Since(start) - paused
		for len(su.times) < setupReps && elapsed >= time.Duration(len(su.times))*dur/setupReps {
			t := time.Now()
			if err := su.next(); err != nil {
				return err
			}
			paused += time.Since(t)
		}
		done := elapsed >= dur && base.rounds >= minRounds && (!cfg.trace || traced.rounds >= minRounds)
		if cfg.rounds > 0 {
			done = i >= cfg.rounds
		}
		if done {
			break
		}
		m := base
		if cfg.trace && i%2 == 1 {
			m = traced
		}
		var rt0 runtimeSample
		if m.tr != nil {
			m.tr.reserve(roundSpans)
			rt0 = readRuntime()
		}
		ops0, busy0 := m.ops, m.busy
		if err := su.w.round(m); err != nil {
			return err
		}
		if m.tr != nil {
			m.rt.add(readRuntime().sub(rt0))
		}
		m.throughput = append(m.throughput, float64(m.ops-ops0)/(m.busy-busy0).Seconds())
		m.rounds++
	}
	// Runs with a fixed round count may end before every set-up's turn.
	for len(su.times) < setupReps {
		if err := su.next(); err != nil {
			return err
		}
	}
	return nil
}

// shares reports the failure and exactness shares of a mode's answers.
func shares(r *report, m *meas) {
	r.set("failed_share", share(float64(m.failed), float64(m.ops)), fmt.Sprintf("%d of %d ops failed", m.failed, m.ops))
	r.set("inexact_share", share(float64(m.inexact), float64(m.answered)),
		fmt.Sprintf("%d of %d answers with Exact=false", m.inexact, m.answered))
}

// workLayers reports the ipet, ilp and certify work counters.
func workLayers(r *report, w workTotals) {
	n := fmt.Sprintf("%d answers", w.estimates)
	per := func(x int) float64 { return share(float64(x), float64(w.estimates)) }
	r.set("ipet.sets_per_op", per(w.sets), n)
	r.set("ipet.session_hit_ratio", share(float64(w.cacheHits), float64(w.cacheHits+w.solved)),
		fmt.Sprintf("%d cache hits, %d solved", w.cacheHits, w.solved))
	r.set("ilp.pivots_per_op", per(w.pivots), n)
	r.set("ilp.warm_share", share(float64(w.warm), float64(w.warm+w.cold)), fmt.Sprintf("%d warm, %d cold solves", w.warm, w.cold))
	r.set("ilp.network_share", share(float64(w.network), float64(w.cold)), fmt.Sprintf("%d network-kernel LPs per %d cold solves", w.network, w.cold))
	r.set("ilp.revised_pivot_share", share(float64(w.revisedPivots), float64(w.pivots)), fmt.Sprintf("%d of %d pivots", w.revisedPivots, w.pivots))
	r.set("certify.exact_resolves_per_op", per(w.exactResolves), n)
	r.set("certify.rechecked_per_op", per(w.rechecked), n)
	r.set("certify.suspect_pivots", float64(w.suspect), n)
	r.set("certify.cert_failures", float64(w.certFailures), n)
}

// latencyLines prints each class's median latency with its sample count.
func latencyLines(r *report, lat map[string][]float64) {
	for _, n := range sortedKeys(lat) {
		r.printf("class %-22s latency median %.4g ms (n=%d)", n, median(lat[n]), len(lat[n]))
	}
}
