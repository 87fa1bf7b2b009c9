package main

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"cinderella/internal/constraint"
	"cinderella/internal/ipet"
	"cinderella/internal/prepcache"
)

// batch is the oneshot and certified workload: the CLI-equivalent cold
// analysis. One round is one pass over every input in a seeded order; each
// input runs the whole pipeline from a fresh artifact cache, so no work is
// shared between operations.
type batch struct {
	certify  bool
	maxChain int // chains of 2^4 .. 2^maxChain sets

	scs   []*scenario
	rng   *rand.Rand
	first []*scenario // the first pass's order

	// plain holds, on traced certified runs, each input's latency without
	// certification (ms, by class): the base of certify.overhead_x.
	plain map[string][]float64
}

func (b *batch) inputs(seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	inputs := tableI()
	if err := goldenReferee(inputs); err != nil {
		return err
	}
	for n := 4; n <= b.maxChain; n++ {
		sc := chainScenario(n)
		if err := chainReferee(sc); err != nil {
			return err
		}
		inputs = append(inputs, sc)
	}
	b.scs, b.rng = inputs, rng
	b.first = shuffled(inputs, rng)
	b.plain = map[string][]float64{}
	return nil
}

// setup is the warm-up: one uncertified analysis of every input, checked.
func (b *batch) setup(traced bool) error {
	warm := newMeas(nil)
	for _, sc := range b.scs {
		est, _, _, err := analyze(opSpans{}, sc, false)
		if err != nil {
			return fmt.Errorf("warm-up %s: %w", sc.class, err)
		}
		warm.check(sc.class, bounds{est.BCET.Cycles, est.WCET.Cycles}, est.WCET.Exact && est.BCET.Exact, sc.ref)
	}
	if warm.wrong > 0 {
		return fmt.Errorf("warm-up: %v", warm.notes)
	}
	return nil
}

func (b *batch) close() error   { return nil }
func (b *batch) digest() string { return digest(b.first) }

func (b *batch) round(m *meas) error {
	order := b.first
	if m.rounds > 0 || m.tr != nil {
		order = shuffled(b.scs, b.rng)
	}
	t0 := time.Now()
	for _, sc := range order {
		b.op(m, sc)
	}
	m.busy += time.Since(t0)
	if m.tr != nil && b.certify {
		// The uncertified twin of every input, outside any operation.
		for _, sc := range order {
			t := time.Now()
			if _, _, _, err := analyze(opSpans{}, sc, false); err != nil {
				return err
			}
			b.plain[sc.class] = append(b.plain[sc.class], float64(time.Since(t))/float64(time.Millisecond))
		}
	}
	return nil
}

// op runs and checks one cold analysis.
func (b *batch) op(m *meas, sc *scenario) {
	id := m.op()
	m.ops++
	var rt0 runtimeSample
	if m.tr != nil {
		rt0 = readRuntime()
	}
	t0 := time.Now()
	root := m.tr.begin("op", sc.class, id, -1)
	est, art, entries, err := analyze(opSpans{m.tr, sc.class, id, root}, sc, b.certify)
	m.tr.end(root)
	d := time.Since(t0)
	if m.tr != nil {
		m.opAllocs += readRuntime().sub(rt0).allocBytes
	}
	if err != nil {
		m.fail(sc.class, err)
		return
	}
	m.record(sc.class, d)
	m.check(sc.class, bounds{est.BCET.Cycles, est.WCET.Cycles}, est.WCET.Exact && est.BCET.Exact, sc.ref)
	m.work.add(est.Stats, est.WCET, est.BCET, b.certify)
	m.work.artHits += art.Hits
	m.work.artMisses += art.Misses
	m.work.artBytes += art.Bytes
	m.work.cacheEntry += int64(entries)
}

// analyze is the one-shot pipeline through the public entry points, with a
// span around each call: fresh artifact cache → prepare → ParseNamed →
// Analyzer (apply) → EstimateContext. It also returns the cache's snapshot
// and the session's cache entry count.
func analyze(sp opSpans, sc *scenario, certify bool) (*ipet.Estimate, prepcache.Stats, int, error) {
	art := prepcache.New()
	sess, err := prepare(sp, sc.prog, certify, art)
	if err != nil {
		return nil, art.Snapshot(), 0, err
	}
	s := sp.begin("constraint.parse")
	file, err := constraint.ParseNamed(sc.class, sc.annots)
	sp.end(s)
	if err != nil {
		return nil, art.Snapshot(), 0, err
	}
	s = sp.begin("ipet.apply")
	an, err := sess.Analyzer(file)
	sp.end(s)
	if err != nil {
		return nil, art.Snapshot(), 0, err
	}
	s = sp.begin("ipet.estimate")
	est, err := an.EstimateContext(context.Background())
	sp.end(s)
	if err != nil {
		return nil, art.Snapshot(), 0, err
	}
	bases, solves, finishes := sess.CacheStats()
	return est, art.Snapshot(), bases + solves + finishes, nil
}

func (b *batch) endToEnd(r *report, m *meas) {
	// A percentile is never taken across programs: the batch p50 is each
	// program's median, combined by geomean.
	meds, minN := classMedians(m.lat)
	r.set("latency_ms.p50", geomean(meds), fmt.Sprintf("per-program medians, geomean over %d programs, >=%d samples each", len(meds), minN))
	latencyLines(r, m.lat)
}

func (b *batch) perLayer(r *report, m *meas, lt *layerTimes) {
	for _, c := range []struct {
		metric, span string
		scale        float64 // span durations are in µs
	}{
		{"cc.build_ms", "cc.build", 1e3},
		{"asm.assemble_ms", "asm.assemble", 1e3},
		{"prepcache.build_program_ms", "prepcache.build_program", 1e3},
		{"ipet.prepare_ms", "ipet.prepare", 1e3},
		{"constraint.parse_us", "constraint.parse", 1},
		{"ipet.apply_us", "ipet.apply", 1},
		{"ipet.estimate_us", "ipet.estimate", 1},
	} {
		v, n := lt.classGeomean(c.span)
		r.set(c.metric, v/c.scale, n)
	}
	w := m.work
	r.set("prepcache.hit_ratio", share(float64(w.artHits), float64(w.artHits+w.artMisses)),
		fmt.Sprintf("%d hits, %d misses over %d fresh caches", w.artHits, w.artMisses, w.estimates))
	r.set("prepcache.mb", share(float64(w.artBytes), float64(w.estimates))/1e6, fmt.Sprintf("mean per fresh cache over %d ops", w.estimates))
	r.set("ipet.cache_entries_per_kreq", 1000*share(float64(w.cacheEntry), float64(w.estimates)),
		fmt.Sprintf("session cache entries after %d ops", w.estimates))
	workLayers(r, w)
	overhead := 0.0
	if b.certify {
		var ratios []float64
		for class, xs := range m.lat {
			if p := median(b.plain[class]); p > 0 {
				ratios = append(ratios, median(xs)/p)
			}
		}
		overhead = geomean(ratios)
	}
	r.set("certify.overhead_x", overhead, fmt.Sprintf("geomean over %d programs of certified / uncertified median latency (0 = not certifying)", len(b.plain)))
	noServe(r)
}

// noServe reports the serve layer's metrics as 0 for workloads that make no
// call into it.
func noServe(r *report) {
	for _, d := range perLayer {
		if strings.HasPrefix(d.name, "serve.") {
			r.set(d.name, 0, "no serve calls in this workload")
		}
	}
}
