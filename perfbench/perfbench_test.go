package main

import (
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"

	"cinderella/internal/constraint"
)

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(tc.xs); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: the helper must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n      int
		p      float64
		ok     bool
		wantAt float64
	}{
		{19, 0.5, false, 0},
		{20, 0.5, true, 10},
		{99, 0.9, false, 0},
		{100, 0.9, true, 90},
		{1000, 0.99, true, 990},
		{0, 0.5, false, 0},
	} {
		v, ok := percentile(seq(tc.n), tc.p)
		if ok != tc.ok || (ok && v != tc.wantAt) {
			t.Errorf("percentile(n=%d, p=%v) = %v, %v; want %v, %v", tc.n, tc.p, v, ok, tc.wantAt, tc.ok)
		}
	}
}

func TestGeomeanAndShare(t *testing.T) {
	if g := geomean([]float64{1, 4}); math.Abs(g-2) > 1e-12 {
		t.Errorf("geomean(1,4) = %v", g)
	}
	if g := geomean([]float64{2, 0}); g != 0 {
		t.Errorf("geomean with a zero = %v, want 0", g)
	}
	if g := geomean(nil); g != 0 {
		t.Errorf("geomean() = %v", g)
	}
	if s := share(3, 4); s != 0.75 {
		t.Errorf("share(3,4) = %v", s)
	}
	if s := share(3, 0); s != 0 {
		t.Errorf("share(3,0) = %v", s)
	}
	meds, minN := classMedians(map[string][]float64{"a": {1, 2, 3}, "b": {10, 20}})
	if len(meds) != 2 || meds[0] != 2 || meds[1] != 15 || minN != 2 {
		t.Errorf("classMedians = %v, %d", meds, minN)
	}
}

// TestChainInputs checks the chain generator against its referee: every
// set count is 2^(disjunctive diamonds), and layouts change the program
// but not the block numbering the annotations name.
func TestChainInputs(t *testing.T) {
	for n := 4; n <= 6; n++ {
		sc := chainScenario(n)
		file, err := constraint.ParseNamed(sc.class, sc.annots)
		if err != nil {
			t.Fatal(err)
		}
		sec, _ := file.Section("main")
		sets, err := constraint.CrossProduct(sec.Formulas, 1<<12)
		if err != nil || len(sets) != 1<<n {
			t.Fatalf("chain %d: %d sets, err %v", n, len(sets), err)
		}
		if err := chainReferee(sc); err != nil {
			t.Fatal(err)
		}
		if sc.ref.bcet <= 0 || sc.ref.wcet <= sc.ref.bcet {
			t.Errorf("chain %d: referee %s", n, sc.ref)
		}
	}
	rng := rand.New(rand.NewSource(3))
	p := chainProgram(seededLayout(5, rng))
	if !strings.HasPrefix(p.name, "chain32") {
		t.Errorf("name %q", p.name)
	}
	scs, err := chainVariants(p, 5, 12, rng)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, sc := range scs {
		if seen[sc.annots] {
			t.Errorf("duplicate variant %q", sc.annots)
		}
		seen[sc.annots] = true
		if got := strings.Count(sc.annots, "|"); got != 3 {
			t.Errorf("variant has %d disjunctions, want 3:\n%s", got, sc.annots)
		}
	}
}

func TestLoopVariant(t *testing.T) {
	dhry := tableIByName("dhry")[0]
	text, ok := loopVariant(dhry.annots, "dhry", 42)
	if !ok || !strings.Contains(text, "loop 1: 42 .. 42") {
		t.Fatalf("dhry loop 1 variant:\n%s", text)
	}
	// Only the root function's section changes.
	if strings.Count(text, "loop 1: 1 .. 1") != strings.Count(dhry.annots, "loop 1: 1 .. 1") {
		t.Error("a callee's loop 1 changed")
	}
	if _, err := constraint.ParseNamed("v", text); err != nil {
		t.Fatal(err)
	}
	if hi, ok := rootLoopBound(dhry.annots, "dhry"); !ok || hi != 30 {
		t.Errorf("rootLoopBound(dhry) = %d, %v", hi, ok)
	}
	// A range bound keeps its lower end.
	cd := tableIByName("check_data")[0]
	if text, _ := loopVariant(cd.annots, "check_data", 17); !strings.Contains(text, "loop 1: 1 .. 17") {
		t.Errorf("check_data variant:\n%s", text)
	}
	if _, ok := loopVariant(chainScenario(4).annots, "main", 5); ok {
		t.Error("rewrote a loop that does not exist")
	}
}

// TestExploreStream checks the serve-explore generator: distinct scenarios,
// more programs than resident sessions, a cyclic burst order, and the
// anchor after every burst.
func TestExploreStream(t *testing.T) {
	e := &explore{}
	if err := e.inputs(11); err != nil {
		t.Fatal(err)
	}
	cycling := len(exploreTableI) + 4
	bursts := cycling * explorePerProgram / exploreBurst
	if len(e.stream) != cycling*explorePerProgram+bursts || len(e.progs) != cycling+1 {
		t.Fatalf("stream %d scenarios over %d programs", len(e.stream), len(e.progs))
	}
	if cycling <= exploreMaxSessions {
		t.Fatal("stream fits in the resident store")
	}
	seen := map[string]bool{}
	anchor := e.progs[len(e.progs)-1]
	for i, sc := range e.stream {
		key := sc.prog.name + "\x00" + sc.annots
		if seen[key] {
			t.Errorf("scenario %d repeats", i)
		}
		seen[key] = true
		if sc.ref.wcet < sc.ref.bcet || sc.ref.wcet == 0 {
			t.Errorf("scenario %d (%s) has no referee answer", i, sc.class)
		}
		switch pos := i % (exploreBurst + 1); {
		case pos == exploreBurst:
			if sc.prog != anchor || sc.class != "anchor" {
				t.Errorf("scenario %d is %s, want the anchor", i, sc.class)
			}
		case sc.prog == anchor:
			t.Errorf("scenario %d: anchor inside a burst", i)
		case pos > 0 && sc.prog != e.stream[i-1].prog:
			t.Errorf("scenario %d breaks its burst", i)
		}
	}
}

// TestExploreAnchorStaysResident sends one stream and checks that the
// anchor session is never evicted: its cache entries grow with the stream
// and are counted whether or not their sessions were later evicted.
func TestExploreAnchorStaysResident(t *testing.T) {
	e := &explore{}
	if err := e.inputs(5); err != nil {
		t.Fatal(err)
	}
	srv, err := e.start()
	if err != nil {
		t.Fatal(err)
	}
	defer srv.close()
	m := newMeas(newTracer())
	m.tr.reserve(2 * spanChunk)
	if err := e.stream1(m, srv); err != nil {
		t.Fatal(err)
	}
	if m.wrong != 0 || m.failed != 0 {
		t.Fatalf("%d wrong, %d failed: %v", m.wrong, m.failed, m.notes)
	}
	st, err := srv.cl.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	bursts := len(e.stream) / (exploreBurst + 1)
	if st.Store.Evictions < int64(bursts-exploreMaxSessions) {
		t.Errorf("%d evictions over %d bursts", st.Store.Evictions, bursts)
	}
	var anchorEntries, resident int64
	for _, ss := range st.Sessions {
		n := int64(ss.WarmBases + ss.SetOutcomes + ss.CountVectors)
		resident += n
		if ss.Estimates == int64(bursts) {
			anchorEntries = n
		}
	}
	if anchorEntries == 0 {
		t.Fatalf("no resident session answered all %d anchor requests: %+v", bursts, st.Sessions)
	}
	if m.svc.largest.entries != anchorEntries {
		t.Errorf("largest session %d entries, anchor %d", m.svc.largest.entries, anchorEntries)
	}
	if m.svc.entries <= resident {
		t.Errorf("counted %d cache entries, no more than the %d still resident", m.svc.entries, resident)
	}
}

// TestInexactAnswerFails checks that a sound envelope is still a failed
// check: no workload asks for anything but exact answers.
func TestInexactAnswerFails(t *testing.T) {
	ref := bounds{100, 200}
	for _, tc := range []struct {
		got   bounds
		exact bool
		ok    bool
	}{
		{bounds{100, 200}, true, true},
		{bounds{100, 201}, true, false},
		{bounds{90, 210}, false, false},  // sound envelope
		{bounds{110, 210}, false, false}, // unsound envelope
	} {
		if err := verdict(tc.got, tc.exact, ref); (err == nil) != tc.ok {
			t.Errorf("verdict(%s, exact=%t) = %v", tc.got, tc.exact, err)
		}
	}
	m := newMeas(nil)
	m.ops++
	m.check("x", bounds{90, 210}, false, ref)
	r := newReport(config{workload: "x"}, "")
	r.tally(m)
	if r.correct() || m.inexact != 1 {
		t.Errorf("inexact sound answer: correct=%t, %d inexact", r.correct(), m.inexact)
	}
}

// TestSeedDeterminism runs every workload twice with one seed: the inputs
// digest and the work counters (pivots, cache hits, exact re-solves, ...)
// must repeat exactly, and another seed must change the inputs.
func TestSeedDeterminism(t *testing.T) {
	for _, name := range workloadNames() {
		if testing.Short() && name == "certified" {
			continue
		}
		t.Run(name, func(t *testing.T) {
			cfg := config{workload: name, seed: 7, seconds: 1, trace: true, rounds: 2}
			a, err := run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			b, err := run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if a.digest != b.digest {
				t.Errorf("digest %s then %s", a.digest, b.digest)
			}
			if a.work != b.work {
				t.Errorf("work counters differ:\n%+v\n%+v", a.work, b.work)
			}
			if a.work.estimates == 0 || a.work.pivots == 0 {
				t.Errorf("no work counted: %+v", a.work)
			}
			if a.wrong != 0 || a.failed != 0 {
				t.Errorf("%d wrong, %d failed", a.wrong, a.failed)
			}
			cfg.seed = 8
			c, err := run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if c.digest == a.digest {
				t.Error("another seed gave the same inputs")
			}
		})
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the metrics the program
// prints in step.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the program", what, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: %s %s vs %s %s", what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", bj.EndToEnd, endToEnd)
	same("per_layer", bj.PerLayer, perLayer)
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %s is not implemented", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %v, the program has %v", names, workloadNames())
	}
}
