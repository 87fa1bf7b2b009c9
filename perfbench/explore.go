package main

import (
	"errors"
	"fmt"
	"math/rand"

	"cinderella/internal/prepcache"
	"cinderella/internal/serve"
)

const (
	// exploreMaxSessions is the server's resident-session cap; the stream
	// covers three times as many cycling programs.
	exploreMaxSessions = 4
	// explorePerProgram scenarios per cycling program, sent in bursts of
	// exploreBurst consecutive requests.
	explorePerProgram = 12
	exploreBurst      = 3
	// exploreAnchorDiamonds is the size of the anchor chain, the program
	// that stays resident and gets one distinct scenario after every burst.
	exploreAnchorDiamonds = 8
)

// exploreTableI are the Table I programs whose loop bounds serve-explore
// varies.
var exploreTableI = []string{"check_data", "fft", "piksrt", "line", "circle", "recon", "matgen", "dhry"}

// explore is the serve-explore workload: one closed-loop client sends a
// seeded stream of distinct scenarios with inline program specs — loop-bound
// variants of Table I programs, and chains with different constrained and
// pinned diamonds. The stream covers more programs than the server keeps
// resident, so every request writes: new session-cache entries, warm
// dual-simplex solves, evictions and artifact-hit re-prepares. One program,
// the anchor, is requested after every burst, so it stays resident while
// its session caches grow with the stream. One round replays the whole
// stream against a fresh server and artifact cache, so every round does
// the same work and memory is bounded by one stream.
type explore struct {
	stream []*scenario
	progs  []*program
}

func (e *explore) inputs(seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	var perProg [][]*scenario
	for _, base := range tableIByName(exploreTableI...) {
		scs, err := loopVariants(base, explorePerProgram, rng)
		if err != nil {
			return err
		}
		perProg = append(perProg, scs)
	}
	seenProg := map[string]bool{}
	chain := func(n, variants int) ([]*scenario, error) {
		p := chainProgram(seededLayout(n, rng))
		for seenProg[p.name] {
			p = chainProgram(seededLayout(n, rng))
		}
		seenProg[p.name] = true
		return chainVariants(p, n, variants, rng)
	}
	for _, n := range []int{5, 5, 6, 6} {
		scs, err := chain(n, explorePerProgram)
		if err != nil {
			return err
		}
		perProg = append(perProg, scs)
	}
	bursts := len(perProg) * explorePerProgram / exploreBurst
	anchor, err := chain(exploreAnchorDiamonds, bursts)
	if err != nil {
		return err
	}
	for _, sc := range anchor {
		sc.class = "anchor"
	}
	e.progs = nil
	for _, scs := range append(perProg, anchor) {
		e.progs = append(e.progs, scs[0].prog)
	}
	// The cycling programs are visited in bursts, cyclically in one seeded
	// order: with more programs than resident sessions, every burst starts
	// with an eviction and a re-prepare, whatever the seed. The anchor
	// follows each burst, so it is never the least recently used session.
	perm := rng.Perm(len(perProg))
	e.stream = nil
	for at := 0; at < explorePerProgram; at += exploreBurst {
		for _, p := range perm {
			e.stream = append(e.stream, perProg[p][at:at+exploreBurst]...)
			e.stream = append(e.stream, anchor[0])
			anchor = anchor[1:]
		}
	}
	return nil
}

// setup starts a server and warms it up with the stream's first cycle —
// one burst of every cycling program, each followed by the anchor. The
// server is then closed, as every round starts its own.
func (e *explore) setup(traced bool) error {
	srv, err := e.start()
	if err != nil {
		return err
	}
	warm := newMeas(nil)
	for _, sc := range e.stream[:(len(e.progs)-1)*(exploreBurst+1)] {
		srv.request(warm, sc, inline(sc))
	}
	err = srv.close()
	if warm.failed > 0 || warm.wrong > 0 {
		return fmt.Errorf("warm-up: %v", warm.notes)
	}
	return err
}

func (e *explore) start() (*server, error) {
	return startServer(serve.Config{Shards: 1, MaxSessions: exploreMaxSessions, Workers: 1, Artifacts: prepcache.New()})
}

// inline is the request of a scenario with its program spec inline.
func inline(sc *scenario) serve.EstimateRequest {
	return serve.EstimateRequest{ProgramSpec: spec(sc.prog), Annotations: sc.annots}
}

// loopVariants draws n distinct feasible loop-bound variants of a Table I
// scenario: the root function's first annotated loop bound raised by a
// seeded amount. Candidates the one-shot referee finds infeasible are
// dropped.
func loopVariants(base *scenario, n int, rng *rand.Rand) ([]*scenario, error) {
	hi, ok := rootLoopBound(base.annots, base.prog.root)
	if !ok {
		return nil, fmt.Errorf("%s: no root loop bound to vary", base.class)
	}
	seen := map[string]bool{}
	var out []*scenario
	for tries := 0; len(out) < n && tries < 20*n; tries++ {
		text, _ := loopVariant(base.annots, base.prog.root, hi+1+rng.Int63n(hi+4))
		if seen[text] {
			continue
		}
		seen[text] = true
		sc := &scenario{class: base.class, prog: base.prog, annots: text}
		err := oneShotReferee(sc)
		if errors.Is(err, errInfeasible) {
			continue
		}
		if err != nil {
			return nil, err
		}
		out = append(out, sc)
	}
	if len(out) < n {
		return nil, fmt.Errorf("%s: only %d feasible loop-bound variants", base.class, len(out))
	}
	return out, nil
}

// chainVariants draws n distinct annotation variants of a chain: all but
// two diamonds disjunctive (so every variant has the same set count), the
// other two each free or pinned to one arm, at seeded positions.
func chainVariants(p *program, diamonds, n int, rng *rand.Rand) ([]*scenario, error) {
	const others = string(diamondFree) + string(diamondPinF) + string(diamondPinT)
	seen := map[string]bool{}
	var out []*scenario
	for len(out) < n {
		modes := []byte(allDisjunctive(diamonds))
		for _, i := range rng.Perm(diamonds)[:2] {
			modes[i] = others[rng.Intn(len(others))]
		}
		if seen[string(modes)] {
			continue
		}
		seen[string(modes)] = true
		sc := &scenario{class: p.name, prog: p, annots: chainAnnots(string(modes))}
		if err := servedChainReferee(sc); err != nil {
			return nil, err
		}
		out = append(out, sc)
	}
	return out, nil
}

func (e *explore) close() error   { return nil }
func (e *explore) digest() string { return digest(e.stream) }

func (e *explore) round(m *meas) error {
	srv, err := e.start()
	if err != nil {
		return err
	}
	err = e.stream1(m, srv)
	if cerr := srv.close(); err == nil {
		err = cerr
	}
	return err
}

// stream1 sends the stream once to a fresh server.
func (e *explore) stream1(m *meas, srv *server) error {
	var replay *replayer
	if m.tr != nil {
		// Replay sessions are prepared up front and never evicted.
		replay = newReplayer()
		for _, p := range e.progs {
			if _, err := replay.session(p); err != nil {
				return err
			}
		}
	}
	return srv.round(m, e.stream, inline, replay)
}

func (e *explore) endToEnd(r *report, m *meas) { serveEndToEnd(r, m) }

func (e *explore) perLayer(r *report, m *meas, lt *layerTimes) { serveLayers(r, m, lt) }
