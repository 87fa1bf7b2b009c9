package main

import (
	"context"
	"fmt"
	"math/rand"
	"strings"

	"cinderella/internal/constraint"
	"cinderella/internal/ipet"
	"cinderella/internal/prepcache"
	"cinderella/internal/serve"
)

// The parametric class of serve-hot: des with its outer loop bound made
// the symbol n1 over [formulaLo, formulaHi].
const (
	formulaParam         = "n1"
	formulaLo, formulaHi = 56, 71
	formulaPerRound      = 4
)

// hot is the serve-hot workload: a resident working set — the Table I
// paper scenarios, the 64-set chain, and parametric point queries answered
// by a formula built during set-up — requested by program hash from one
// closed-loop client. One round sends every resident scenario once and
// formulaPerRound formula points, in a seeded order.
type hot struct {
	resident  []*scenario
	des       *scenario
	symAnnots string // des's annotations with the symbolic outer bound
	points    []*scenario
	rng       *rand.Rand
	first     []*scenario

	srv    *server
	hashes map[*program]string
	replay *replayer
}

func (h *hot) inputs(seed int64) error {
	h.rng = rand.New(rand.NewSource(seed))
	chain := chainScenario(6)
	h.resident = append(tableI(), chain)
	for _, sc := range h.resident {
		if sc.class == "des" {
			h.des = sc
		}
	}
	h.symAnnots = strings.Replace(h.des.annots, "loop 1: 56 .. 56", "loop 1: 56 .. "+formulaParam, 1)
	if h.symAnnots == h.des.annots {
		return fmt.Errorf("des annotations have no loop 1: 56 .. 56 to parametrize")
	}
	h.points = nil
	for v := int64(formulaLo); v <= formulaHi; v++ {
		h.points = append(h.points, &scenario{class: "formula", prog: h.des.prog, annots: h.symAnnots,
			params: map[string]int64{formulaParam: v}})
	}
	// Served answers are checked against fresh one-shot sessions, which
	// must in turn equal the golden Table I values and, for the chain,
	// path enumeration.
	for _, sc := range append(append([]*scenario(nil), h.resident...), h.points...) {
		if sc == chain {
			if err := servedChainReferee(sc); err != nil {
				return err
			}
			continue
		}
		if err := oneShotReferee(sc); err != nil {
			return err
		}
		if g, ok := golden[sc.class]; ok && sc.ref != g {
			return fmt.Errorf("%s: one-shot referee %s disagrees with the golden %s", sc.class, sc.ref, g)
		}
	}
	h.first = h.order()
	return nil
}

// setup starts the server, submits the working set, builds the formula,
// and warms every scenario and formula point once.
func (h *hot) setup(traced bool) error {
	srv, err := startServer(serve.Config{Shards: 1, Workers: 1, Artifacts: prepcache.New()})
	if err != nil {
		return err
	}
	h.srv = srv
	h.hashes = map[*program]string{}
	ctx := context.Background()
	for _, sc := range h.resident {
		resp, err := srv.cl.Submit(ctx, spec(sc.prog))
		if err != nil {
			return fmt.Errorf("submit %s: %w", sc.class, err)
		}
		h.hashes[sc.prog] = resp.Program
	}
	specs := []serve.ParamSpecJSON{{Name: formulaParam, Lo: formulaLo, Hi: formulaHi}}
	if _, err := srv.cl.Parametrize(ctx, serve.ParametrizeRequest{
		Program: h.hashes[h.des.prog], Annotations: h.symAnnots, Specs: specs}); err != nil {
		return fmt.Errorf("parametrize: %w", err)
	}
	// Warm-up: every resident scenario and every formula point once.
	warm := newMeas(nil)
	for _, sc := range append(append([]*scenario(nil), h.resident...), h.points...) {
		srv.request(warm, sc, h.req(sc))
	}
	if warm.failed > 0 || warm.wrong > 0 {
		return fmt.Errorf("warm-up: %v", warm.notes)
	}
	if traced && h.replay == nil {
		// The replay sessions do not depend on the server: warm them once.
		rp := newReplayer()
		for _, sc := range h.resident {
			if err := rp.warm(sc); err != nil {
				return fmt.Errorf("replay warm-up %s: %w", sc.class, err)
			}
		}
		sess, err := rp.session(h.des.prog)
		if err != nil {
			return err
		}
		file, err := constraint.ParseNamed("annotations", h.symAnnots)
		if err != nil {
			return err
		}
		if rp.formula, err = sess.Parametrize(file, []ipet.ParamSpec{{Name: formulaParam, Lo: formulaLo, Hi: formulaHi}}); err != nil {
			return err
		}
		h.replay = rp
	}
	return nil
}

// order draws one round: every resident scenario and formulaPerRound
// formula points, shuffled.
func (h *hot) order() []*scenario {
	round := append([]*scenario(nil), h.resident...)
	for i := 0; i < formulaPerRound; i++ {
		round = append(round, h.points[h.rng.Intn(len(h.points))])
	}
	return shuffled(round, h.rng)
}

func (h *hot) req(sc *scenario) serve.EstimateRequest {
	return serve.EstimateRequest{Program: h.hashes[sc.prog], Annotations: sc.annots, Params: sc.params}
}

func (h *hot) close() error {
	if h.srv == nil {
		return nil
	}
	err := h.srv.close()
	h.srv = nil
	return err
}

func (h *hot) digest() string { return digest(h.first) }

func (h *hot) round(m *meas) error {
	order := h.first
	if m.rounds > 0 || m.tr != nil {
		order = h.order()
	}
	return h.srv.round(m, order, h.req, h.replay)
}

func (h *hot) endToEnd(r *report, m *meas) { serveEndToEnd(r, m) }

func (h *hot) perLayer(r *report, m *meas, lt *layerTimes) { serveLayers(r, m, lt) }

func spec(p *program) serve.ProgramSpec {
	return serve.ProgramSpec{Source: p.source, Asm: p.asm, Root: p.root}
}
