package ilp

import (
	"math"
	"math/rand"
	"testing"
)

// randomFlowProblem derives a random flow-conservation problem from seed:
// a chain of nodes with random forward arcs (each arc variable appears in
// exactly two conservation rows, +1 at its head and -1 at its tail), random
// node imbalances folded into the right-hand sides, single-variable bound
// rows, and a small integer objective. This is the shape the network
// kernel's fast path exists for; the generator also flips some rows to
// inequalities so slack arcs and infeasible/unbounded outcomes occur.
func randomFlowProblem(seed int64) *Problem {
	rng := rand.New(rand.NewSource(seed))
	nNodes := 2 + rng.Intn(5)
	type arc struct{ from, to int }
	var arcs []arc
	// A spine so every node participates, plus random extra arcs.
	for v := 1; v < nNodes; v++ {
		arcs = append(arcs, arc{v - 1, v})
	}
	for k := rng.Intn(2 * nNodes); k > 0; k-- {
		u, v := rng.Intn(nNodes), rng.Intn(nNodes)
		if u != v {
			arcs = append(arcs, arc{u, v})
		}
	}
	p := &Problem{
		Sense:     Sense(rng.Intn(2)),
		NumVars:   len(arcs),
		Objective: map[int]float64{},
	}
	for j := range arcs {
		if rng.Intn(3) > 0 {
			p.Objective[j] = float64(rng.Intn(9) - 4)
		}
	}
	rows := make([]map[int]float64, nNodes)
	for v := range rows {
		rows[v] = map[int]float64{}
	}
	for j, a := range arcs {
		rows[a.to][j] += 1
		rows[a.from][j] -= 1
	}
	for _, coeffs := range rows {
		if len(coeffs) == 0 {
			continue
		}
		rel := EQ
		if rng.Intn(4) == 0 {
			rel = Relation(rng.Intn(3))
		}
		p.Constraints = append(p.Constraints, Constraint{
			Coeffs: coeffs, Rel: rel, RHS: float64(rng.Intn(7) - 3),
		})
	}
	// Single-variable bound rows (capacities and lower bounds).
	for j := 0; j < len(arcs); j++ {
		if rng.Intn(2) == 0 {
			p.Constraints = append(p.Constraints,
				Constraint{Coeffs: map[int]float64{j: 1}, Rel: LE, RHS: float64(rng.Intn(8))})
		}
		if rng.Intn(5) == 0 {
			p.Constraints = append(p.Constraints,
				Constraint{Coeffs: map[int]float64{j: 1}, Rel: GE, RHS: float64(rng.Intn(3))})
		}
	}
	return p
}

// checkNetworkAgainstDense cross-checks the network kernel on p against the
// dense oracle. A kernel that declines (ok=false) is fine — the router
// would fall back — but an answer it does give must match the oracle
// exactly in status and objective, be feasible, and be integral.
func checkNetworkAgainstDense(t *testing.T, seed int64, p *Problem) {
	t.Helper()
	r, ok := networkSolve(p, true)
	if !ok {
		return
	}
	dStatus, dObj, _, _ := denseSimplex(p)
	if r.status != dStatus {
		t.Fatalf("seed %d: network status %v, dense %v\n%s", seed, r.status, dStatus, p)
	}
	if r.status != Optimal {
		return
	}
	if math.Abs(r.obj-dObj) > 1e-6 {
		t.Fatalf("seed %d: network obj %v, dense %v\n%s", seed, r.obj, dObj, p)
	}
	if !p.Feasible(r.x, 1e-6) {
		t.Fatalf("seed %d: network optimum infeasible: %v\n%s", seed, r.x, p)
	}
	for j, v := range r.x {
		if v != math.Trunc(v) {
			t.Fatalf("seed %d: network x%d = %v is fractional on an all-integer instance\n%s", seed, j, v, p)
		}
	}
	if r.cert == nil || !r.cert.Flow {
		t.Fatalf("seed %d: network optimum came back without a flow certificate", seed)
	}
}

// TestNetworkKernelRandomFlows is the deterministic slice of the fuzz
// corpus: the kernel must agree with the dense oracle on a few thousand
// random min-cost-flow instances every CI run, fuzzing or not.
func TestNetworkKernelRandomFlows(t *testing.T) {
	for seed := int64(0); seed < 3000; seed++ {
		checkNetworkAgainstDense(t, seed, randomFlowProblem(seed))
	}
}

// FuzzNetworkKernel drives the network kernel differential from fuzzed
// seeds (the seed feeds a PRNG that grows a random flow-conservation
// problem, so every input is a well-formed LP by construction).
func FuzzNetworkKernel(f *testing.F) {
	for seed := int64(0); seed < 64; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		checkNetworkAgainstDense(t, seed, randomFlowProblem(seed))
	})
}

// TestNetworkKernelSolvesExplosionShape pins the routing claim the perf
// artifact records: a diamond-chain problem whose annotation rows are
// single-variable equalities (the explosion64 workload's shape) must be
// answered by the network kernel, visible as lpResult.network through
// Solve's stats.
func TestNetworkKernelSolvesExplosionShape(t *testing.T) {
	p := &Problem{
		Sense: Maximize, NumVars: 4, Integer: true,
		Objective: map[int]float64{0: 10, 1: 5, 2: 2, 3: 7},
		Constraints: []Constraint{
			{Coeffs: map[int]float64{0: 1}, Rel: EQ, RHS: 1},
			{Coeffs: map[int]float64{1: 1, 2: 1, 0: -1}, Rel: EQ, RHS: 0},
			{Coeffs: map[int]float64{3: 1, 1: -1, 2: -1}, Rel: EQ, RHS: 0},
			{Coeffs: map[int]float64{1: 1}, Rel: EQ, RHS: 1},
			{Coeffs: map[int]float64{2: 1}, Rel: EQ, RHS: 0},
		},
	}
	sol, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal || sol.Objective != 22 {
		t.Fatalf("got %v %v, want optimal 22", sol.Status, sol.Objective)
	}
	if sol.Stats.NetworkSolves == 0 {
		t.Fatalf("flow-shaped problem was not answered by the network kernel: %+v", sol.Stats)
	}
	if !sol.Stats.RootIntegral {
		t.Fatalf("network root not integral: %+v", sol.Stats)
	}
}

// TestRevisedKernelMatchesOracles runs the revised kernel directly over the
// full fixture corpus (the same problems the sparse/dense differential
// uses) and checks status, objective, and feasibility against the dense
// oracle wherever the kernel doesn't decline.
func TestRevisedKernelMatchesOracles(t *testing.T) {
	for i, p := range fixtureProblems() {
		r, ok := revisedSimplex(p, false)
		if !ok {
			t.Fatalf("fixture %d: revised kernel declined\n%s", i, p)
		}
		dStatus, dObj, _, _ := denseSimplex(p)
		if r.status != dStatus {
			t.Fatalf("fixture %d: revised status %v, dense %v\n%s", i, r.status, dStatus, p)
		}
		if r.status == Optimal {
			if math.Abs(r.obj-dObj) > 1e-6 {
				t.Fatalf("fixture %d: revised obj %v, dense %v\n%s", i, r.obj, dObj, p)
			}
			if !p.Feasible(r.x, 1e-6) {
				t.Fatalf("fixture %d: revised optimum infeasible: %v\n%s", i, r.x, p)
			}
		}
	}
}

// TestKernelToggles checks SetKernels routing: each toggle sets exactly its
// kernel's disable bit, and with either or both fast paths off solves still
// answer identically.
func TestKernelToggles(t *testing.T) {
	defer SetKernels(true, true)
	p := fixtureProblems()[0]
	ref, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range [][2]bool{{true, true}, {true, false}, {false, true}, {false, false}} {
		SetKernels(cfg[0], cfg[1])
		off := kernelsOff.Load()
		if n, r := off&kernelNetwork == 0, off&kernelRevised == 0; n != cfg[0] || r != cfg[1] {
			t.Fatalf("kernels enabled = %v,%v after SetKernels(%v,%v)", n, r, cfg[0], cfg[1])
		}
		sol, err := Solve(p)
		if err != nil {
			t.Fatal(err)
		}
		if sol.Status != ref.Status || sol.Objective != ref.Objective {
			t.Fatalf("kernels %v: %v %v, want %v %v", cfg, sol.Status, sol.Objective, ref.Status, ref.Objective)
		}
	}
}
