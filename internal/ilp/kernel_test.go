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
// rows, and a small integer objective: the shape of the paper's
// structural constraints. The generator also flips some rows to
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

// checkFlowAgainstDense cross-checks the routed LP solve of p against the
// dense oracle: status and objective must match exactly, the optimum must
// be feasible, carry a certificate, and be integral. Every problem the
// generator builds is a node-arc incidence system plus single-variable
// bound rows with integer right-hand sides, a totally unimodular matrix,
// so every basic solution is integral — the network-matrix observation the
// paper relies on (ilp.IsNetworkMatrix).
func checkFlowAgainstDense(t *testing.T, seed int64, p *Problem) {
	t.Helper()
	r := simplexFull(p, true)
	dStatus, dObj, _, _ := denseSimplex(p)
	if r.status != dStatus {
		t.Fatalf("seed %d: kernel status %v, dense %v\n%s", seed, r.status, dStatus, p)
	}
	if r.status != Optimal {
		return
	}
	if math.Abs(r.obj-dObj) > 1e-6 {
		t.Fatalf("seed %d: kernel obj %v, dense %v\n%s", seed, r.obj, dObj, p)
	}
	if !p.feasible(r.x, 1e-6) {
		t.Fatalf("seed %d: kernel optimum infeasible: %v\n%s", seed, r.x, p)
	}
	for j, v := range r.x {
		if v != math.Trunc(v) {
			t.Fatalf("seed %d: kernel x%d = %v is fractional on a network-matrix instance\n%s", seed, j, v, p)
		}
	}
	if r.cert == nil {
		t.Fatalf("seed %d: optimum came back without a certificate", seed)
	}
}

// TestNetworkKernelRandomFlows is the deterministic slice of the fuzz
// corpus: the LP kernels must agree with the dense oracle, at an integral
// vertex, on a few thousand random min-cost-flow instances every CI run,
// fuzzing or not.
func TestNetworkKernelRandomFlows(t *testing.T) {
	for seed := int64(0); seed < 3000; seed++ {
		checkFlowAgainstDense(t, seed, randomFlowProblem(seed))
	}
}

// FuzzNetworkKernel drives the min-cost-flow differential from fuzzed
// seeds (the seed feeds a PRNG that grows a random flow-conservation
// problem, so every input is a well-formed LP by construction).
func FuzzNetworkKernel(f *testing.F) {
	for seed := int64(0); seed < 64; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		checkFlowAgainstDense(t, seed, randomFlowProblem(seed))
	})
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
			if !p.feasible(r.x, 1e-6) {
				t.Fatalf("fixture %d: revised optimum infeasible: %v\n%s", i, r.x, p)
			}
		}
	}
}

// TestKernelToggles checks SetKernels routing: the toggle sets the revised
// kernel's switch, and with the revised kernel on or off solves answer
// identically.
func TestKernelToggles(t *testing.T) {
	defer SetKernels(true)
	p := fixtureProblems()[0]
	ref, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, revised := range []bool{true, false} {
		SetKernels(revised)
		if on := !revisedOff.Load(); on != revised {
			t.Fatalf("revised kernel enabled = %v after SetKernels(%v)", on, revised)
		}
		sol, err := Solve(p)
		if err != nil {
			t.Fatal(err)
		}
		if sol.Status != ref.Status || sol.Objective != ref.Objective {
			t.Fatalf("revised=%v: %v %v, want %v %v", revised, sol.Status, sol.Objective, ref.Status, ref.Objective)
		}
	}
}
