package bench

import (
	"testing"

	"cinderella/internal/ilp"
	"cinderella/internal/ipet"
)

// TestStructuralMatricesAreNetwork pins the paper's Section III.D claim on
// real Table I programs, and where it stops holding:
//
//   - The flow-conservation rows of dhry and des (block = sum(in),
//     block = sum(out), root entry = 1) form a recognizable network
//     (node-arc incidence) matrix, which is why the first LP relaxation
//     is integral.
//   - The eq. 12 call-linkage rows give every call-edge column a third
//     nonzero (the edge already sits in its caller's out-row and the
//     return successor's in-row), so the full interprocedural system of a
//     multi-procedure program is NOT strict network form.
//   - The k·x loop-bound rows those programs add are likewise off the
//     network form: a scaled coefficient can never be a ±1 incidence entry.
//
// A call-free, loop-free program (the explosion chain) keeps its entire
// structural system in network form.
func TestStructuralMatricesAreNetwork(t *testing.T) {
	for _, name := range []string{"dhry", "des"} {
		bm, ok := ByName(name)
		if !ok {
			t.Fatalf("unknown benchmark %q", name)
		}
		bt, err := bm.Build(ipet.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		flow := bt.An.FlowConstraints()
		if len(flow) == 0 {
			t.Fatalf("%s: no flow-conservation constraints", name)
		}
		p := &ilp.Problem{NumVars: bt.An.NumVars(), Constraints: flow}
		if !ilp.IsNetworkMatrix(p) {
			t.Errorf("%s: flow-conservation matrix (%d rows) is not recognized as a network matrix", name, len(flow))
		}

		structural := bt.An.StructuralConstraints()
		if len(structural) <= len(flow) {
			t.Fatalf("%s: expected call-linkage rows beyond the %d conservation rows, got %d structural rows",
				name, len(flow), len(structural))
		}
		full := &ilp.Problem{NumVars: bt.An.NumVars(), Constraints: structural}
		if ilp.IsNetworkMatrix(full) {
			t.Errorf("%s: interprocedural system with call-linkage rows was accepted as network form", name)
		}

		loops := bt.An.LoopBoundConstraints()
		if len(loops) == 0 {
			t.Fatalf("%s: no loop-bound constraints", name)
		}
		scaled := false
		for _, c := range loops {
			for _, v := range c.Coeffs {
				if v != 0 && v != 1 && v != -1 {
					scaled = true
				}
			}
		}
		if !scaled {
			t.Fatalf("%s: expected at least one k-scaled loop-bound row", name)
		}
		bounded := &ilp.Problem{NumVars: bt.An.NumVars(),
			Constraints: append(append([]ilp.Constraint{}, flow...), loops...)}
		if ilp.IsNetworkMatrix(bounded) {
			t.Errorf("%s: k-scaled loop-bound rows were accepted as network form", name)
		}
	}

	// Call-free control: the whole structural system of the explosion chain
	// is an incidence matrix.
	exAn, err := explosionWorkload(6, ipet.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	structural := exAn.StructuralConstraints()
	p := &ilp.Problem{NumVars: exAn.NumVars(), Constraints: structural}
	if !ilp.IsNetworkMatrix(p) {
		t.Errorf("explosion64: call-free structural matrix (%d rows) is not recognized as a network matrix", len(structural))
	}
}
