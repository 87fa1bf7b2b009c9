package ipet

import (
	"fmt"
	"io"

	"cinderella/internal/ilp"
)

// DumpILP writes the exact integer linear programs the analysis solves, in
// the readable form the paper uses in Section III.D when it shows the two
// check_data constraint sets side by side: the worst-case objective, the
// structural constraints, the loop-bound constraints, and each surviving
// functionality constraint set.
func (a *Analyzer) DumpILP(w io.Writer) error {
	sets, widened, total, pruned, err := a.buildSets()
	if err != nil {
		return err
	}
	obj, err := a.worstObjective()
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "variables: %d (block and edge counts across %d contexts)\n",
		a.nVars, len(a.contexts))
	for _, ctx := range a.contexts {
		fc := a.Prog.Funcs[ctx.Func]
		fmt.Fprintf(w, "  ctx %d: %s  (x1..x%d, d1..d%d)\n",
			ctx.ID, ctx, len(fc.Blocks), len(fc.Edges))
	}

	base := &ilp.Problem{
		Sense:     ilp.Maximize,
		NumVars:   obj.nVars,
		Objective: obj.coeffs,
	}
	base.Constraints = append(base.Constraints, a.StructuralConstraints()...)
	base.Constraints = append(base.Constraints, a.LoopBoundConstraints()...)
	base.Constraints = append(base.Constraints, obj.extra...)

	fmt.Fprintf(w, "\nworst-case objective and shared constraints:\n%s", base)
	fmt.Fprintf(w, "\nfunctionality constraint sets: %d generated, %d pruned as null\n",
		total, pruned)
	// Each relation is rendered once, however many sets list it.
	rels := make([]string, len(a.atoms))
	for k := range a.atoms {
		rels[k] = a.atoms[k].atom.Rel.String()
	}
	for i, set := range sets {
		mark := ""
		if widened[i] {
			mark = " (widened: sound over-approximation of an overflowing disjunction)"
		}
		fmt.Fprintf(w, "\nset %d:%s\n", i+1, mark)
		if len(set) == 0 {
			fmt.Fprintf(w, "  (empty: structural and loop constraints only)\n")
			continue
		}
		for _, k := range set {
			fmt.Fprintf(w, "  %s\n", rels[k])
		}
	}
	return nil
}
