package ipet

import (
	"fmt"

	"cinderella/internal/cfg"
	"cinderella/internal/constraint"
	"cinderella/internal/ilp"
)

// StructuralConstraints derives the flow equations of Section III.B
// automatically from the CFGs: at each block the execution count equals
// both the sum of incoming and the sum of outgoing edge counts; the
// analysis root's entry edge is traversed exactly once (eq. 13); and each
// callee instance's entry edge equals its call-site f-variable (eq. 12,
// specialized per context).
func (a *Session) StructuralConstraints() []ilp.Constraint {
	return a.structural(true)
}

// FlowConstraints is the flow-conservation slice of StructuralConstraints:
// the per-context block/edge incidence rows plus the root entry row, without
// the eq. 12 call-linkage rows. This slice is a network matrix, whose LP
// relaxation has an integral optimum (StructuralNetworkMatrix). The linkage
// rows are excluded because each one gives its call-edge column a third
// nonzero (the edge already appears in the caller's out-row and the return
// successor's in-row), which takes the full interprocedural system off
// strict node-arc incidence form.
func (a *Session) FlowConstraints() []ilp.Constraint {
	return a.structural(false)
}

func (a *Session) structural(withLinkage bool) []ilp.Constraint {
	var out []ilp.Constraint
	for _, ctx := range a.contexts {
		fc := a.Prog.Funcs[ctx.Func]
		for _, b := range fc.Blocks {
			inC := ilp.Constraint{
				Coeffs: map[int]float64{a.blockVar(ctx.ID, b.Index): 1},
				Rel:    ilp.EQ,
				Name:   fmt.Sprintf("%s: x%d = sum(in)", ctx, b.Index+1),
			}
			for _, e := range b.In {
				inC.Coeffs[a.edgeVar(ctx.ID, e)] -= 1
			}
			out = append(out, inC)

			outC := ilp.Constraint{
				Coeffs: map[int]float64{a.blockVar(ctx.ID, b.Index): 1},
				Rel:    ilp.EQ,
				Name:   fmt.Sprintf("%s: x%d = sum(out)", ctx, b.Index+1),
			}
			for _, e := range b.Out {
				outC.Coeffs[a.edgeVar(ctx.ID, e)] -= 1
			}
			out = append(out, outC)
		}
		// Link call edges to callee instances: d_entry(callee@site) = f_site.
		if !withLinkage {
			continue
		}
		for _, eid := range fc.Calls {
			child := a.ctxChild[[2]int{ctx.ID, eid}]
			childFC := a.Prog.Funcs[child.Func]
			out = append(out, ilp.Constraint{
				Coeffs: map[int]float64{
					a.edgeVar(child.ID, childFC.EntryEdge): 1,
					a.edgeVar(ctx.ID, eid):                 -1,
				},
				Rel:  ilp.EQ,
				Name: fmt.Sprintf("%s entry = %s:f-edge d%d", child, ctx, eid+1),
			})
		}
	}
	// The program is executed once: d1 = 1 for the root (eq. 13).
	rootFC := a.Prog.Funcs[a.Root]
	out = append(out, ilp.Constraint{
		Coeffs: map[int]float64{a.edgeVar(0, rootFC.EntryEdge): 1},
		Rel:    ilp.EQ,
		RHS:    1,
		Name:   fmt.Sprintf("%s: d%d = 1", a.Root, rootFC.EntryEdge+1),
	})
	return out
}

// StructuralNetworkMatrix reports whether the intraprocedural structural
// constraints (the flow equations of Section III.B, per function instance:
// FlowConstraints) form a recognizable network (totally unimodular) matrix
// — the Section III.D explanation for why "the branch-and-bound ILP solver
// finds that the solution of the very first linear program call ... is
// integer valued".
//
// The interprocedural splice rows (d_entry(callee) = f_site, eq. 12) give
// call-edge columns a third entry and fall outside the two-nonzero
// sufficient test; integrality across the splice is the paper's empirical
// observation, which Stats.RootIntegral tracks on every solve.
func (a *Session) StructuralNetworkMatrix() bool {
	return ilp.IsNetworkMatrix(&ilp.Problem{NumVars: a.nVars, Constraints: a.FlowConstraints()})
}

// LoopBoundConstraints materializes the loop annotations per context: a
// bound [lo, hi] states that the loop iterates (traverses a back edge)
// between lo and hi times per entry into the loop — the paper's
// "1 x1 <= x2 <= 10 x1" with the values the user supplies ("all the user
// has to provide are the values 1 and 10"), generalized to arbitrary
// entry- and back-edge sets:
//
//	lo * sum(entry edges) <= sum(back edges) <= hi * sum(entry edges)
func (a *Analyzer) LoopBoundConstraints() []ilp.Constraint {
	var out []ilp.Constraint
	a.eachLoopBound(func(ctx *Context, loop *cfg.Loop, lb constraint.LoopBound) {
		out = append(out,
			a.loopBoundRow(ctx, loop, lb.Loop, ilp.LE, lb.Hi, ""),
			a.loopBoundRow(ctx, loop, lb.Loop, ilp.GE, lb.Lo, ""))
	})
	return out
}

// eachLoopBound calls f for every annotated loop bound in every context of
// its function, in row order.
func (a *Analyzer) eachLoopBound(f func(ctx *Context, loop *cfg.Loop, lb constraint.LoopBound)) {
	if a.annots == nil {
		return
	}
	for _, ctx := range a.contexts {
		sec, ok := a.annots.Section(ctx.Func)
		if !ok {
			continue
		}
		fc := a.Prog.Funcs[ctx.Func]
		for _, lb := range sec.LoopBounds {
			f(ctx, &fc.Loops[lb.Loop-1], lb)
		}
	}
}

// loopBoundRow builds one side of loop n's bound in one context: the upper
// row sum(back) - k*sum(entry) <= 0 for rel LE, the lower row (>= 0) for
// GE. A parameter symbol sym names the end instead of k and leaves the
// entry edges out; the parametric path carries that end in the right-hand
// side (paramLoopRows).
func (a *Session) loopBoundRow(ctx *Context, loop *cfg.Loop, n int, rel ilp.Relation, k int64, sym string) ilp.Constraint {
	c := ilp.Constraint{Coeffs: map[int]float64{}, Rel: rel}
	var end any = k
	if sym != "" {
		end = sym
	}
	if rel == ilp.LE {
		c.Name = fmt.Sprintf("%s: loop %d upper %v", ctx, n, end)
	} else {
		c.Name = fmt.Sprintf("%s: loop %d lower %v", ctx, n, end)
	}
	for _, e := range loop.BackEdges {
		c.Coeffs[a.edgeVar(ctx.ID, e)] += 1
	}
	if sym == "" {
		for _, e := range loop.EntryEdges {
			c.Coeffs[a.edgeVar(ctx.ID, e)] -= float64(k)
		}
	}
	return c
}

// resolveVar expands a symbolic constraint variable into ILP terms,
// multiplying each context instance by coef.
// resolveVar errors are bare messages (no "ipet:" prefix): the callers wrap
// them in an *AnnotationError carrying the relation's file and line.
func (a *Session) resolveVar(v constraint.Var, coef float64, into map[int]float64) error {
	ctxs := a.ctxByFunc[v.Func]
	if len(ctxs) == 0 {
		return fmt.Errorf("constraint names %q, which is not in the call tree of %s", v.Func, a.Root)
	}
	fc := a.Prog.Funcs[v.Func]

	// Filter to the requested call-site context, if any (eq. 18).
	if v.CallSite != 0 {
		callerFC, ok := a.Prog.Funcs[v.CallSiteFunc]
		if !ok {
			return fmt.Errorf("constraint names unknown caller %q", v.CallSiteFunc)
		}
		if v.CallSite > len(callerFC.Calls) {
			return fmt.Errorf("%s has %d call sites, constraint names f%d", v.CallSiteFunc, len(callerFC.Calls), v.CallSite)
		}
		edge := callerFC.Calls[v.CallSite-1]
		if callerFC.Edges[edge].Callee != v.Func {
			return fmt.Errorf("%s.f%d calls %s, not %s", v.CallSiteFunc, v.CallSite, callerFC.Edges[edge].Callee, v.Func)
		}
		var filtered []*Context
		for _, c := range ctxs {
			if len(c.Path) == 0 {
				continue
			}
			last := c.Path[len(c.Path)-1]
			if last.Caller == v.CallSiteFunc && last.EdgeID == edge {
				filtered = append(filtered, c)
			}
		}
		if len(filtered) == 0 {
			return fmt.Errorf("no instance of %s reached via %s.f%d", v.Func, v.CallSiteFunc, v.CallSite)
		}
		ctxs = filtered
	}

	switch v.Kind {
	case constraint.VarBlock:
		if v.Index > len(fc.Blocks) {
			return fmt.Errorf("%s has %d blocks, constraint names x%d", v.Func, len(fc.Blocks), v.Index)
		}
		for _, c := range ctxs {
			into[a.blockVar(c.ID, v.Index-1)] += coef
		}
	case constraint.VarEdge:
		if v.Index > len(fc.Edges) {
			return fmt.Errorf("%s has %d edges, constraint names d%d", v.Func, len(fc.Edges), v.Index)
		}
		for _, c := range ctxs {
			into[a.edgeVar(c.ID, v.Index-1)] += coef
		}
	case constraint.VarCall:
		if v.Index > len(fc.Calls) {
			return fmt.Errorf("%s has %d call sites, constraint names f%d", v.Func, len(fc.Calls), v.Index)
		}
		for _, c := range ctxs {
			into[a.edgeVar(c.ID, fc.Calls[v.Index-1])] += coef
		}
	}
	return nil
}

// relToILP converts a normalized constraint relation to an ILP constraint.
// Resolution failures come back as *AnnotationError at the relation's source
// position.
func (a *Session) relToILP(r constraint.Rel) (ilp.Constraint, error) {
	c := ilp.Constraint{Coeffs: make(map[int]float64, len(r.Terms)), RHS: float64(r.RHS)}
	switch r.Op {
	case constraint.OpEQ:
		c.Rel = ilp.EQ
	case constraint.OpLE:
		c.Rel = ilp.LE
	case constraint.OpGE:
		c.Rel = ilp.GE
	}
	for v, coef := range r.Terms {
		if err := a.resolveVar(v, float64(coef), c.Coeffs); err != nil {
			return c, &AnnotationError{File: r.File, Line: r.Line,
				Msg: fmt.Sprintf("%v (in %q)", err, r.String())}
		}
	}
	return c, nil
}
