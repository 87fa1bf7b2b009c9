// Package constraint implements the program functionality constraint
// language of Section III.C: user-provided loop bounds and linear path
// facts over block execution counts (x-variables), edge counts
// (d-variables) and call-site counts (f-variables), combined with the
// conjunction (&) and disjunction (|) operators. Disjunctions expand to a
// set of conjunctive constraint sets — "a set of constraint sets, where at
// least one constraint set member must be satisfied".
//
// An annotation file contains one section per function:
//
//	; check_data from Park's thesis (paper Fig. 5)
//	func check_data {
//	    loop 1: 1 .. 10                       ; eqs (14)-(15)
//	    (x3 = 0 & x5 = 1) | (x3 = 1 & x5 = 0) ; eq (16)
//	    x3 = x8                               ; eq (17)
//	}
//	func task {
//	    x12 = check_data.x8 @ f1              ; eq (18)
//	}
//
// Variables are written the way cinderella's annotated-source listing
// labels them: x<i> for the i-th basic block, d<i> for the i-th CFG edge,
// f<i> for the i-th call site, all 1-based within the section's function.
// A variable may be qualified with another function (check_data.x8) and
// with a call-site context (@ f1), the paper's x8.f1 notation. Coefficients
// may use juxtaposition (10 x1) or an explicit star (10*x1).
package constraint

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// VarKind distinguishes the three count-variable families of the paper.
type VarKind uint8

const (
	// VarBlock is an x-variable: executions of a basic block.
	VarBlock VarKind = iota
	// VarEdge is a d-variable: traversals of a CFG edge.
	VarEdge
	// VarCall is an f-variable: executions of a call site.
	VarCall
)

func (k VarKind) String() string {
	switch k {
	case VarBlock:
		return "x"
	case VarEdge:
		return "d"
	case VarCall:
		return "f"
	}
	return "?"
}

// Var is a symbolic reference to a count variable. It is resolved against
// the program CFG by package ipet.
type Var struct {
	// Func is the owning function name.
	Func string
	// Kind selects the variable family.
	Kind VarKind
	// Index is the 1-based number as displayed in the annotated listing.
	Index int
	// CallSiteFunc/CallSite qualify the count to executions reached via
	// call site f<CallSite> of function CallSiteFunc (the paper's x8.f1).
	// CallSite == 0 means the aggregate over all contexts.
	CallSiteFunc string
	CallSite     int
}

func (v Var) String() string {
	s := v.Func + "." + v.Kind.String() + strconv.Itoa(v.Index)
	if v.CallSite != 0 {
		s += "@" + v.CallSiteFunc + ".f" + strconv.Itoa(v.CallSite)
	}
	return s
}

// RelOp is a linear relation comparator.
type RelOp uint8

const (
	OpEQ RelOp = iota
	OpLE
	OpGE
)

func (op RelOp) String() string {
	switch op {
	case OpEQ:
		return "="
	case OpLE:
		return "<="
	}
	return ">="
}

// Rel is a normalized linear relation:
//
//	sum(Terms[v] * v)  Op  RHS + sum(Syms[s] * s)
//
// Syms holds parameter symbols (identifiers like n1 that name neither an
// x/d/f variable nor a function-qualified count): the relation's right-hand
// side is affine in them. A Rel with a non-empty Syms cannot be solved
// concretely until the symbols are bound (File.Bind) or the file is handed
// to a parametric analysis.
type Rel struct {
	Terms map[Var]int64
	Op    RelOp
	RHS   int64
	// Syms maps parameter symbol names to their RHS coefficients. Nil when
	// the relation is fully concrete.
	Syms map[string]int64
	// Source is the original text for diagnostics.
	Source string
	// File and Line locate the relation in its annotation source: File is
	// the name given to ParseNamed (empty under Parse or for relations built
	// in memory), Line the 1-based source line (0 when built in memory).
	// They survive Merge, so a diagnostic always points at the right file.
	File string
	Line int
}

func (r Rel) String() string {
	// Each variable is formatted once; the sort compares the strings.
	type term struct {
		name string
		coef int64
	}
	terms := make([]term, 0, len(r.Terms))
	for v, coef := range r.Terms {
		terms = append(terms, term{v.String(), coef})
	}
	sort.Slice(terms, func(i, j int) bool { return terms[i].name < terms[j].name })
	var b strings.Builder
	writeCoef := func(coef int64) {
		if coef != 1 {
			b.WriteString(strconv.FormatInt(coef, 10))
			b.WriteByte(' ')
		}
	}
	for i, t := range terms {
		coef := t.coef
		if i > 0 {
			if coef >= 0 {
				b.WriteString(" + ")
			} else {
				b.WriteString(" - ")
				coef = -coef
			}
		} else if coef < 0 {
			b.WriteString("-")
			coef = -coef
		}
		writeCoef(coef)
		b.WriteString(t.name)
	}
	if len(terms) == 0 {
		b.WriteString("0")
	}
	b.WriteString(" " + r.Op.String() + " " + strconv.FormatInt(r.RHS, 10))
	syms := make([]string, 0, len(r.Syms))
	for s := range r.Syms {
		syms = append(syms, s)
	}
	sort.Strings(syms)
	for _, s := range syms {
		coef := r.Syms[s]
		if coef >= 0 {
			b.WriteString(" + ")
		} else {
			b.WriteString(" - ")
			coef = -coef
		}
		writeCoef(coef)
		b.WriteString(s)
	}
	return b.String()
}

// Formula is a boolean combination of relations.
type Formula interface{ formulaNode() }

// Atom is a single relation.
type Atom struct{ Rel Rel }

// And is a conjunction of formulas.
type And struct{ Parts []Formula }

// Or is a disjunction of formulas.
type Or struct{ Parts []Formula }

func (*Atom) formulaNode() {}
func (*And) formulaNode()  {}
func (*Or) formulaNode()   {}

// LoopBound gives the iteration bound for one detected loop: per entry into
// the loop, the loop iterates (traverses a back edge to the header) between
// Lo and Hi times — the paper's "values 1 and 10" for check_data.
type LoopBound struct {
	// Loop is the 1-based loop number in the function's detection order.
	Loop   int
	Lo, Hi int64
	// LoSym/HiSym, when non-empty, name a parameter symbol that replaces the
	// corresponding numeric end ("loop 1: 0 .. n1"). The numeric field is
	// meaningless while its symbol is set; File.Bind substitutes the value.
	LoSym, HiSym string
	Line         int
	// File is the annotation file the bound came from (set by ParseNamed).
	File string
}

// Symbolic reports whether either end of the bound is a parameter symbol.
func (lb LoopBound) Symbolic() bool { return lb.LoSym != "" || lb.HiSym != "" }

// Section holds the annotations of one function.
type Section struct {
	Func       string
	LoopBounds []LoopBound
	Formulas   []Formula
	Line       int
	// File is the annotation file the section came from (set by ParseNamed).
	// Per-relation and per-loop-bound positions carry their own File so that
	// Merge-combined sections keep accurate diagnostics.
	File string
}

// File is a parsed annotation file.
type File struct {
	Sections []Section
	// Name is the source file name as given to ParseNamed; empty under
	// Parse.
	Name string
}

// Merge combines annotation files: sections for the same function are
// concatenated (loop bounds and formulas are all asserted facts, so the
// conjunction of two sound files is sound). Later loop bounds for the same
// loop tighten earlier ones by plain conjunction at solve time.
func Merge(files ...*File) *File {
	out := &File{}
	idx := map[string]int{}
	for _, f := range files {
		if f == nil {
			continue
		}
		for _, sec := range f.Sections {
			i, ok := idx[sec.Func]
			if !ok {
				idx[sec.Func] = len(out.Sections)
				out.Sections = append(out.Sections, Section{Func: sec.Func, Line: sec.Line, File: sec.File})
				i = len(out.Sections) - 1
			}
			out.Sections[i].LoopBounds = append(out.Sections[i].LoopBounds, sec.LoopBounds...)
			out.Sections[i].Formulas = append(out.Sections[i].Formulas, sec.Formulas...)
		}
	}
	return out
}

// Clone returns a deep copy of the file: sections, loop bounds, formulas,
// and relation term maps share no mutable state with the receiver. An
// analyzer clones what Apply receives, so a caller that keeps editing its
// annotation objects to build the next scenario cannot corrupt a live
// analysis.
func (f *File) Clone() *File {
	if f == nil {
		return nil
	}
	out := &File{Sections: make([]Section, len(f.Sections))}
	for i := range f.Sections {
		out.Sections[i] = f.Sections[i].clone()
	}
	return out
}

func (s *Section) clone() Section {
	c := *s
	c.LoopBounds = append([]LoopBound(nil), s.LoopBounds...)
	if s.Formulas != nil {
		c.Formulas = make([]Formula, len(s.Formulas))
		for i, fm := range s.Formulas {
			c.Formulas[i] = cloneFormula(fm)
		}
	}
	return c
}

func cloneFormula(f Formula) Formula {
	switch n := f.(type) {
	case *Atom:
		return &Atom{Rel: n.Rel.clone()}
	case *And:
		parts := make([]Formula, len(n.Parts))
		for i, p := range n.Parts {
			parts[i] = cloneFormula(p)
		}
		return &And{Parts: parts}
	case *Or:
		parts := make([]Formula, len(n.Parts))
		for i, p := range n.Parts {
			parts[i] = cloneFormula(p)
		}
		return &Or{Parts: parts}
	}
	return f
}

func (r Rel) clone() Rel {
	c := r
	if r.Terms != nil {
		c.Terms = make(map[Var]int64, len(r.Terms))
		for v, coef := range r.Terms {
			c.Terms[v] = coef
		}
	}
	if r.Syms != nil {
		c.Syms = make(map[string]int64, len(r.Syms))
		for s, coef := range r.Syms {
			c.Syms[s] = coef
		}
	}
	return c
}

// Symbols returns the sorted set of parameter symbol names that occur
// anywhere in the file — in loop-bound ends or on relation right-hand
// sides. Empty for a fully concrete file.
func (f *File) Symbols() []string {
	seen := map[string]bool{}
	for si := range f.Sections {
		sec := &f.Sections[si]
		for _, lb := range sec.LoopBounds {
			if lb.LoSym != "" {
				seen[lb.LoSym] = true
			}
			if lb.HiSym != "" {
				seen[lb.HiSym] = true
			}
		}
		for _, fm := range sec.Formulas {
			formulaSymbols(fm, seen)
		}
	}
	out := make([]string, 0, len(seen))
	for s := range seen {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

func formulaSymbols(f Formula, seen map[string]bool) {
	switch n := f.(type) {
	case *Atom:
		for s := range n.Rel.Syms {
			seen[s] = true
		}
	case *And:
		for _, p := range n.Parts {
			formulaSymbols(p, seen)
		}
	case *Or:
		for _, p := range n.Parts {
			formulaSymbols(p, seen)
		}
	}
}

// Bind substitutes concrete values for every parameter symbol and returns
// the resulting fully concrete file; the receiver is not modified. A symbol
// occurring in the file but missing from params is an error (positioned at
// the first occurrence). Range validation of the substituted loop bounds is
// left to the consumer (ipet.Apply), which already rejects lo > hi.
func (f *File) Bind(params map[string]int64) (*File, error) {
	out := f.Clone()
	if out == nil {
		return nil, nil
	}
	for si := range out.Sections {
		sec := &out.Sections[si]
		for li := range sec.LoopBounds {
			lb := &sec.LoopBounds[li]
			if lb.LoSym != "" {
				v, ok := params[lb.LoSym]
				if !ok {
					return nil, fmt.Errorf("%s:%d: unbound parameter symbol %q", lb.File, lb.Line, lb.LoSym)
				}
				lb.Lo, lb.LoSym = v, ""
			}
			if lb.HiSym != "" {
				v, ok := params[lb.HiSym]
				if !ok {
					return nil, fmt.Errorf("%s:%d: unbound parameter symbol %q", lb.File, lb.Line, lb.HiSym)
				}
				lb.Hi, lb.HiSym = v, ""
			}
		}
		for _, fm := range sec.Formulas {
			if err := bindFormula(fm, params); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

func bindFormula(f Formula, params map[string]int64) error {
	switch n := f.(type) {
	case *Atom:
		for s, coef := range n.Rel.Syms {
			v, ok := params[s]
			if !ok {
				return fmt.Errorf("%s:%d: unbound parameter symbol %q", n.Rel.File, n.Rel.Line, s)
			}
			n.Rel.RHS += coef * v
		}
		n.Rel.Syms = nil
	case *And:
		for _, p := range n.Parts {
			if err := bindFormula(p, params); err != nil {
				return err
			}
		}
	case *Or:
		for _, p := range n.Parts {
			if err := bindFormula(p, params); err != nil {
				return err
			}
		}
	}
	return nil
}

// Section returns the section for a function, if present.
func (f *File) Section(name string) (*Section, bool) {
	for i := range f.Sections {
		if f.Sections[i].Func == name {
			return &f.Sections[i], true
		}
	}
	return nil, false
}

// Satisfied reports whether an assignment satisfies every relation of the
// set. Missing variables evaluate as zero.
func (cs ConjunctiveSet) Satisfied(assign map[Var]int64) bool {
	for _, r := range cs {
		lhs := int64(0)
		for v, coef := range r.Terms {
			lhs += coef * assign[v]
		}
		switch r.Op {
		case OpEQ:
			if lhs != r.RHS {
				return false
			}
		case OpLE:
			if lhs > r.RHS {
				return false
			}
		case OpGE:
			if lhs < r.RHS {
				return false
			}
		}
	}
	return true
}
