package cc

import (
	"fmt"
	"sync"
)

// parser is a recursive-descent parser for MC.
type parser struct {
	toks []token
	pos  int
	// consts accumulates named integer constants so array dimensions can be
	// evaluated during parsing.
	consts map[string]int64
}

// Parse parses MC source into an AST. The result must be checked with Check
// before code generation.
func Parse(src string) (*Program, error) {
	buf := tokBufs.Get().(*[]token)
	toks, err := lexAll((*buf)[:0], src)
	defer func() {
		clear(toks) // the pooled slice must not keep this source alive
		*buf = toks[:0]
		tokBufs.Put(buf)
	}()
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, consts: map[string]int64{}}
	return p.program()
}

// tokBufs recycles token slices between parses. The parser copies every
// token it keeps, so the slice is dead once the AST is built; growing it
// anew for every source was about a quarter of a compile's bytes.
var tokBufs = sync.Pool{New: func() any { return new([]token) }}

func (p *parser) cur() token { return p.toks[p.pos] }
func (p *parser) peek() token { // token after current
	if p.pos+1 < len(p.toks) {
		return p.toks[p.pos+1]
	}
	return p.toks[len(p.toks)-1]
}

func (p *parser) advance() token {
	t := p.toks[p.pos]
	if p.pos+1 < len(p.toks) {
		p.pos++
	}
	return t
}

func (p *parser) at(text string) bool {
	t := p.cur()
	return (t.kind == tokPunct || t.kind == tokKeyword) && t.text == text
}

func (p *parser) accept(text string) bool {
	if p.at(text) {
		p.advance()
		return true
	}
	return false
}

func (p *parser) expect(text string) (token, error) {
	if p.at(text) {
		return p.advance(), nil
	}
	t := p.cur()
	return t, errAt(t.line, t.col, "expected %q, found %s", text, t)
}

func (p *parser) program() (*Program, error) {
	prog := &Program{}
	for p.cur().kind != tokEOF {
		switch {
		case p.at("const"):
			cd, err := p.constDecl()
			if err != nil {
				return nil, err
			}
			prog.Consts = append(prog.Consts, cd)
		case p.at("int") || p.at("float") || p.at("void"):
			retTok := p.advance()
			name := p.cur()
			if name.kind != tokIdent {
				return nil, errAt(name.line, name.col, "expected identifier, found %s", name)
			}
			p.advance()
			if p.at("(") {
				fd, err := p.funcDecl(retTok, name)
				if err != nil {
					return nil, err
				}
				prog.Funcs = append(prog.Funcs, fd)
				continue
			}
			if retTok.text == "void" {
				return nil, errAt(retTok.line, retTok.col, "void is only valid as a return type")
			}
			decls, err := p.varDeclRest(typeFromTok(retTok), name)
			if err != nil {
				return nil, err
			}
			prog.Globals = append(prog.Globals, decls...)
		default:
			t := p.cur()
			return nil, errAt(t.line, t.col, "expected declaration, found %s", t)
		}
	}
	return prog, nil
}

func typeFromTok(t token) Type {
	if t.text == "float" {
		return Type{Kind: TFloat}
	}
	return Type{Kind: TInt}
}

func (p *parser) constDecl() (*ConstDecl, error) {
	kw := p.advance() // const
	name := p.cur()
	if name.kind != tokIdent {
		return nil, errAt(name.line, name.col, "expected constant name, found %s", name)
	}
	p.advance()
	if _, err := p.expect("="); err != nil {
		return nil, err
	}
	e, err := p.expr()
	if err != nil {
		return nil, err
	}
	v, err := p.evalConst(e)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(";"); err != nil {
		return nil, err
	}
	if _, dup := p.consts[name.text]; dup {
		return nil, errAt(name.line, name.col, "constant %q redefined", name.text)
	}
	p.consts[name.text] = v
	return &ConstDecl{Name: name.text, Value: v, Line: kw.line}, nil
}

// varDeclRest parses the remainder of a variable declaration after the base
// type and first name have been consumed.
func (p *parser) varDeclRest(base Type, first token) ([]*VarDecl, error) {
	var out []*VarDecl
	name := first
	for {
		d := &VarDecl{Name: name.text, Type: base, Line: name.line}
		for p.at("[") {
			p.advance()
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			n, err := p.evalConst(e)
			if err != nil {
				return nil, err
			}
			if n <= 0 || n > 1<<24 {
				return nil, errAt(name.line, name.col, "array dimension %d out of range", n)
			}
			d.Type.Dims = append(d.Type.Dims, int(n))
			if _, err := p.expect("]"); err != nil {
				return nil, err
			}
		}
		if p.accept("=") {
			if d.Type.IsArray() {
				inits, err := p.arrayInit()
				if err != nil {
					return nil, err
				}
				d.ArrayInit = inits
			} else {
				e, err := p.assignExpr()
				if err != nil {
					return nil, err
				}
				d.Init = e
			}
		}
		out = append(out, d)
		if p.accept(",") {
			name = p.cur()
			if name.kind != tokIdent {
				return nil, errAt(name.line, name.col, "expected identifier, found %s", name)
			}
			p.advance()
			continue
		}
		if _, err := p.expect(";"); err != nil {
			return nil, err
		}
		return out, nil
	}
}

// arrayInit parses a brace initializer, flattening nested braces.
func (p *parser) arrayInit() ([]Expr, error) {
	if _, err := p.expect("{"); err != nil {
		return nil, err
	}
	var out []Expr
	for !p.at("}") {
		if p.at("{") {
			inner, err := p.arrayInit()
			if err != nil {
				return nil, err
			}
			out = append(out, inner...)
		} else {
			e, err := p.assignExpr()
			if err != nil {
				return nil, err
			}
			out = append(out, e)
		}
		if !p.accept(",") {
			break
		}
	}
	if _, err := p.expect("}"); err != nil {
		return nil, err
	}
	return out, nil
}

func (p *parser) funcDecl(retTok, name token) (*FuncDecl, error) {
	fd := &FuncDecl{Name: name.text, Line: name.line}
	switch retTok.text {
	case "void":
		fd.Ret = Type{Kind: TVoid}
	default:
		fd.Ret = typeFromTok(retTok)
	}
	p.advance() // (
	if !p.at(")") {
		for {
			if p.accept("void") && p.at(")") {
				break
			}
			if !p.at("int") && !p.at("float") {
				t := p.cur()
				return nil, errAt(t.line, t.col, "expected parameter type, found %s", t)
			}
			base := typeFromTok(p.advance())
			pn := p.cur()
			if pn.kind != tokIdent {
				return nil, errAt(pn.line, pn.col, "expected parameter name, found %s", pn)
			}
			p.advance()
			typ := base
			if p.accept("[") {
				if _, err := p.expect("]"); err != nil {
					return nil, err
				}
				typ.Dims = []int{0}
			}
			fd.Params = append(fd.Params, Param{Name: pn.text, Type: typ})
			if !p.accept(",") {
				break
			}
		}
	}
	if _, err := p.expect(")"); err != nil {
		return nil, err
	}
	body, err := p.block()
	if err != nil {
		return nil, err
	}
	fd.Body = body
	return fd, nil
}

func (p *parser) block() (*BlockStmt, error) {
	if _, err := p.expect("{"); err != nil {
		return nil, err
	}
	b := &BlockStmt{}
	for !p.at("}") {
		if p.cur().kind == tokEOF {
			t := p.cur()
			return nil, errAt(t.line, t.col, "unexpected end of file in block")
		}
		s, err := p.stmt()
		if err != nil {
			return nil, err
		}
		b.Stmts = append(b.Stmts, s)
	}
	p.advance() // }
	return b, nil
}

func (p *parser) stmt() (Stmt, error) {
	t := p.cur()
	switch {
	case p.at("{"):
		return p.block()
	case p.at("int") || p.at("float"):
		base := typeFromTok(p.advance())
		name := p.cur()
		if name.kind != tokIdent {
			return nil, errAt(name.line, name.col, "expected identifier, found %s", name)
		}
		p.advance()
		decls, err := p.varDeclRest(base, name)
		if err != nil {
			return nil, err
		}
		return &DeclStmt{Decls: decls}, nil
	case p.at("if"):
		p.advance()
		if _, err := p.expect("("); err != nil {
			return nil, err
		}
		cond, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(")"); err != nil {
			return nil, err
		}
		then, err := p.stmt()
		if err != nil {
			return nil, err
		}
		s := &IfStmt{Cond: cond, Then: then, Line: t.line}
		if p.accept("else") {
			s.Else, err = p.stmt()
			if err != nil {
				return nil, err
			}
		}
		return s, nil
	case p.at("while"):
		p.advance()
		if _, err := p.expect("("); err != nil {
			return nil, err
		}
		cond, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(")"); err != nil {
			return nil, err
		}
		body, err := p.stmt()
		if err != nil {
			return nil, err
		}
		return &WhileStmt{Cond: cond, Body: body, Line: t.line}, nil
	case p.at("do"):
		p.advance()
		body, err := p.stmt()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect("while"); err != nil {
			return nil, err
		}
		if _, err := p.expect("("); err != nil {
			return nil, err
		}
		cond, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(")"); err != nil {
			return nil, err
		}
		if _, err := p.expect(";"); err != nil {
			return nil, err
		}
		return &WhileStmt{Cond: cond, Body: body, Do: true, Line: t.line}, nil
	case p.at("for"):
		p.advance()
		if _, err := p.expect("("); err != nil {
			return nil, err
		}
		s := &ForStmt{Line: t.line}
		if !p.at(";") {
			if p.at("int") || p.at("float") {
				base := typeFromTok(p.advance())
				name := p.cur()
				if name.kind != tokIdent {
					return nil, errAt(name.line, name.col, "expected identifier, found %s", name)
				}
				p.advance()
				decls, err := p.varDeclRest(base, name)
				if err != nil {
					return nil, err
				}
				s.Init = &DeclStmt{Decls: decls}
			} else {
				e, err := p.expr()
				if err != nil {
					return nil, err
				}
				s.Init = &ExprStmt{X: e, Line: t.line}
				if _, err := p.expect(";"); err != nil {
					return nil, err
				}
			}
		} else {
			p.advance()
		}
		if !p.at(";") {
			var err error
			s.Cond, err = p.expr()
			if err != nil {
				return nil, err
			}
		}
		if _, err := p.expect(";"); err != nil {
			return nil, err
		}
		if !p.at(")") {
			var err error
			s.Post, err = p.expr()
			if err != nil {
				return nil, err
			}
		}
		if _, err := p.expect(")"); err != nil {
			return nil, err
		}
		body, err := p.stmt()
		if err != nil {
			return nil, err
		}
		s.Body = body
		return s, nil
	case p.at("break"):
		p.advance()
		if _, err := p.expect(";"); err != nil {
			return nil, err
		}
		return &BreakStmt{Line: t.line}, nil
	case p.at("continue"):
		p.advance()
		if _, err := p.expect(";"); err != nil {
			return nil, err
		}
		return &ContinueStmt{Line: t.line}, nil
	case p.at("return"):
		p.advance()
		s := &ReturnStmt{Line: t.line}
		if !p.at(";") {
			var err error
			s.X, err = p.expr()
			if err != nil {
				return nil, err
			}
		}
		if _, err := p.expect(";"); err != nil {
			return nil, err
		}
		return s, nil
	case p.at(";"):
		p.advance()
		return &BlockStmt{}, nil
	}
	e, err := p.expr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(";"); err != nil {
		return nil, err
	}
	return &ExprStmt{X: e, Line: t.line}, nil
}

// expr parses a full expression (assignment level).
func (p *parser) expr() (Expr, error) { return p.assignExpr() }

var assignOps = map[string]string{
	"=": "", "+=": "+", "-=": "-", "*=": "*", "/=": "/", "%=": "%",
	"&=": "&", "|=": "|", "^=": "^", "<<=": "<<", ">>=": ">>",
}

func (p *parser) assignExpr() (Expr, error) {
	lhs, err := p.condExpr()
	if err != nil {
		return nil, err
	}
	t := p.cur()
	if t.kind == tokPunct {
		if op, ok := assignOps[t.text]; ok {
			switch lhs.(type) {
			case *VarRef, *IndexExpr:
			default:
				return nil, errAt(t.line, t.col, "left side of %s is not assignable", t.text)
			}
			p.advance()
			rhs, err := p.assignExpr()
			if err != nil {
				return nil, err
			}
			a := &AssignExpr{Op: op, LHS: lhs, RHS: rhs}
			a.line = t.line
			return a, nil
		}
	}
	return lhs, nil
}

func (p *parser) condExpr() (Expr, error) {
	cond, err := p.binExpr(0)
	if err != nil {
		return nil, err
	}
	if p.at("?") {
		t := p.advance()
		then, err := p.assignExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(":"); err != nil {
			return nil, err
		}
		els, err := p.condExpr()
		if err != nil {
			return nil, err
		}
		c := &CondExpr{Cond: cond, Then: then, Else: els}
		c.line = t.line
		return c, nil
	}
	return cond, nil
}

// binary operator precedence levels, loosest first.
var precLevels = [][]string{
	{"||"},
	{"&&"},
	{"|"},
	{"^"},
	{"&"},
	{"==", "!="},
	{"<", "<=", ">", ">="},
	{"<<", ">>"},
	{"+", "-"},
	{"*", "/", "%"},
}

func (p *parser) binExpr(level int) (Expr, error) {
	if level >= len(precLevels) {
		return p.unaryExpr()
	}
	lhs, err := p.binExpr(level + 1)
	if err != nil {
		return nil, err
	}
	for {
		t := p.cur()
		if t.kind != tokPunct || !contains(precLevels[level], t.text) {
			return lhs, nil
		}
		p.advance()
		rhs, err := p.binExpr(level + 1)
		if err != nil {
			return nil, err
		}
		b := &BinaryExpr{Op: t.text, X: lhs, Y: rhs}
		b.line = t.line
		lhs = b
	}
}

func contains(ss []string, s string) bool {
	for _, x := range ss {
		if x == s {
			return true
		}
	}
	return false
}

func (p *parser) unaryExpr() (Expr, error) {
	t := p.cur()
	if t.kind == tokPunct {
		switch t.text {
		case "-", "!", "~":
			p.advance()
			x, err := p.unaryExpr()
			if err != nil {
				return nil, err
			}
			u := &UnaryExpr{Op: t.text, X: x}
			u.line = t.line
			return u, nil
		case "+":
			p.advance()
			return p.unaryExpr()
		case "++", "--":
			p.advance()
			x, err := p.unaryExpr()
			if err != nil {
				return nil, err
			}
			if !isLValue(x) {
				return nil, errAt(t.line, t.col, "%s requires an assignable operand", t.text)
			}
			e := &IncDecExpr{Op: t.text, X: x}
			e.line = t.line
			return e, nil
		}
	}
	return p.postfixExpr()
}

func isLValue(e Expr) bool {
	switch e.(type) {
	case *VarRef, *IndexExpr:
		return true
	}
	return false
}

func (p *parser) postfixExpr() (Expr, error) {
	x, err := p.primaryExpr()
	if err != nil {
		return nil, err
	}
	for {
		t := p.cur()
		switch {
		case p.at("["):
			vr, ok := x.(*VarRef)
			var ie *IndexExpr
			if ok {
				ie = &IndexExpr{Base: vr}
				ie.line = t.line
			} else if prev, ok2 := x.(*IndexExpr); ok2 {
				ie = prev
			} else {
				return nil, errAt(t.line, t.col, "indexing a non-array expression")
			}
			p.advance()
			idx, err := p.expr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect("]"); err != nil {
				return nil, err
			}
			ie.Indexes = append(ie.Indexes, idx)
			x = ie
		case p.at("++") || p.at("--"):
			if !isLValue(x) {
				return nil, errAt(t.line, t.col, "%s requires an assignable operand", t.text)
			}
			p.advance()
			e := &IncDecExpr{Op: t.text, X: x, Post: true}
			e.line = t.line
			x = e
		default:
			return x, nil
		}
	}
}

func (p *parser) primaryExpr() (Expr, error) {
	t := p.cur()
	switch t.kind {
	case tokIntLit:
		p.advance()
		e := &IntLit{Value: t.ival}
		e.line = t.line
		return e, nil
	case tokFloatLit:
		p.advance()
		e := &FloatLit{Value: t.fval}
		e.line = t.line
		return e, nil
	case tokIdent:
		p.advance()
		if p.at("(") {
			p.advance()
			c := &CallExpr{Name: t.text}
			c.line = t.line
			for !p.at(")") {
				a, err := p.assignExpr()
				if err != nil {
					return nil, err
				}
				c.Args = append(c.Args, a)
				if !p.accept(",") {
					break
				}
			}
			if _, err := p.expect(")"); err != nil {
				return nil, err
			}
			return c, nil
		}
		v := &VarRef{Name: t.text}
		v.line = t.line
		return v, nil
	case tokPunct:
		if t.text == "(" {
			p.advance()
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
	}
	return nil, errAt(t.line, t.col, "expected expression, found %s", t)
}

// evalConst evaluates an integer constant expression at parse time, using
// the named constants declared so far.
func (p *parser) evalConst(e Expr) (int64, error) {
	switch x := e.(type) {
	case *IntLit:
		return x.Value, nil
	case *VarRef:
		if v, ok := p.consts[x.Name]; ok {
			return v, nil
		}
		return 0, errAt(x.line, 0, "%q is not a named constant", x.Name)
	case *UnaryExpr:
		v, err := p.evalConst(x.X)
		if err != nil {
			return 0, err
		}
		switch x.Op {
		case "-":
			return -v, nil
		case "~":
			return ^v, nil
		case "!":
			if v == 0 {
				return 1, nil
			}
			return 0, nil
		}
	case *BinaryExpr:
		a, err := p.evalConst(x.X)
		if err != nil {
			return 0, err
		}
		b, err := p.evalConst(x.Y)
		if err != nil {
			return 0, err
		}
		switch x.Op {
		case "+":
			return a + b, nil
		case "-":
			return a - b, nil
		case "*":
			return a * b, nil
		case "/":
			if b == 0 {
				return 0, errAt(x.line, 0, "division by zero in constant expression")
			}
			return a / b, nil
		case "%":
			if b == 0 {
				return 0, errAt(x.line, 0, "remainder by zero in constant expression")
			}
			return a % b, nil
		case "<<":
			return a << uint(b&31), nil
		case ">>":
			return a >> uint(b&31), nil
		case "&":
			return a & b, nil
		case "|":
			return a | b, nil
		case "^":
			return a ^ b, nil
		}
	}
	return 0, fmt.Errorf("cc: expression is not an integer constant")
}
