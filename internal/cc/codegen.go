package cc

import (
	"fmt"
	"strconv"
	"strings"
	"sync"

	"cinderella/internal/asm"
	"cinderella/internal/isa"
)

// Code generation model
//
// MC compiles to CR32 assembly statements (package asm) with a simple
// accumulator scheme: every expression leaves its value in r2 (int) or f2
// (float); partial results are pushed on the machine stack. All stack
// slots are 8 bytes so float values stay 8-aligned.
//
// Calling convention (shared with sim.Machine.Call):
//   - argument i occupies the 8-byte slot at sp + 8*i on entry
//   - array arguments pass the array base address in an int slot
//   - return value in r1 (int) or f1 (float)
//   - r1-r12/f1-f12 are caller-saved (the accumulator scheme keeps no
//     values in registers across statements or calls)
//
// Frame layout (fp = sp at entry):
//   fp + 8*i   argument i
//   fp -  4    saved lr
//   fp -  8    saved fp
//   fp - 16…   locals (8-byte aligned slots, arrays contiguous)
//
// The generated program begins with a _start stub that calls main and
// halts, so images can be either Run from reset or entered per-function
// with sim.Machine.Call.

var (
	accInt   = asm.Reg(2) // integer accumulator
	secInt   = asm.Reg(3) // integer secondary (popped operands)
	addrReg  = asm.Reg(4) // address scratch
	scratch  = asm.Reg(5) // extra integer scratch
	accFloat = asm.FReg(2)
	secFloat = asm.FReg(3)

	r0, r1     = asm.Reg(isa.RegZero), asm.Reg(isa.RegRV)
	f1         = asm.FReg(isa.FRegRV)
	sp, fp, lr = asm.Reg(isa.RegSP), asm.Reg(isa.RegFP), asm.Reg(isa.RegLR)
)

// codegen emits CR32 assembly statements for a checked program. It hands
// them to sink a run at a time: each run but the first starts with a
// label, and the statements of the runs, in order, are the program.
type codegen struct {
	sink   func([]asm.Stmt)
	out    []asm.Stmt // the current run; sink must not keep it
	pool   []asm.Stmt // float constant data, placed after the globals
	labels int
	fn     *FuncDecl

	// breakLbl / contLbl are the innermost loop targets.
	breakLbl string
	contLbl  string

	// epilogue label of the current function.
	epiLbl string

	// terminated is set after emitting an unconditional control transfer;
	// it suppresses dead statements and structural jumps until the next
	// label.
	terminated bool

	// floatPool maps float constant bit patterns to data labels.
	floatPool map[float64]string
	poolN     int
}

// Generate emits assembly text for a parsed and checked program: the
// rendering (asm.Render) of the statements Build assembles.
func Generate(prog *Program) (string, error) {
	var all []asm.Stmt
	if err := generate(prog, func(run []asm.Stmt) { all = append(all, run...) }); err != nil {
		return "", err
	}
	return asm.Render(all), nil
}

// generate emits the assembly statements of a checked program to sink, a
// run at a time. The run buffer is reused, so sink copies what it keeps.
func generate(prog *Program, sink func([]asm.Stmt)) error {
	buf := runBufs.Get().(*[]asm.Stmt)
	g := &codegen{sink: sink, floatPool: map[float64]string{}, out: (*buf)[:0]}
	defer func() {
		clear(g.out[:cap(g.out)]) // drop this program's strings
		*buf = g.out[:0]
		runBufs.Put(buf)
	}()
	g.out = append(g.out, asm.Directive("text"))
	g.label("_start")
	g.ins("call", asm.Sym("main"))
	g.ins("halt")
	hasMain := false
	for _, f := range prog.Funcs {
		if f.Name == "main" {
			hasMain = true
		}
		if err := g.function(f); err != nil {
			return err
		}
	}
	if !hasMain {
		return fmt.Errorf("cc: program has no main function")
	}
	g.out = append(g.out, asm.Directive("data"))
	for _, gv := range prog.Globals {
		if err := g.globalData(gv); err != nil {
			return err
		}
	}
	g.out = append(g.out, g.pool...)
	g.flush()
	return nil
}

// Compile parses, checks and generates assembly in one step.
func Compile(src string) (string, error) {
	prog, err := Parse(src)
	if err != nil {
		return "", err
	}
	if err := Check(prog); err != nil {
		return "", err
	}
	return Generate(prog)
}

// runBufs recycles generate's run buffer between compiles; growing it
// anew for every program was about a quarter of a compile's bytes.
var runBufs = sync.Pool{New: func() any { return new([]asm.Stmt) }}

// ins emits an instruction of at most three operands.
func (g *codegen) ins(op string, args ...asm.Operand) {
	g.out = append(g.out, asm.Instr(op, args...))
}

// label emits a label-only statement, which starts a new run.
func (g *codegen) label(l string) {
	g.flush()
	g.out = append(g.out, asm.Stmt{Label: l})
	g.terminated = false
}

// flush hands the current run to the sink and starts an empty one.
func (g *codegen) flush() {
	g.sink(g.out)
	g.out = g.out[:0]
}

// labeled returns the directive d defining label l.
func labeled(l string, d asm.Stmt) asm.Stmt { d.Label = l; return d }

func (g *codegen) newLabel(hint string) string {
	g.labels++
	return ".L" + g.fn.Name + "_" + hint + strconv.Itoa(g.labels)
}

// imm is an integer literal operand.
func imm(v int) asm.Operand { return asm.Imm(int64(v)) }

// fpAt and spAt are the memory operands off(fp) and off(sp).
func fpAt(off int) asm.Operand { return asm.Mem(int64(off), isa.RegFP) }
func spAt(off int) asm.Operand { return asm.Mem(int64(off), isa.RegSP) }

// at is the memory operand 0(base) for an integer register operand.
func at(base asm.Operand) asm.Operand { return asm.Mem(0, base.Reg) }

// globalSym returns the assembler symbol for a global variable.
func globalSym(name string) string { return "g_" + name }

func (g *codegen) globalData(gv *VarDecl) error {
	c := &checker{} // folding only touches literal/const nodes
	if !gv.Type.IsArray() {
		if gv.Type.Kind == TFloat {
			f := 0.0
			if gv.Init != nil {
				_, fv, err := c.foldConst(gv.Init)
				if err != nil {
					return err
				}
				f = fv
			}
			// Scalars print with %v (3.0 as "3"), unlike floatForm's
			// arrays and constants.
			g.out = append(g.out, labeled(globalSym(gv.Name), asm.Directive("double", asm.Literal(fmt.Sprint(f)))))
			return nil
		}
		v := int64(0)
		if gv.Init != nil {
			iv, _, err := c.foldConst(gv.Init)
			if err != nil {
				return err
			}
			v = iv
		}
		g.out = append(g.out, labeled(globalSym(gv.Name), asm.Directive("word", asm.Imm(v))))
		return nil
	}
	n := 1
	for _, d := range gv.Type.Dims {
		n *= d
	}
	if gv.ArrayInit == nil {
		align := 4
		if gv.Type.Kind == TFloat {
			align = 8
		}
		g.out = append(g.out, asm.Directive("align", imm(align)),
			labeled(globalSym(gv.Name), asm.Directive("space", imm(n*gv.Type.ScalarSize()))))
		return nil
	}
	vals := make([]asm.Operand, 0, n)
	for _, e := range gv.ArrayInit {
		iv, fv, err := c.foldConst(e)
		if err != nil {
			return err
		}
		if gv.Type.Kind == TFloat {
			vals = append(vals, asm.Literal(floatForm(fv)))
		} else {
			vals = append(vals, asm.Imm(int64(int32(iv))))
		}
	}
	for len(vals) < n {
		vals = append(vals, asm.Imm(0))
	}
	dir := "word"
	if gv.Type.Kind == TFloat {
		dir = "double"
	}
	// Emit in comfortable runs.
	g.out = append(g.out, asm.Stmt{Label: globalSym(gv.Name)})
	for i := 0; i < len(vals); i += 8 {
		end := i + 8
		if end > len(vals) {
			end = len(vals)
		}
		g.out = append(g.out, asm.Directive(dir, vals[i:end]...))
	}
	return nil
}

// floatForm renders a float literal so the assembler re-reads it as float.
func floatForm(f float64) string {
	s := fmt.Sprintf("%g", f)
	if !strings.ContainsAny(s, ".eE") {
		s += ".0"
	}
	return s
}

// slotOf returns the argument slot index layout: every parameter occupies
// one 8-byte slot.
func argOffset(i int) int { return 8 * i }

func (g *codegen) function(f *FuncDecl) error {
	g.fn = f
	g.epiLbl = ".L" + f.Name + "_epilogue"

	// Frame layout.
	for i, p := range f.ParamSyms {
		p.Offset = argOffset(i)
	}
	off := -8 // below saved lr (fp-4) and saved fp (fp-8)
	for _, l := range f.Locals {
		size := (l.Type.Size() + 7) &^ 7
		off -= size
		l.Offset = off
	}
	frameSize := -off // saves plus locals; 8-aligned by construction

	g.label(f.Name)
	g.ins("addi", sp, sp, imm(-frameSize))
	g.ins("sw", lr, spAt(frameSize-4))
	g.ins("sw", fp, spAt(frameSize-8))
	g.ins("addi", fp, sp, imm(frameSize))

	if err := g.stmt(f.Body); err != nil {
		return err
	}

	// Implicit return (value-returning functions that fall off the end
	// return whatever is in the return register — as in C, using it is
	// undefined).
	g.label(g.epiLbl)
	g.ins("lw", lr, fpAt(-4))
	g.ins("lw", addrReg, fpAt(-8))
	g.ins("addi", sp, fp, asm.Imm(0))
	g.ins("add", fp, addrReg, r0)
	g.ins("ret")
	return nil
}

// ---- statements ----

func (g *codegen) stmt(s Stmt) error {
	if g.terminated {
		// Statements sequenced after an unconditional transfer can never
		// execute; emitting them would leave unreachable code in the image.
		return nil
	}
	switch x := s.(type) {
	case *BlockStmt:
		for _, sub := range x.Stmts {
			if err := g.stmt(sub); err != nil {
				return err
			}
		}
		return nil
	case *DeclStmt:
		for _, d := range x.Decls {
			if d.Init == nil {
				continue
			}
			if err := g.expr(d.Init); err != nil {
				return err
			}
			g.storeVar(d.Sym)
		}
		return nil
	case *ExprStmt:
		return g.expr(x.X)
	case *IfStmt:
		elseLbl := g.newLabel("else")
		endLbl := g.newLabel("endif")
		if err := g.expr(x.Cond); err != nil {
			return err
		}
		if x.Else != nil {
			g.ins("beq", accInt, r0, asm.Sym(elseLbl))
		} else {
			g.ins("beq", accInt, r0, asm.Sym(endLbl))
		}
		if err := g.stmt(x.Then); err != nil {
			return err
		}
		if x.Else != nil {
			if !g.terminated {
				g.ins("jmp", asm.Sym(endLbl))
			}
			g.label(elseLbl)
			if err := g.stmt(x.Else); err != nil {
				return err
			}
		}
		g.label(endLbl)
		return nil
	case *WhileStmt:
		condLbl := g.newLabel("cond")
		bodyLbl := g.newLabel("body")
		endLbl := g.newLabel("endloop")
		savedB, savedC := g.breakLbl, g.contLbl
		g.breakLbl, g.contLbl = endLbl, condLbl
		if x.Do {
			g.label(bodyLbl)
			if err := g.stmt(x.Body); err != nil {
				return err
			}
			g.label(condLbl)
			if err := g.expr(x.Cond); err != nil {
				return err
			}
			g.ins("bne", accInt, r0, asm.Sym(bodyLbl))
		} else {
			g.label(condLbl)
			if err := g.expr(x.Cond); err != nil {
				return err
			}
			g.ins("beq", accInt, r0, asm.Sym(endLbl))
			if err := g.stmt(x.Body); err != nil {
				return err
			}
			if !g.terminated {
				g.ins("jmp", asm.Sym(condLbl))
			}
		}
		g.label(endLbl)
		g.breakLbl, g.contLbl = savedB, savedC
		return nil
	case *ForStmt:
		condLbl := g.newLabel("forcond")
		postLbl := g.newLabel("forpost")
		endLbl := g.newLabel("endfor")
		if x.Init != nil {
			if err := g.stmt(x.Init); err != nil {
				return err
			}
		}
		savedB, savedC := g.breakLbl, g.contLbl
		g.breakLbl, g.contLbl = endLbl, postLbl
		g.label(condLbl)
		if x.Cond != nil {
			if err := g.expr(x.Cond); err != nil {
				return err
			}
			g.ins("beq", accInt, r0, asm.Sym(endLbl))
		}
		if err := g.stmt(x.Body); err != nil {
			return err
		}
		g.label(postLbl)
		if x.Post != nil {
			if err := g.expr(x.Post); err != nil {
				return err
			}
		}
		g.ins("jmp", asm.Sym(condLbl))
		g.label(endLbl)
		g.breakLbl, g.contLbl = savedB, savedC
		return nil
	case *BreakStmt:
		g.ins("jmp", asm.Sym(g.breakLbl))
		g.terminated = true
		return nil
	case *ContinueStmt:
		g.ins("jmp", asm.Sym(g.contLbl))
		g.terminated = true
		return nil
	case *ReturnStmt:
		if x.X != nil {
			if err := g.expr(x.X); err != nil {
				return err
			}
			if x.X.TypeOf().Kind == TFloat {
				g.ins("fmov", f1, accFloat)
			} else {
				g.ins("add", r1, accInt, r0)
			}
		}
		g.ins("jmp", asm.Sym(g.epiLbl))
		g.terminated = true
		return nil
	}
	return fmt.Errorf("cc: codegen: unknown statement %T", s)
}

// ---- stack helpers ----

func (g *codegen) pushInt(reg asm.Operand) {
	g.ins("addi", sp, sp, asm.Imm(-8))
	g.ins("sw", reg, spAt(0))
}

func (g *codegen) popInt(reg asm.Operand) {
	g.ins("lw", reg, spAt(0))
	g.ins("addi", sp, sp, asm.Imm(8))
}

func (g *codegen) pushFloat(reg asm.Operand) {
	g.ins("addi", sp, sp, asm.Imm(-8))
	g.ins("fst", reg, spAt(0))
}

func (g *codegen) popFloat(reg asm.Operand) {
	g.ins("fld", reg, spAt(0))
	g.ins("addi", sp, sp, asm.Imm(8))
}

// ---- variable access ----

// loadVar loads a scalar variable into the accumulator.
func (g *codegen) loadVar(sym *VarSym) {
	if sym.Global {
		g.ins("la", addrReg, asm.Sym(globalSym(sym.Name)))
		if sym.Type.Kind == TFloat {
			g.ins("fld", accFloat, at(addrReg))
		} else {
			g.ins("lw", accInt, at(addrReg))
		}
		return
	}
	if sym.Type.Kind == TFloat {
		g.ins("fld", accFloat, fpAt(sym.Offset))
	} else {
		g.ins("lw", accInt, fpAt(sym.Offset))
	}
}

// storeVar stores the accumulator into a scalar variable.
func (g *codegen) storeVar(sym *VarSym) {
	if sym.Global {
		g.ins("la", addrReg, asm.Sym(globalSym(sym.Name)))
		if sym.Type.Kind == TFloat {
			g.ins("fst", accFloat, at(addrReg))
		} else {
			g.ins("sw", accInt, at(addrReg))
		}
		return
	}
	if sym.Type.Kind == TFloat {
		g.ins("fst", accFloat, fpAt(sym.Offset))
	} else {
		g.ins("sw", accInt, fpAt(sym.Offset))
	}
}

// arrayBase leaves the base address of an array variable in the int
// accumulator.
func (g *codegen) arrayBase(sym *VarSym) {
	switch {
	case sym.Global:
		g.ins("la", accInt, asm.Sym(globalSym(sym.Name)))
	case sym.Param:
		g.ins("lw", accInt, fpAt(sym.Offset)) // array params hold an address
	default:
		g.ins("addi", accInt, fp, imm(sym.Offset))
	}
}

// indexAddr computes the byte address of an element access into accInt.
func (g *codegen) indexAddr(x *IndexExpr) error {
	sym := x.Base.Sym
	g.arrayBase(sym)
	g.pushInt(accInt)
	dims := sym.Type.Dims
	// Linear index into accInt.
	for i, idx := range x.Indexes {
		if err := g.expr(idx); err != nil {
			return err
		}
		// Scale by the product of the remaining dimensions.
		stride := 1
		for _, d := range dims[i+1:] {
			stride *= d
		}
		if stride > 1 {
			g.ins("li", secInt, imm(stride))
			g.ins("mul", accInt, accInt, secInt)
		}
		if i > 0 {
			g.popInt(secInt)
			g.ins("add", accInt, secInt, accInt)
		}
		if i < len(x.Indexes)-1 {
			g.pushInt(accInt)
		}
	}
	// Scale by element size and add the base.
	if sym.Type.ScalarSize() == 8 {
		g.ins("shli", accInt, accInt, asm.Imm(3))
	} else {
		g.ins("shli", accInt, accInt, asm.Imm(2))
	}
	g.popInt(secInt)
	g.ins("add", accInt, secInt, accInt)
	return nil
}

// ---- expressions ----

// expr generates code leaving the expression value in r2 or f2.
func (g *codegen) expr(e Expr) error {
	switch x := e.(type) {
	case *IntLit:
		g.ins("li", accInt, asm.Imm(int64(int32(x.Value))))
		return nil
	case *FloatLit:
		g.loadFloatConst(x.Value)
		return nil
	case *VarRef:
		if x.Const {
			g.ins("li", accInt, asm.Imm(int64(int32(x.ConstVal))))
			return nil
		}
		if x.Sym.Type.IsArray() {
			g.arrayBase(x.Sym)
			return nil
		}
		g.loadVar(x.Sym)
		return nil
	case *ConvExpr:
		if err := g.expr(x.X); err != nil {
			return err
		}
		if x.typ.Kind == TFloat {
			g.ins("fcvtif", accFloat, accInt)
		} else {
			g.ins("fcvtfi", accInt, accFloat)
		}
		return nil
	case *IndexExpr:
		if err := g.indexAddr(x); err != nil {
			return err
		}
		if x.typ.Kind == TFloat {
			g.ins("fld", accFloat, at(accInt))
		} else {
			g.ins("lw", accInt, at(accInt))
		}
		return nil
	case *UnaryExpr:
		if err := g.expr(x.X); err != nil {
			return err
		}
		switch x.Op {
		case "-":
			if x.typ.Kind == TFloat {
				g.ins("fneg", accFloat, accFloat)
			} else {
				g.ins("sub", accInt, r0, accInt)
			}
		case "!":
			g.ins("sltu", accInt, r0, accInt)
			g.ins("xori", accInt, accInt, asm.Imm(1))
		case "~":
			g.ins("sub", accInt, r0, accInt)
			g.ins("addi", accInt, accInt, asm.Imm(-1))
		}
		return nil
	case *BinaryExpr:
		return g.binary(x)
	case *CondExpr:
		elseLbl := g.newLabel("celse")
		endLbl := g.newLabel("cend")
		if err := g.expr(x.Cond); err != nil {
			return err
		}
		g.ins("beq", accInt, r0, asm.Sym(elseLbl))
		if err := g.expr(x.Then); err != nil {
			return err
		}
		g.ins("jmp", asm.Sym(endLbl))
		g.label(elseLbl)
		if err := g.expr(x.Else); err != nil {
			return err
		}
		g.label(endLbl)
		return nil
	case *AssignExpr:
		return g.assign(x)
	case *IncDecExpr:
		return g.incDec(x)
	case *CallExpr:
		return g.call(x)
	}
	return fmt.Errorf("cc: codegen: unknown expression %T", e)
}

func (g *codegen) loadFloatConst(v float64) {
	lbl, ok := g.floatPool[v]
	if !ok {
		g.poolN++
		lbl = "fc_" + strconv.Itoa(g.poolN)
		g.floatPool[v] = lbl
		g.pool = append(g.pool, labeled(lbl, asm.Directive("double", asm.Literal(floatForm(v)))))
	}
	g.ins("la", addrReg, asm.Sym(lbl))
	g.ins("fld", accFloat, at(addrReg))
}

func (g *codegen) binary(x *BinaryExpr) error {
	switch x.Op {
	case "&&":
		falseLbl := g.newLabel("andf")
		endLbl := g.newLabel("andend")
		if err := g.expr(x.X); err != nil {
			return err
		}
		g.ins("beq", accInt, r0, asm.Sym(falseLbl))
		if err := g.expr(x.Y); err != nil {
			return err
		}
		g.ins("sltu", accInt, r0, accInt)
		g.ins("jmp", asm.Sym(endLbl))
		g.label(falseLbl)
		g.ins("li", accInt, asm.Imm(0))
		g.label(endLbl)
		return nil
	case "||":
		trueLbl := g.newLabel("ort")
		endLbl := g.newLabel("orend")
		if err := g.expr(x.X); err != nil {
			return err
		}
		g.ins("bne", accInt, r0, asm.Sym(trueLbl))
		if err := g.expr(x.Y); err != nil {
			return err
		}
		g.ins("sltu", accInt, r0, accInt)
		g.ins("jmp", asm.Sym(endLbl))
		g.label(trueLbl)
		g.ins("li", accInt, asm.Imm(1))
		g.label(endLbl)
		return nil
	}

	float := x.X.TypeOf().Kind == TFloat
	if err := g.expr(x.X); err != nil {
		return err
	}
	if float {
		g.pushFloat(accFloat)
	} else {
		g.pushInt(accInt)
	}
	if err := g.expr(x.Y); err != nil {
		return err
	}
	if float {
		g.popFloat(secFloat) // f3 = X, f2 = Y
		g.floatOp(x.Op)
	} else {
		g.popInt(secInt) // r3 = X, r2 = Y
		g.intOp(x.Op)
	}
	return nil
}

// intOp applies r2 = r3 op r2.
func (g *codegen) intOp(op string) {
	switch op {
	case "+":
		g.ins("add", accInt, secInt, accInt)
	case "-":
		g.ins("sub", accInt, secInt, accInt)
	case "*":
		g.ins("mul", accInt, secInt, accInt)
	case "/":
		g.ins("div", accInt, secInt, accInt)
	case "%":
		g.ins("rem", accInt, secInt, accInt)
	case "&":
		g.ins("and", accInt, secInt, accInt)
	case "|":
		g.ins("or", accInt, secInt, accInt)
	case "^":
		g.ins("xor", accInt, secInt, accInt)
	case "<<":
		g.ins("shl", accInt, secInt, accInt)
	case ">>":
		g.ins("sra", accInt, secInt, accInt)
	case "==":
		g.ins("sub", accInt, secInt, accInt)
		g.ins("sltu", accInt, r0, accInt)
		g.ins("xori", accInt, accInt, asm.Imm(1))
	case "!=":
		g.ins("sub", accInt, secInt, accInt)
		g.ins("sltu", accInt, r0, accInt)
	case "<":
		g.ins("slt", accInt, secInt, accInt)
	case "<=":
		g.ins("slt", accInt, accInt, secInt)
		g.ins("xori", accInt, accInt, asm.Imm(1))
	case ">":
		g.ins("slt", accInt, accInt, secInt)
	case ">=":
		g.ins("slt", accInt, secInt, accInt)
		g.ins("xori", accInt, accInt, asm.Imm(1))
	}
}

// floatOp applies f2 = f3 op f2 (comparisons set r2).
func (g *codegen) floatOp(op string) {
	switch op {
	case "+":
		g.ins("fadd", accFloat, secFloat, accFloat)
	case "-":
		g.ins("fsub", accFloat, secFloat, accFloat)
	case "*":
		g.ins("fmul", accFloat, secFloat, accFloat)
	case "/":
		g.ins("fdiv", accFloat, secFloat, accFloat)
	case "==":
		g.ins("feq", accInt, secFloat, accFloat)
	case "!=":
		g.ins("feq", accInt, secFloat, accFloat)
		g.ins("xori", accInt, accInt, asm.Imm(1))
	case "<":
		g.ins("flt", accInt, secFloat, accFloat)
	case "<=":
		g.ins("fle", accInt, secFloat, accFloat)
	case ">":
		g.ins("flt", accInt, accFloat, secFloat)
	case ">=":
		g.ins("fle", accInt, accFloat, secFloat)
	}
}

func (g *codegen) assign(x *AssignExpr) error {
	float := x.typ.Kind == TFloat

	// Fast path: plain assignment to a non-global scalar variable.
	if vr, ok := x.LHS.(*VarRef); ok {
		if x.Op == "" {
			if err := g.expr(x.RHS); err != nil {
				return err
			}
			g.storeVar(vr.Sym)
			return nil
		}
		// Compound on a variable: load, push, rhs, op, store.
		g.loadVar(vr.Sym)
		if float {
			g.pushFloat(accFloat)
		} else {
			g.pushInt(accInt)
		}
		if err := g.expr(x.RHS); err != nil {
			return err
		}
		if float {
			g.popFloat(secFloat)
			g.floatOp(x.Op)
		} else {
			g.popInt(secInt)
			g.intOp(x.Op)
		}
		g.storeVar(vr.Sym)
		return nil
	}

	ie := x.LHS.(*IndexExpr)
	if err := g.indexAddr(ie); err != nil {
		return err
	}
	g.pushInt(accInt) // save element address
	if x.Op != "" {
		// Load current value through the saved address.
		g.ins("lw", addrReg, spAt(0))
		if float {
			g.ins("fld", accFloat, at(addrReg))
			g.pushFloat(accFloat)
		} else {
			g.ins("lw", accInt, at(addrReg))
			g.pushInt(accInt)
		}
	}
	if err := g.expr(x.RHS); err != nil {
		return err
	}
	if x.Op != "" {
		if float {
			g.popFloat(secFloat)
			g.floatOp(x.Op)
		} else {
			g.popInt(secInt)
			g.intOp(x.Op)
		}
	}
	g.popInt(addrReg)
	if float {
		g.ins("fst", accFloat, at(addrReg))
	} else {
		g.ins("sw", accInt, at(addrReg))
	}
	return nil
}

func (g *codegen) incDec(x *IncDecExpr) error {
	float := x.typ.Kind == TFloat

	applyDelta := func() {
		if float {
			g.ins("li", scratch, asm.Imm(1))
			g.ins("fcvtif", secFloat, scratch)
			if x.Op == "++" {
				g.ins("fadd", accFloat, accFloat, secFloat)
			} else {
				g.ins("fsub", accFloat, accFloat, secFloat)
			}
		} else {
			if x.Op == "++" {
				g.ins("addi", accInt, accInt, asm.Imm(1))
			} else {
				g.ins("addi", accInt, accInt, asm.Imm(-1))
			}
		}
	}
	undoDelta := func() {
		if float {
			if x.Op == "++" {
				g.ins("fsub", accFloat, accFloat, secFloat)
			} else {
				g.ins("fadd", accFloat, accFloat, secFloat)
			}
		} else {
			if x.Op == "++" {
				g.ins("addi", accInt, accInt, asm.Imm(-1))
			} else {
				g.ins("addi", accInt, accInt, asm.Imm(1))
			}
		}
	}

	if vr, ok := x.X.(*VarRef); ok {
		g.loadVar(vr.Sym)
		applyDelta()
		g.storeVar(vr.Sym)
		if x.Post {
			undoDelta()
		}
		return nil
	}

	ie := x.X.(*IndexExpr)
	if err := g.indexAddr(ie); err != nil {
		return err
	}
	g.ins("add", addrReg, accInt, r0)
	if float {
		g.ins("fld", accFloat, at(addrReg))
		applyDelta()
		g.ins("fst", accFloat, at(addrReg))
	} else {
		g.ins("lw", accInt, at(addrReg))
		applyDelta()
		g.ins("sw", accInt, at(addrReg))
	}
	if x.Post {
		undoDelta()
	}
	return nil
}

func (g *codegen) call(x *CallExpr) error {
	if x.Intrinsic != IntrNone {
		if err := g.expr(x.Args[0]); err != nil {
			return err
		}
		switch x.Intrinsic {
		case IntrSqrt:
			g.ins("fsqrt", accFloat, accFloat)
		case IntrSin:
			g.ins("fsin", accFloat, accFloat)
		case IntrCos:
			g.ins("fcos", accFloat, accFloat)
		case IntrAtan:
			g.ins("fatan", accFloat, accFloat)
		case IntrExp:
			g.ins("fexp", accFloat, accFloat)
		case IntrLog:
			g.ins("flog", accFloat, accFloat)
		case IntrFabs:
			g.ins("fabs", accFloat, accFloat)
		case IntrAbs:
			g.ins("srai", secInt, accInt, asm.Imm(31))
			g.ins("xor", accInt, accInt, secInt)
			g.ins("sub", accInt, accInt, secInt)
		}
		return nil
	}

	// Evaluate arguments last-to-first, pushing 8-byte slots, so that
	// argument 0 ends at the lowest address (sp + 0 at the call).
	for i := len(x.Args) - 1; i >= 0; i-- {
		a := x.Args[i]
		if a.TypeOf().IsArray() {
			// Array argument: pass the base address.
			vr, ok := a.(*VarRef)
			if !ok {
				return errAt(x.line, 0, "array argument must be a variable name")
			}
			g.arrayBase(vr.Sym)
			g.pushInt(accInt)
			continue
		}
		if err := g.expr(a); err != nil {
			return err
		}
		if a.TypeOf().Kind == TFloat {
			g.pushFloat(accFloat)
		} else {
			g.pushInt(accInt)
		}
	}
	g.ins("call", asm.Sym(x.Func.Name))
	if n := len(x.Args); n > 0 {
		g.ins("addi", sp, sp, imm(8*n))
	}
	switch x.Func.Ret.Kind {
	case TFloat:
		g.ins("fmov", accFloat, f1)
	case TInt:
		g.ins("add", accInt, r1, r0)
	}
	return nil
}
