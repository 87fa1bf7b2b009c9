package asm

import (
	"math"
	"strconv"
)

// Stmt is one assembler statement: an optional label, then an
// instruction, a directive, or nothing (a label-only line). Parse reads
// statements from text and the MC compiler (package cc) emits them
// directly; both hand them to the Assembler. Render prints them back as
// text, one line per statement.
type Stmt struct {
	// Line is the statement's source line, which Executable.Lines reports
	// for every instruction it assembles to.
	Line  int
	Label string // label defined by the statement ("" when none)

	// At most one of Op and Dir is set; neither for a label-only line.
	Op  string // instruction mnemonic, possibly a pseudo-op (li, la, ...)
	Dir string // directive name without the dot

	// Instructions take at most three operands, held inline in
	// Arg[:NArg]. A directive with more operands holds all of them in
	// List instead.
	Arg  [3]Operand
	NArg uint8
	List []Operand
}

// Args returns the statement's operands.
func (s *Stmt) Args() []Operand {
	if s.List != nil {
		return s.List
	}
	return s.Arg[:s.NArg]
}

// Operand is one instruction or directive operand.
type Operand struct {
	Kind OpKind
	Reg  uint8 // register (OpReg, OpFreg) or base register (OpMem)
	// Num is the value (OpInt), offset (OpMem), addend (OpSym), or the
	// IEEE 754 bits of the value (OpFloat).
	Num int64
	// Text is an OpSym's symbol name. A literal read from text keeps its
	// spelling here, and Render prints that spelling back.
	Text string
}

// OpKind classifies an operand.
type OpKind uint8

const (
	OpReg   OpKind = iota // integer register
	OpFreg                // float register
	OpInt                 // integer literal
	OpFloat               // float literal
	OpSym                 // symbol, optionally with +/- addend
	OpMem                 // off(reg)

	// opBad is a literal Parse rejects (see Literal); assembling a
	// statement that holds one fails with the parser's diagnostic.
	opBad
)

// Reg is integer register n.
func Reg(n uint8) Operand { return Operand{Kind: OpReg, Reg: n} }

// FReg is float register n.
func FReg(n uint8) Operand { return Operand{Kind: OpFreg, Reg: n} }

// Imm is an integer literal.
func Imm(v int64) Operand { return Operand{Kind: OpInt, Num: v} }

// Sym is a reference to a label.
func Sym(name string) Operand { return Operand{Kind: OpSym, Text: name} }

// Mem is the memory operand off(base).
func Mem(off int64, base uint8) Operand { return Operand{Kind: OpMem, Reg: base, Num: off} }

// Literal is the operand Parse reads from the literal tok, with tok as its
// spelling. A tok Parse rejects still renders as tok, and assembling it
// fails as assembling the text would.
func Literal(tok string) Operand {
	o, err := parseOperand(tok)
	if err != nil {
		return Operand{Kind: opBad, Text: tok}
	}
	return o
}

// Instr is an unlabeled instruction statement; it takes at most three
// operands.
func Instr(op string, args ...Operand) Stmt {
	s := Stmt{Op: op}
	s.NArg = uint8(copy(s.Arg[:], args))
	return s
}

// Directive is an unlabeled directive statement. With more than three
// operands it keeps args itself as List.
func Directive(dir string, args ...Operand) Stmt {
	s := Stmt{Dir: dir}
	if len(args) > len(s.Arg) {
		s.List = args
		return s
	}
	s.NArg = uint8(copy(s.Arg[:], args))
	return s
}

var (
	intRegNames = [16]string{"r0", "r1", "r2", "r3", "r4", "r5", "r6", "r7",
		"r8", "r9", "r10", "r11", "r12", "fp", "lr", "sp"}
	floatRegNames = [16]string{"f0", "f1", "f2", "f3", "f4", "f5", "f6", "f7",
		"f8", "f9", "f10", "f11", "f12", "f13", "f14", "f15"}
)

// RegName is the name Render prints for register n of the integer file, or
// of the float file when float is set.
func RegName(n uint8, float bool) string {
	if float {
		return floatRegNames[n&15]
	}
	return intRegNames[n&15]
}

// Render prints statements as assembly text, one line per statement, so
// statement i sits on line i+1. A label-only statement prints as "name:",
// a labeled one as "name: body", and an unlabeled one as its body
// indented by eight spaces. Registers print as r0-r12, fp, lr, sp and
// f0-f15, and literals with the spelling they were read with.
func Render(stmts []Stmt) string {
	buf := make([]byte, 0, 24*len(stmts))
	for i := range stmts {
		buf = append(appendStmt(buf, &stmts[i]), '\n')
	}
	return string(buf)
}

func appendStmt(buf []byte, s *Stmt) []byte {
	switch {
	case s.Label == "":
		buf = append(buf, "        "...)
	case s.Op == "" && s.Dir == "":
		return append(append(buf, s.Label...), ':')
	default:
		buf = append(append(buf, s.Label...), ": "...)
	}
	if s.Dir != "" {
		buf = append(append(buf, '.'), s.Dir...)
	} else {
		buf = append(buf, s.Op...)
	}
	for i, o := range s.Args() {
		if i == 0 {
			buf = append(buf, ' ')
		} else {
			buf = append(buf, ", "...)
		}
		buf = appendOperand(buf, o)
	}
	return buf
}

func appendOperand(buf []byte, o Operand) []byte {
	switch o.Kind {
	case OpReg:
		return append(buf, RegName(o.Reg, false)...)
	case OpFreg:
		return append(buf, RegName(o.Reg, true)...)
	case OpMem:
		buf = strconv.AppendInt(buf, o.Num, 10)
		return append(append(append(buf, '('), RegName(o.Reg, false)...), ')')
	case OpSym:
		buf = append(buf, o.Text...)
		if o.Num > 0 {
			buf = append(buf, '+')
		}
		if o.Num != 0 {
			buf = strconv.AppendInt(buf, o.Num, 10)
		}
		return buf
	}
	if o.Text != "" {
		return append(buf, o.Text...)
	}
	if o.Kind == OpFloat {
		return strconv.AppendFloat(buf, math.Float64frombits(uint64(o.Num)), 'g', -1, 64)
	}
	return strconv.AppendInt(buf, o.Num, 10)
}
