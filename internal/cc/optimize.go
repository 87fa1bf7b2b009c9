package cc

import (
	"strconv"
	"strings"

	"cinderella/internal/asm"
)

// Peephole optimization of the generated assembly. The accumulator scheme
// spills every partial result to the machine stack; when the second operand
// is simple (a literal, a variable, an address computation) the spill
// collapses into a register move:
//
//	addi sp, sp, -8          add r3, r2, r0
//	sw r2, 0(sp)       =>    <middle>
//	<middle>
//	lw r3, 0(sp)
//	addi sp, sp, 8
//
// where <middle> is a short run of side-effect-free instructions computing
// the right operand into the accumulator without touching sp or the pop
// target. The paper's reason for analyzing at the assembly level — "so as
// to capture all the effects of the compiler optimizations" (Section II) —
// is demonstrated by re-running the timing analysis on optimized images:
// the bounds tighten and the enclosure invariant still holds (see
// optimize_test.go and TestOptimizedCodeAnalysis).
//
// The pass runs on assembler statements, and each test it makes is a test
// of the statement's rendered line (asm.Render), so it makes the decisions
// a matcher over the printed text would: a middle statement is rejected
// when its line contains "sp" anywhere, even inside a symbol name, and
// mentionsReg scans symbol text as it would scan the line. Every statement
// of a match is unlabeled, so no match crosses a label, and optimizing the
// runs Build receives from code generation (each starting at a label) one
// at a time makes the decisions optimizing the whole program would.
//
// Optimization is off by default so that the Table I benchmarks keep the
// block numbering their annotations were written against; BuildOptimized
// compiles with the pass enabled.

// maxPeepholeMiddle bounds the operand-evaluation run the pattern accepts.
const maxPeepholeMiddle = 6

// optimize applies the spill-collapse peephole until a fixed point. It
// rewrites stmts in place and returns the shortened slice.
func optimize(stmts []asm.Stmt) []asm.Stmt {
	for {
		out, changed := peepholePass(stmts)
		stmts = out
		if !changed {
			return stmts
		}
	}
}

// peepholePass makes one left-to-right pass. A match replaces k+2
// statements with k-1, so the output never overtakes the input and the
// pass compacts in place.
func peepholePass(stmts []asm.Stmt) ([]asm.Stmt, bool) {
	w := 0
	changed := false
	for i := 0; i < len(stmts); i++ {
		if isSPAdjust(&stmts[i], -8) && i+1 < len(stmts) {
			if save, k, ok := matchSpill(stmts[i:]); ok {
				stmts[w] = save
				w += 1 + copy(stmts[w+1:], stmts[i+2:i+k])
				i += k + 1
				changed = true
				continue
			}
		}
		stmts[w] = stmts[i]
		w++
	}
	return stmts[:w], changed
}

// matchSpill matches the push/middle/pop pattern starting at window[0]
// (the addi sp, sp, -8 statement). On a match the pop is window[k]; the
// replacement is save followed by the middle window[2:k], and the pattern
// consumes k+2 statements.
func matchSpill(window []asm.Stmt) (save asm.Stmt, k int, ok bool) {
	var popOp string
	switch {
	case isStackAccess(&window[1], "sw") && window[1].Arg[0] == accInt:
		popOp = "lw"
	case isStackAccess(&window[1], "fst") && window[1].Arg[0] == accFloat:
		popOp = "fld"
	default:
		return save, 0, false
	}

	// Scan the middle for the matching pop.
	for k = 2; k < len(window) && k-2 <= maxPeepholeMiddle; k++ {
		s := &window[k]
		if isStackAccess(s, popOp) {
			if k+1 >= len(window) || !isSPAdjust(&window[k+1], 8) {
				return save, 0, false
			}
			pop := s.Arg[0]
			// The middle must not mention the pop target.
			for m := 2; m < k; m++ {
				if !safeMiddle(&window[m], pop) {
					return save, 0, false
				}
			}
			if popOp == "fld" {
				return asm.Instr("fmov", pop, accFloat), k, true
			}
			return asm.Instr("add", pop, accInt, r0), k, true
		}
		if !plausibleMiddle(s) {
			return save, 0, false
		}
	}
	return save, 0, false
}

// isSPAdjust recognizes the unlabeled "addi sp, sp, <delta>".
func isSPAdjust(s *asm.Stmt, delta int64) bool {
	return s.Label == "" && s.Op == "addi" && s.NArg == 3 && s.List == nil &&
		s.Arg[0] == sp && s.Arg[1] == sp && isImm(s.Arg[2], delta)
}

// isImm reports whether o prints as the integer v.
func isImm(o asm.Operand, v int64) bool {
	if o.Kind != asm.OpInt || o.Num != v {
		return false
	}
	var buf [24]byte
	return o.Text == "" || o.Text == string(strconv.AppendInt(buf[:0], v, 10))
}

// isStackAccess recognizes the unlabeled "<op> <reg>, 0(sp)": the pushes
// and pops codegen emits.
func isStackAccess(s *asm.Stmt, op string) bool {
	return s.Label == "" && s.Op == op && s.NArg == 2 && s.List == nil &&
		(s.Arg[0].Kind == asm.OpReg || s.Arg[0].Kind == asm.OpFreg) && s.Arg[1] == spAt(0)
}

// plausibleMiddle accepts only the simple operand-evaluation shapes the
// code generator emits; anything with control flow, labels or stack
// traffic aborts the match.
func plausibleMiddle(s *asm.Stmt) bool {
	if s.Label != "" || s.Dir != "" {
		return false
	}
	switch s.Op {
	case "li", "la", "lui", "ori", "lw", "fld", "add", "addi", "sub",
		"mul", "shli", "slt", "slti", "fcvtif", "fmov":
	default:
		return false
	}
	for _, o := range s.Args() {
		if strings.Contains(operandWord(o), "sp") {
			return false
		}
	}
	return true
}

// safeMiddle additionally excludes any mention of the pop target register
// (reading it would see the hoisted value; writing it would be clobbered
// in the original).
func safeMiddle(s *asm.Stmt, pop asm.Operand) bool {
	if !plausibleMiddle(s) {
		return false
	}
	reg := operandWord(pop)
	for _, o := range s.Args() {
		if mentionsReg(operandWord(o), reg) {
			return false
		}
	}
	return true
}

// operandWord is the part of an operand's rendering that can hold a
// register name or "sp": the register itself, a memory operand's base, or
// a symbol's or literal's spelling. The digits a literal or offset prints
// without a spelling can hold neither.
func operandWord(o asm.Operand) string {
	switch o.Kind {
	case asm.OpReg, asm.OpMem:
		return asm.RegName(o.Reg, false)
	case asm.OpFreg:
		return asm.RegName(o.Reg, true)
	}
	return o.Text
}

// mentionsReg reports whether the instruction text references the register,
// avoiding false hits on longer names (r3 vs r13 is safe because register
// tokens are always followed by ',' or ')' or end of line).
func mentionsReg(line, reg string) bool {
	for idx := 0; ; {
		j := strings.Index(line[idx:], reg)
		if j < 0 {
			return false
		}
		j += idx
		end := j + len(reg)
		identish := func(c byte) bool { return isLetter(c) || isDigit(c) }
		beforeOK := j == 0 || !identish(line[j-1])
		afterOK := end >= len(line) || !identish(line[end])
		if beforeOK && afterOK {
			return true
		}
		idx = j + 1
	}
}

// Optimize applies the peephole pass to generated assembly text; exported
// for the compiler driver (ccg -O). The text is parsed, optimized as
// statements and rendered back; text the assembler cannot parse is
// returned unchanged, since assembling it fails either way.
func Optimize(asmText string) string {
	stmts, err := asm.Parse(asmText)
	if err != nil {
		return asmText
	}
	return asm.Render(optimize(stmts))
}
