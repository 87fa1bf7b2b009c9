package asm

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"cinderella/internal/isa"
)

func TestOperandFormErrors(t *testing.T) {
	cases := []struct {
		src string
		sub string
	}{
		{"main: lw r1, r2\n", "wants reg, off(reg)"},
		{"main: sw r1, 4\n", "wants reg, off(reg)"},
		{"main: fld f1, f2\n", "wants freg, off(reg)"},
		{"main: fst r1, 0(sp)\n", "wants freg, off(reg)"},
		{"main: lui r1, r2\n", "lui wants reg, imm"},
		{"main: addi r1, r2, r3\n", "wants reg, reg, imm"},
		{"main: beq r1, r2, 4(r3)\n", "label or offset"},
		{"main: jmp r1\n", "wants label or address"},
		{"main: jmp 6\n", "not word aligned"},
		{"main: jr 5\n", "jr wants one integer register"},
		{"main: ret r1\n", "ret takes no operands"},
		{"main: nop r1\n", "takes no operands"},
		{"main: li r1\n", "li wants 2 operands"},
		{"main: li r1, 9999999999999\n", "out of 32-bit range"},
		{"main: la r1, 5\n", "operand 2 has wrong form"},
		{"main: mov r1\n", "mov wants 2 operands"},
		{"main: beqz r1\n", "wants register, target"},
		{"main: ble r1, r2\n", "wants reg, reg, target"},
		{"main: fsqrt f1, f2, f3\n", "wants 2 operands"},
	}
	for _, c := range cases {
		_, err := Assemble(c.src)
		if err == nil {
			t.Errorf("Assemble(%q) succeeded, want %q", c.src, c.sub)
			continue
		}
		if !strings.Contains(err.Error(), c.sub) {
			t.Errorf("Assemble(%q) = %q, want containing %q", c.src, err, c.sub)
		}
	}
}

func TestCharEscapes(t *testing.T) {
	exe := mustAssemble(t, `
main:
        li r1, '\t'
        li r2, '\\'
        li r3, '\''
        li r4, '\0'
        halt
`)
	want := []int32{'\t', '\\', '\'', 0}
	for i, w := range want {
		ins, _ := exe.Instr(uint32(4 * i))
		if ins.Imm != w {
			t.Errorf("literal %d = %d, want %d", i, ins.Imm, w)
		}
	}
	if _, err := Assemble("main: li r1, '\\q'\n"); err == nil {
		t.Error("bad escape accepted")
	}
}

func TestNumericBranchTargets(t *testing.T) {
	exe := mustAssemble(t, "main:\n beq r1, r2, -1\n halt\n")
	ins, _ := exe.Instr(0)
	if ins.Op != isa.OpBeq || ins.Imm != -1 {
		t.Fatalf("numeric branch offset: %+v", ins)
	}
	exe = mustAssemble(t, "main:\n jmp 0\n")
	ins, _ = exe.Instr(0)
	if ins.Op != isa.OpJmp || ins.Imm != 0 {
		t.Fatalf("numeric jmp target: %+v", ins)
	}
}

func TestGlobalDirectiveAccepted(t *testing.T) {
	exe := mustAssemble(t, `
        .global main
        .globl helper
        .extern thing
main:   halt
helper: ret
`)
	if _, ok := exe.FunctionNamed("main"); !ok {
		t.Fatal("main missing")
	}
}

func TestAlignDirectiveErrors(t *testing.T) {
	if _, err := Assemble("main: halt\n.data\n.align 0\n"); err == nil {
		t.Error("zero align accepted")
	}
	if _, err := Assemble(".align 4\nmain: halt\n"); err == nil {
		t.Error(".align in text accepted")
	}
	if _, err := Assemble("main: halt\n.data\n.word x+\n"); err == nil {
		t.Error("bad symbol addend accepted")
	}
	if _, err := Assemble("main: halt\n.data\nb: .byte x\n"); err == nil {
		t.Error(".byte with symbol accepted")
	}
	if _, err := Assemble("main: halt\n.data\nd: .double x\n"); err == nil {
		t.Error(".double with symbol accepted")
	}
	if _, err := Assemble("main: halt\n.data\nw: .word 1.5\n"); err == nil {
		t.Error(".word with float accepted")
	}
}

func TestSymbolicWordUndefined(t *testing.T) {
	_, err := Assemble("main: halt\n.data\nt: .word ghost\n")
	if err == nil || !strings.Contains(err.Error(), `undefined symbol "ghost"`) {
		t.Fatalf("err = %v", err)
	}
}

func TestDoubleWithIntegerOperand(t *testing.T) {
	exe := mustAssemble(t, "main: halt\n.data\nd: .double 3\n")
	addr := exe.Symbols["d"]
	var bits uint64
	for i := uint32(0); i < 8; i++ {
		bits |= uint64(exe.Mem[addr+i]) << (8 * i)
	}
	if bits != 0x4008000000000000 { // float64(3.0)
		t.Fatalf("double bits %#x", bits)
	}
}

func TestMemOperandWithoutOffset(t *testing.T) {
	exe := mustAssemble(t, "main:\n lw r1, (sp)\n halt\n")
	ins, _ := exe.Instr(0)
	if ins.Op != isa.OpLw || ins.Imm != 0 || ins.Rs1 != isa.RegSP {
		t.Fatalf("bare (reg) operand: %+v", ins)
	}
}

// TestRenderRoundTrip checks that Render prints parsed statements back in
// the layout they were written in, literals with their spelling.
func TestRenderRoundTrip(t *testing.T) {
	src := `        .text
main:
        addi sp, sp, -8
        sw r2, 0(sp)
        la r4, g_x+4
        la r5, g_x-4
        li r3, 'a'
        beq r2, r0, .Ldone
        fld f2, -16(fp)
.Ldone:
        ret
        .data
g_x: .word 1, 2, 3, 4, 5
g_y: .double -0, 1.0, +Inf
        .align 8
buf: .space 16
`
	stmts, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if got := Render(stmts); got != src {
		t.Fatalf("Render(Parse(src)) =\n%s\nwant\n%s", got, src)
	}
}

// TestAssemblerAddInRuns checks that handing the backend statements a run
// at a time builds the image one Add of all of them builds.
func TestAssemblerAddInRuns(t *testing.T) {
	stmts, err := Parse(`
main:   li r2, 70000
        la r3, tab
.Lloop: beq r2, r0, .Ldone
        addi r2, r2, -1
        jmp .Lloop
.Ldone: call f
        halt
f:      ret
        .data
tab:    .word main, f, 3
d:      .double 2.5
`)
	if err != nil {
		t.Fatal(err)
	}
	whole := NewAssembler()
	if err := whole.Add(stmts); err != nil {
		t.Fatal(err)
	}
	want, err := whole.Link()
	if err != nil {
		t.Fatal(err)
	}
	runs := NewAssembler()
	for i := range stmts {
		if err := runs.Add(stmts[i : i+1]); err != nil {
			t.Fatal(err)
		}
	}
	got, err := runs.Link()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("run-at-a-time image differs from the whole-slice image")
	}
}

// TestLiteral checks that Literal yields the operand Parse reads, spelled
// as given, and that a literal Parse rejects fails assembly with the
// parser's diagnostic.
func TestLiteral(t *testing.T) {
	if o := Literal("-0"); o.Kind != OpInt || o.Num != 0 || o.Text != "-0" {
		t.Errorf(`Literal("-0") = %+v`, o)
	}
	if o := Literal("2.5"); o.Kind != OpFloat || math.Float64frombits(uint64(o.Num)) != 2.5 {
		t.Errorf(`Literal("2.5") = %+v`, o)
	}
	bad := Directive("double", Literal("+Inf.0"))
	bad.Label, bad.Line = "x", 3
	stmts := []Stmt{Directive("data"), bad}
	if got := Render(stmts); got != "        .data\nx: .double +Inf.0\n" {
		t.Errorf("rendered %q", got)
	}
	_, textErr := Assemble("\n\nx: .double +Inf.0\n")
	a := NewAssembler()
	err := a.Add(stmts)
	if err == nil || textErr == nil || err.Error() != textErr.Error() {
		t.Errorf("Add error %v, Assemble error %v", err, textErr)
	}
}
