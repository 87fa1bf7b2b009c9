// Package asm implements an assembler, loader-image builder and
// disassembler for the CR32 instruction set (package isa).
//
// The assembler accepts a conventional two-segment syntax:
//
//	        .text
//	main:   addi sp, sp, -8
//	        sw   lr, 4(sp)
//	.Lloop: bne  r2, r0, .Ldone
//	        call store
//	        jmp  .Lloop
//	.Ldone: lw   lr, 4(sp)
//	        ret
//	        .data
//	arr:    .word 1, 2, 3
//	buf:    .space 64
//	pi:     .double 3.14159
//
// Labels beginning with '.' are local (not function entries); all other
// text labels name functions, which is how the CFG builder (package cfg)
// recovers function boundaries from the image, mirroring how cinderella
// reads symbol tables out of i960 executables.
//
// The assembler works on statements (Stmt). Parse reads them from text and
// the MC compiler (package cc) emits them directly; either way one backend,
// the Assembler, turns them into the image. Render prints statements back
// as text, and assembling the rendering gives the same image.
package asm

import (
	"fmt"
	"sort"

	"cinderella/internal/isa"
)

// Segment layout constants. Text is loaded at address 0; data follows,
// aligned; the stack grows down from the top of memory.
const (
	TextBase       = 0
	DataAlign      = 8
	DefaultMemSize = 1 << 20
)

// Symbol is a named address in the image.
type Symbol struct {
	Name string
	Addr uint32
	// Func marks text symbols that name function entry points.
	Func bool
	// Size is the extent in bytes for function symbols (distance to the
	// next function or end of text).
	Size uint32
}

// Executable is a loadable memory image plus the symbol information the
// timing analyzer needs.
type Executable struct {
	// Mem is the initialized memory image covering text and data.
	Mem []byte
	// TextBytes is the size of the text segment; instructions occupy
	// [0, TextBytes) in 4-byte words.
	TextBytes uint32
	// Entry is the address of the entry function ("main" when defined,
	// else the first text symbol).
	Entry uint32
	// Symbols maps every label to its address.
	Symbols map[string]uint32
	// Functions lists text function symbols in address order.
	Functions []Symbol
	// Lines maps instruction addresses to assembly source line numbers.
	Lines map[uint32]int
}

// Instr decodes the instruction at addr.
func (e *Executable) Instr(addr uint32) (isa.Instruction, error) {
	if addr%isa.WordBytes != 0 || addr+isa.WordBytes > e.TextBytes {
		return isa.Instruction{}, fmt.Errorf("asm: address %#x outside text segment", addr)
	}
	return isa.Decode(e.word(addr))
}

func (e *Executable) word(addr uint32) uint32 {
	return uint32(e.Mem[addr]) | uint32(e.Mem[addr+1])<<8 |
		uint32(e.Mem[addr+2])<<16 | uint32(e.Mem[addr+3])<<24
}

// FunctionAt returns the function symbol containing addr, if any.
func (e *Executable) FunctionAt(addr uint32) (Symbol, bool) {
	i := sort.Search(len(e.Functions), func(i int) bool {
		return e.Functions[i].Addr > addr
	})
	if i == 0 {
		return Symbol{}, false
	}
	f := e.Functions[i-1]
	if addr >= f.Addr+f.Size {
		return Symbol{}, false
	}
	return f, true
}

// FunctionNamed returns the function symbol with the given name.
func (e *Executable) FunctionNamed(name string) (Symbol, bool) {
	for _, f := range e.Functions {
		if f.Name == name {
			return f, true
		}
	}
	return Symbol{}, false
}

// Error is an assembly diagnostic with a source line number.
type Error struct {
	Line int
	Msg  string
}

func (e *Error) Error() string { return fmt.Sprintf("asm: line %d: %s", e.Line, e.Msg) }

func errf(line int, format string, args ...interface{}) error {
	return &Error{Line: line, Msg: fmt.Sprintf(format, args...)}
}
