package cc

import (
	"cinderella/internal/asm"
)

// Build parses, checks, generates and assembles an MC source file into an
// executable image, returning the checked AST alongside for tools that need
// source-level information (the annotation view of cinderella, the
// reference interpreter). Code generation hands its statements straight to
// the assembler backend; the image is the one assembling Generate's text
// yields, line numbers included.
func Build(src string) (*asm.Executable, *Program, error) {
	return build(src, false)
}

// BuildOptimized is Build with the peephole optimizer enabled: partial-
// result spills collapse into register moves, producing a different (and
// faster) binary from the same source. Timing analysis on the optimized
// image demonstrates the paper's Section II point that the analysis must
// run on the final assembly.
func BuildOptimized(src string) (*asm.Executable, *Program, error) {
	return build(src, true)
}

func build(src string, optimized bool) (*asm.Executable, *Program, error) {
	prog, err := Parse(src)
	if err != nil {
		return nil, nil, err
	}
	if err := Check(prog); err != nil {
		return nil, nil, err
	}
	a := asm.NewAssembler()
	line := 0 // statements so far: their lines in the rendered text
	var asmErr error
	err = generate(prog, func(run []asm.Stmt) {
		if optimized {
			run = optimize(run)
		}
		for i := range run {
			line++
			run[i].Line = line
		}
		// A code generation error wins over an assembly error, as it
		// does for Generate's text, which exists only once generation
		// has succeeded.
		if asmErr == nil {
			asmErr = a.Add(run)
		}
	})
	if err != nil {
		return nil, nil, err
	}
	if asmErr != nil {
		return nil, nil, asmErr
	}
	exe, err := a.Link()
	if err != nil {
		return nil, nil, err
	}
	return exe, prog, nil
}
