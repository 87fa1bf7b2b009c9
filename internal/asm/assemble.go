package asm

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"

	"cinderella/internal/isa"
)

// symUse describes how a symbolic immediate is folded into an instruction.
type symUse uint8

const (
	symNone   symUse = iota
	symBranch        // pc-relative word offset (format B)
	symAbs           // absolute word address (format J)
	symHi            // upper 16 bits of the symbol address (lui of la)
	symLo            // lower 16 bits of the symbol address (ori of la)
)

// template is one machine instruction awaiting symbol resolution.
type template struct {
	line         int
	op           isa.Opcode
	rd, rs1, rs2 uint8
	imm          int64
	sym          string
	symOff       int64
	use          symUse
}

// dataItem is one assembled data-segment entity at a data-relative offset.
type dataItem struct {
	line   int
	off    uint32
	bytes  []byte
	sym    string // when set, a 4-byte word resolved to sym's address+symOff
	symOff int64
}

// Assembler is the assembler's backend. Add takes statements in source
// order and Link builds the image from all of them: Assemble feeds it the
// statements parsed from text, and the MC compiler (package cc) the
// statements it emits, as it emits them. An Assembler whose Add or Link
// has returned an error must not be used again.
type Assembler struct {
	text     []template
	data     []dataItem
	dataSize uint32
	inData   bool
	textSyms map[string]uint32 // label -> word index
	dataSyms map[string]uint32 // label -> data-relative offset
	symLines map[string]int
}

// Assemble translates CR32 assembly source into an executable image: it
// parses the text and hands the statements to the backend.
func Assemble(src string) (*Executable, error) {
	stmts, err := Parse(src)
	if err != nil {
		return nil, err
	}
	a := NewAssembler()
	if err := a.Add(stmts); err != nil {
		return nil, err
	}
	return a.Link()
}

// NewAssembler returns a backend with no statements added.
func NewAssembler() *Assembler {
	return &Assembler{
		textSyms: map[string]uint32{},
		dataSyms: map[string]uint32{},
		symLines: map[string]int{},
	}
}

// Add assembles stmts after the statements added before them. It neither
// modifies nor keeps stmts.
func (a *Assembler) Add(stmts []Stmt) error {
	n := 0
	for i := range stmts {
		switch stmts[i].Op {
		case "":
		case "la", "li":
			n += 2 // the most a pseudo-op expands to
		default:
			n++
		}
	}
	a.text = slices.Grow(a.text, n)
	for i := range stmts {
		if err := a.stmt(&stmts[i]); err != nil {
			return err
		}
	}
	return nil
}

func (a *Assembler) defineLabel(name string, line int) error {
	if _, dup := a.textSyms[name]; dup {
		return errf(line, "label %q redefined (first at line %d)", name, a.symLines[name])
	}
	if _, dup := a.dataSyms[name]; dup {
		return errf(line, "label %q redefined (first at line %d)", name, a.symLines[name])
	}
	a.symLines[name] = line
	if a.inData {
		a.dataSyms[name] = a.dataSize
	} else {
		a.textSyms[name] = uint32(len(a.text))
	}
	return nil
}

func (a *Assembler) stmt(s *Stmt) error {
	if s.Label != "" {
		// Pre-align data labels so the label names the aligned payload.
		if a.inData && s.Dir == "double" {
			a.alignData(8)
		} else if a.inData && s.Dir == "word" {
			a.alignData(4)
		}
		if err := a.defineLabel(s.Label, s.Line); err != nil {
			return err
		}
	}
	switch {
	case s.Dir != "":
		return a.directive(s)
	case s.Op != "":
		if a.inData {
			return errf(s.Line, "instruction %q in data segment", s.Op)
		}
		return a.instr(s)
	}
	return nil
}

func (a *Assembler) alignData(n uint32) {
	if rem := a.dataSize % n; rem != 0 {
		a.dataSize += n - rem
	}
}

func (a *Assembler) directive(s *Stmt) error {
	args := s.Args()
	for _, arg := range args {
		if arg.Kind == opBad {
			_, err := parseOperand(arg.Text)
			return errf(s.Line, "%v", err)
		}
	}
	switch s.Dir {
	case "text":
		a.inData = false
	case "data":
		a.inData = true
	case "global", "globl", "extern":
		// Accepted for source compatibility; all symbols are global.
	case "align":
		if len(args) != 1 || args[0].Kind != OpInt || args[0].Num <= 0 {
			return errf(s.Line, ".align wants one positive integer")
		}
		if !a.inData {
			return errf(s.Line, ".align only supported in data segment")
		}
		a.alignData(uint32(args[0].Num))
	case "word":
		if !a.inData {
			return errf(s.Line, ".word only supported in data segment")
		}
		a.alignData(4)
		for _, arg := range args {
			switch arg.Kind {
			case OpInt:
				b := make([]byte, 4)
				binary.LittleEndian.PutUint32(b, uint32(arg.Num))
				a.data = append(a.data, dataItem{line: s.Line, off: a.dataSize, bytes: b})
			case OpSym:
				a.data = append(a.data, dataItem{line: s.Line, off: a.dataSize, sym: arg.Text, symOff: arg.Num})
			default:
				return errf(s.Line, ".word wants integer or symbol operands")
			}
			a.dataSize += 4
		}
	case "byte":
		if !a.inData {
			return errf(s.Line, ".byte only supported in data segment")
		}
		for _, arg := range args {
			if arg.Kind != OpInt {
				return errf(s.Line, ".byte wants integer operands")
			}
			a.data = append(a.data, dataItem{line: s.Line, off: a.dataSize, bytes: []byte{byte(arg.Num)}})
			a.dataSize++
		}
	case "double":
		if !a.inData {
			return errf(s.Line, ".double only supported in data segment")
		}
		a.alignData(8)
		for _, arg := range args {
			var f float64
			switch arg.Kind {
			case OpFloat:
				f = math.Float64frombits(uint64(arg.Num))
			case OpInt:
				f = float64(arg.Num)
			default:
				return errf(s.Line, ".double wants numeric operands")
			}
			b := make([]byte, 8)
			binary.LittleEndian.PutUint64(b, math.Float64bits(f))
			a.data = append(a.data, dataItem{line: s.Line, off: a.dataSize, bytes: b})
			a.dataSize += 8
		}
	case "space":
		if !a.inData {
			return errf(s.Line, ".space only supported in data segment")
		}
		if len(args) != 1 || args[0].Kind != OpInt || args[0].Num < 0 {
			return errf(s.Line, ".space wants one non-negative integer")
		}
		a.dataSize += uint32(args[0].Num)
	default:
		return errf(s.Line, "unknown directive .%s", s.Dir)
	}
	return nil
}

// emit appends one machine instruction template.
func (a *Assembler) emit(t template) { a.text = append(a.text, t) }

func wantArgs(s *Stmt, kinds ...OpKind) error {
	args := s.Args()
	if len(args) != len(kinds) {
		return errf(s.Line, "%s wants %d operands, got %d", s.Op, len(kinds), len(args))
	}
	for i, k := range kinds {
		got := args[i].Kind
		if got == k {
			continue
		}
		// An integer literal is acceptable where a symbol target is allowed
		// and vice versa; callers disambiguate.
		return errf(s.Line, "%s operand %d has wrong form", s.Op, i+1)
	}
	return nil
}

func (a *Assembler) instr(s *Stmt) error {
	args := s.Args()
	// Pseudo-instructions first.
	switch s.Op {
	case "li":
		if err := wantArgs(s, OpReg, OpInt); err != nil {
			return err
		}
		v := args[1].Num
		if v < math.MinInt32 || v > math.MaxUint32 {
			return errf(s.Line, "li immediate %d out of 32-bit range", v)
		}
		rd := args[0].Reg
		if v >= -(1<<15) && v < 1<<15 {
			a.emit(template{line: s.Line, op: isa.OpAddi, rd: rd, imm: v})
			return nil
		}
		bits := uint32(v)
		a.emit(template{line: s.Line, op: isa.OpLui, rd: rd, imm: int64(int16(uint16(bits >> 16)))})
		a.emit(template{line: s.Line, op: isa.OpOri, rd: rd, rs1: rd, imm: int64(int16(uint16(bits & 0xffff)))})
		return nil
	case "la":
		if err := wantArgs(s, OpReg, OpSym); err != nil {
			return err
		}
		rd := args[0].Reg
		a.emit(template{line: s.Line, op: isa.OpLui, rd: rd, sym: args[1].Text, symOff: args[1].Num, use: symHi})
		a.emit(template{line: s.Line, op: isa.OpOri, rd: rd, rs1: rd, sym: args[1].Text, symOff: args[1].Num, use: symLo})
		return nil
	case "mov":
		if err := wantArgs(s, OpReg, OpReg); err != nil {
			return err
		}
		a.emit(template{line: s.Line, op: isa.OpAdd, rd: args[0].Reg, rs1: args[1].Reg})
		return nil
	case "neg":
		if err := wantArgs(s, OpReg, OpReg); err != nil {
			return err
		}
		a.emit(template{line: s.Line, op: isa.OpSub, rd: args[0].Reg, rs2: args[1].Reg})
		return nil
	case "ret":
		if len(args) != 0 {
			return errf(s.Line, "ret takes no operands")
		}
		a.emit(template{line: s.Line, op: isa.OpJr, rs1: isa.RegLR})
		return nil
	case "b":
		jmp := *s
		jmp.Op = "jmp"
		s = &jmp
	case "beqz", "bnez":
		if len(args) != 2 || args[0].Kind != OpReg {
			return errf(s.Line, "%s wants register, target", s.Op)
		}
		op := isa.OpBeq
		if s.Op == "bnez" {
			op = isa.OpBne
		}
		return a.branch(s, op, args[0].Reg, 0, args[1])
	case "ble", "bgt":
		if len(args) != 3 || args[0].Kind != OpReg || args[1].Kind != OpReg {
			return errf(s.Line, "%s wants reg, reg, target", s.Op)
		}
		// ble a,b == bge b,a ; bgt a,b == blt b,a.
		op := isa.OpBge
		if s.Op == "bgt" {
			op = isa.OpBlt
		}
		return a.branch(s, op, args[1].Reg, args[0].Reg, args[2])
	}

	op, ok := isa.OpcodeByName(s.Op)
	if !ok {
		return errf(s.Line, "unknown mnemonic %q", s.Op)
	}
	info := isa.InfoFor(op)
	switch info.Format {
	case isa.FmtNone:
		if len(args) != 0 {
			return errf(s.Line, "%s takes no operands", s.Op)
		}
		a.emit(template{line: s.Line, op: op})
		return nil
	case isa.FmtR:
		return a.instrR(s, op, info)
	case isa.FmtI:
		return a.instrI(s, op)
	case isa.FmtB:
		if len(args) != 3 || args[0].Kind != OpReg || args[1].Kind != OpReg {
			return errf(s.Line, "%s wants reg, reg, target", s.Op)
		}
		return a.branch(s, op, args[0].Reg, args[1].Reg, args[2])
	case isa.FmtJ:
		if len(args) != 1 {
			return errf(s.Line, "%s wants one target operand", s.Op)
		}
		switch args[0].Kind {
		case OpSym:
			a.emit(template{line: s.Line, op: op, sym: args[0].Text, symOff: args[0].Num, use: symAbs})
		case OpInt:
			if args[0].Num%isa.WordBytes != 0 {
				return errf(s.Line, "%s target %d not word aligned", s.Op, args[0].Num)
			}
			a.emit(template{line: s.Line, op: op, imm: args[0].Num / isa.WordBytes})
		default:
			return errf(s.Line, "%s wants label or address", s.Op)
		}
		return nil
	}
	return errf(s.Line, "unhandled format for %s", s.Op)
}

// regKinds returns the operand register-file kinds expected for an R-format op.
func regKinds(op isa.Opcode) (dst, src OpKind, unary bool) {
	switch op {
	case isa.OpFneg, isa.OpFabs, isa.OpFsqrt, isa.OpFsin, isa.OpFcos,
		isa.OpFatan, isa.OpFexp, isa.OpFlog, isa.OpFmov:
		return OpFreg, OpFreg, true
	case isa.OpFcvtIF:
		return OpFreg, OpReg, true
	case isa.OpFcvtFI:
		return OpReg, OpFreg, true
	case isa.OpFeq, isa.OpFlt, isa.OpFle:
		return OpReg, OpFreg, false
	case isa.OpFadd, isa.OpFsub, isa.OpFmul, isa.OpFdiv:
		return OpFreg, OpFreg, false
	}
	return OpReg, OpReg, false
}

func (a *Assembler) instrR(s *Stmt, op isa.Opcode, info isa.Info) error {
	args := s.Args()
	if op == isa.OpJr {
		if len(args) != 1 || args[0].Kind != OpReg {
			return errf(s.Line, "jr wants one integer register")
		}
		a.emit(template{line: s.Line, op: op, rs1: args[0].Reg})
		return nil
	}
	dstK, srcK, unary := regKinds(op)
	want := 3
	if unary {
		want = 2
	}
	if len(args) != want {
		return errf(s.Line, "%s wants %d operands, got %d", s.Op, want, len(args))
	}
	if args[0].Kind != dstK {
		return errf(s.Line, "%s destination must be %s register", s.Op, regKindName(dstK))
	}
	for _, arg := range args[1:] {
		if arg.Kind != srcK {
			return errf(s.Line, "%s sources must be %s registers", s.Op, regKindName(srcK))
		}
	}
	t := template{line: s.Line, op: op, rd: args[0].Reg, rs1: args[1].Reg}
	if !unary {
		t.rs2 = args[2].Reg
	}
	a.emit(t)
	return nil
}

func regKindName(k OpKind) string {
	if k == OpFreg {
		return "float"
	}
	return "integer"
}

func (a *Assembler) instrI(s *Stmt, op isa.Opcode) error {
	args := s.Args()
	switch op {
	case isa.OpLw, isa.OpLb, isa.OpLbu, isa.OpSw, isa.OpSb:
		if len(args) != 2 || args[0].Kind != OpReg || args[1].Kind != OpMem {
			return errf(s.Line, "%s wants reg, off(reg)", s.Op)
		}
		a.emit(template{line: s.Line, op: op, rd: args[0].Reg, rs1: args[1].Reg, imm: args[1].Num})
		return nil
	case isa.OpFld, isa.OpFst:
		if len(args) != 2 || args[0].Kind != OpFreg || args[1].Kind != OpMem {
			return errf(s.Line, "%s wants freg, off(reg)", s.Op)
		}
		a.emit(template{line: s.Line, op: op, rd: args[0].Reg, rs1: args[1].Reg, imm: args[1].Num})
		return nil
	case isa.OpLui:
		if len(args) != 2 || args[0].Kind != OpReg || args[1].Kind != OpInt {
			return errf(s.Line, "lui wants reg, imm")
		}
		a.emit(template{line: s.Line, op: op, rd: args[0].Reg, imm: args[1].Num})
		return nil
	}
	if len(args) != 3 || args[0].Kind != OpReg || args[1].Kind != OpReg || args[2].Kind != OpInt {
		return errf(s.Line, "%s wants reg, reg, imm", s.Op)
	}
	a.emit(template{line: s.Line, op: op, rd: args[0].Reg, rs1: args[1].Reg, imm: args[2].Num})
	return nil
}

func (a *Assembler) branch(s *Stmt, op isa.Opcode, rs1, rs2 uint8, target Operand) error {
	t := template{line: s.Line, op: op, rs1: rs1, rs2: rs2}
	switch target.Kind {
	case OpSym:
		t.sym, t.symOff, t.use = target.Text, target.Num, symBranch
	case OpInt:
		t.imm = target.Num
	default:
		return errf(s.Line, "%s wants label or offset target", s.Op)
	}
	a.emit(t)
	return nil
}

// Link resolves symbols, encodes the text, lays out data and builds the
// executable image from every statement added.
func (a *Assembler) Link() (*Executable, error) {
	textBytes := uint32(len(a.text)) * isa.WordBytes
	dataBase := textBytes
	if rem := dataBase % DataAlign; rem != 0 {
		dataBase += DataAlign - rem
	}

	symbols := make(map[string]uint32, len(a.textSyms)+len(a.dataSyms))
	for name, word := range a.textSyms {
		symbols[name] = word * isa.WordBytes
	}
	for name, off := range a.dataSyms {
		symbols[name] = dataBase + off
	}

	resolve := func(t template) (uint32, error) {
		addr, ok := symbols[t.sym]
		if !ok {
			return 0, errf(t.line, "undefined symbol %q", t.sym)
		}
		return uint32(int64(addr) + t.symOff), nil
	}

	exe := &Executable{
		Mem:       make([]byte, dataBase+a.dataSize),
		TextBytes: textBytes,
		Symbols:   symbols,
		Lines:     make(map[uint32]int, len(a.text)),
	}

	for i, t := range a.text {
		pc := uint32(i) * isa.WordBytes
		ins := isa.Instruction{Op: t.op, Rd: t.rd, Rs1: t.rs1, Rs2: t.rs2, Imm: int32(t.imm)}
		switch t.use {
		case symBranch:
			addr, err := resolve(t)
			if err != nil {
				return nil, err
			}
			delta := int64(addr) - int64(pc) - isa.WordBytes
			if delta%isa.WordBytes != 0 {
				return nil, errf(t.line, "misaligned branch target %q", t.sym)
			}
			ins.Imm = int32(delta / isa.WordBytes)
		case symAbs:
			addr, err := resolve(t)
			if err != nil {
				return nil, err
			}
			if addr%isa.WordBytes != 0 {
				return nil, errf(t.line, "misaligned jump target %q", t.sym)
			}
			ins.Imm = int32(addr / isa.WordBytes)
		case symHi:
			addr, err := resolve(t)
			if err != nil {
				return nil, err
			}
			ins.Imm = int32(int16(uint16(addr >> 16)))
		case symLo:
			addr, err := resolve(t)
			if err != nil {
				return nil, err
			}
			ins.Imm = int32(int16(uint16(addr & 0xffff)))
		}
		w, err := isa.Encode(ins)
		if err != nil {
			return nil, errf(t.line, "%v", err)
		}
		binary.LittleEndian.PutUint32(exe.Mem[pc:], w)
		exe.Lines[pc] = t.line
	}

	for _, d := range a.data {
		addr := dataBase + d.off
		if d.sym != "" {
			target, ok := symbols[d.sym]
			if !ok {
				return nil, errf(d.line, "undefined symbol %q in .word", d.sym)
			}
			binary.LittleEndian.PutUint32(exe.Mem[addr:], uint32(int64(target)+d.symOff))
			continue
		}
		copy(exe.Mem[addr:], d.bytes)
	}

	// Function symbols: text labels not beginning with '.'.
	for name, word := range a.textSyms {
		if name[0] == '.' {
			continue
		}
		exe.Functions = append(exe.Functions, Symbol{Name: name, Addr: word * isa.WordBytes, Func: true})
	}
	sort.Slice(exe.Functions, func(i, j int) bool { return exe.Functions[i].Addr < exe.Functions[j].Addr })
	for i := range exe.Functions {
		end := textBytes
		if i+1 < len(exe.Functions) {
			end = exe.Functions[i+1].Addr
		}
		exe.Functions[i].Size = end - exe.Functions[i].Addr
	}
	if len(exe.Functions) == 0 && textBytes > 0 {
		return nil, fmt.Errorf("asm: no function labels in text segment")
	}
	// Entry preference: a _start stub (emitted by the MC compiler), then
	// main, then the first text symbol.
	if start, ok := symbols["_start"]; ok {
		exe.Entry = start
	} else if main, ok := symbols["main"]; ok {
		exe.Entry = main
	} else if len(exe.Functions) > 0 {
		exe.Entry = exe.Functions[0].Addr
	}
	return exe, nil
}
