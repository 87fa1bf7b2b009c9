package prepcache

// Binary payload codec for the persistent artifact store. Every artifact
// kind encodes to a flat little-endian byte string with no pointers and no
// reflection: encoding is deterministic (the same artifact always produces
// the same bytes, so checksums and content comparisons are meaningful) and
// decoding is fully bounds-checked, because a payload that passed the
// checksum can still be version-skewed and must fail cleanly, never panic.

import (
	"encoding/binary"
	"math"
	"sort"

	"cinderella/internal/asm"
	"cinderella/internal/cfg"
	"cinderella/internal/ilp"
	"cinderella/internal/march"
)

// maxDecodeLen caps any single length field a decoder will honor. Payloads
// are checksummed before decoding, so this is a guard against version skew
// producing absurd allocations, not a security boundary.
const maxDecodeLen = 1 << 24

type enc struct{ b []byte }

func (e *enc) u8(v byte) { e.b = append(e.b, v) }
func (e *enc) u32(v uint32) {
	var w [4]byte
	binary.LittleEndian.PutUint32(w[:], v)
	e.b = append(e.b, w[:]...)
}
func (e *enc) i32(v int)     { e.u32(uint32(int32(v))) }
func (e *enc) i64(v int64)   { e.u32(uint32(v)); e.u32(uint32(v >> 32)) }
func (e *enc) f64(v float64) { e.i64(int64(math.Float64bits(v))) }
func (e *enc) str(s string) {
	e.u32(uint32(len(s)))
	e.b = append(e.b, s...)
}
func (e *enc) ints(v []int) {
	e.u32(uint32(len(v)))
	for _, x := range v {
		e.i32(x)
	}
}

type dec struct {
	b   []byte
	off int
	bad bool
}

func (d *dec) fail() {
	d.bad = true
	d.off = len(d.b)
}

func (d *dec) u8() byte {
	if d.off+1 > len(d.b) {
		d.fail()
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}

func (d *dec) u32() uint32 {
	if d.off+4 > len(d.b) {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(d.b[d.off:])
	d.off += 4
	return v
}

func (d *dec) i32() int   { return int(int32(d.u32())) }
func (d *dec) i64() int64 { lo := uint64(d.u32()); return int64(lo | uint64(d.u32())<<32) }
func (d *dec) f64() float64 {
	return math.Float64frombits(uint64(d.i64()))
}

// length reads a count field, failing the decode when it cannot possibly
// fit in the remaining payload (each element takes at least min bytes).
func (d *dec) length(min int) int {
	n := int(d.u32())
	if n < 0 || n > maxDecodeLen || (min > 0 && n > (len(d.b)-d.off)/min+1) {
		d.fail()
		return 0
	}
	return n
}

func (d *dec) str() string {
	n := d.length(1)
	if d.off+n > len(d.b) {
		d.fail()
		return ""
	}
	s := string(d.b[d.off : d.off+n])
	d.off += n
	return s
}

func (d *dec) ints() []int {
	n := d.length(4)
	if d.bad || n == 0 {
		return nil
	}
	out := make([]int, n)
	for i := range out {
		out[i] = d.i32()
	}
	return out
}

// done reports a clean decode: no failure and no trailing garbage.
func (d *dec) done() bool { return !d.bad && d.off == len(d.b) }

// encodeFuncProto flattens a CFG prototype in position-independent form:
// block byte ranges are rewritten relative to the prototype's start, so
// the decoded proto rebases from zero exactly like a freshly built one.
// Instructions and source lines are deliberately absent — instantiate
// re-derives both from the presenting program.
func encodeFuncProto(p *funcProto) []byte {
	fc := p.fc
	e := &enc{b: make([]byte, 0, 64+32*len(fc.Blocks)+24*len(fc.Edges))}
	e.str(fc.Name)
	e.u32(uint32(len(fc.Blocks)))
	for _, b := range fc.Blocks {
		e.u32(b.Start - p.start)
		e.u32(b.End - p.start)
		e.ints(b.In)
		e.ints(b.Out)
	}
	e.u32(uint32(len(fc.Edges)))
	for _, ed := range fc.Edges {
		e.i32(ed.ID)
		e.u8(byte(ed.Kind))
		e.i32(ed.From)
		e.i32(ed.To)
		e.str(ed.Callee)
	}
	e.i32(fc.EntryEdge)
	e.u32(uint32(len(fc.Loops)))
	for i := range fc.Loops {
		l := &fc.Loops[i]
		e.i32(l.Header)
		e.ints(l.Blocks)
		e.ints(l.EntryEdges)
		e.ints(l.BackEdges)
	}
	e.ints(fc.Calls)
	e.ints(fc.IDom)
	return e.b
}

func decodeFuncProto(payload []byte) (*funcProto, bool) {
	d := &dec{b: payload}
	fc := &cfg.FuncCFG{Name: d.str()}
	nb := d.length(12)
	fc.Blocks = make([]*cfg.Block, 0, nb)
	for i := 0; i < nb && !d.bad; i++ {
		b := &cfg.Block{Index: i}
		b.Start = d.u32()
		b.End = d.u32()
		b.In = d.ints()
		b.Out = d.ints()
		fc.Blocks = append(fc.Blocks, b)
	}
	ne := d.length(17)
	fc.Edges = make([]*cfg.Edge, 0, ne)
	for i := 0; i < ne && !d.bad; i++ {
		ed := &cfg.Edge{}
		ed.ID = d.i32()
		ed.Kind = cfg.EdgeKind(d.u8())
		ed.From = d.i32()
		ed.To = d.i32()
		ed.Callee = d.str()
		fc.Edges = append(fc.Edges, ed)
	}
	fc.EntryEdge = d.i32()
	nl := d.length(16)
	if nl > 0 {
		// Keep a loop-free function's Loops nil, matching cfg.BuildFunc, so
		// restored CFGs are DeepEqual to built ones.
		fc.Loops = make([]cfg.Loop, 0, nl)
	}
	for i := 0; i < nl && !d.bad; i++ {
		var l cfg.Loop
		l.Header = d.i32()
		l.Blocks = d.ints()
		l.EntryEdges = d.ints()
		l.BackEdges = d.ints()
		fc.Loops = append(fc.Loops, l)
	}
	fc.Calls = d.ints()
	fc.IDom = d.ints()
	if !d.done() || len(fc.IDom) != len(fc.Blocks) {
		return nil, false
	}
	return &funcProto{start: 0, fc: fc, bytes: protoBytes(fc)}, true
}

// encodeExe flattens a built executable image. Map entries are written in
// sorted order so the encoding — and therefore the checksum — is a pure
// function of the image content.
func encodeExe(exe *asm.Executable) []byte {
	e := &enc{b: make([]byte, 0, 64+len(exe.Mem)+32*len(exe.Symbols)+8*len(exe.Lines))}
	e.u32(uint32(len(exe.Mem)))
	e.b = append(e.b, exe.Mem...)
	e.u32(exe.TextBytes)
	e.u32(exe.Entry)
	names := make([]string, 0, len(exe.Symbols))
	for n := range exe.Symbols {
		names = append(names, n)
	}
	sort.Strings(names)
	e.u32(uint32(len(names)))
	for _, n := range names {
		e.str(n)
		e.u32(exe.Symbols[n])
	}
	e.u32(uint32(len(exe.Functions)))
	for _, f := range exe.Functions {
		e.str(f.Name)
		e.u32(f.Addr)
		if f.Func {
			e.u8(1)
		} else {
			e.u8(0)
		}
		e.u32(f.Size)
	}
	addrs := make([]uint32, 0, len(exe.Lines))
	for a := range exe.Lines {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	e.u32(uint32(len(addrs)))
	for _, a := range addrs {
		e.u32(a)
		e.i32(exe.Lines[a])
	}
	return e.b
}

func decodeExe(payload []byte) (*asm.Executable, bool) {
	d := &dec{b: payload}
	nm := d.length(1)
	if d.off+nm > len(d.b) {
		return nil, false
	}
	exe := &asm.Executable{Mem: append([]byte(nil), d.b[d.off:d.off+nm]...)}
	d.off += nm
	exe.TextBytes = d.u32()
	exe.Entry = d.u32()
	ns := d.length(9)
	exe.Symbols = make(map[string]uint32, ns)
	for i := 0; i < ns && !d.bad; i++ {
		n := d.str()
		exe.Symbols[n] = d.u32()
	}
	nf := d.length(13)
	exe.Functions = make([]asm.Symbol, 0, nf)
	for i := 0; i < nf && !d.bad; i++ {
		var f asm.Symbol
		f.Name = d.str()
		f.Addr = d.u32()
		f.Func = d.u8() != 0
		f.Size = d.u32()
		exe.Functions = append(exe.Functions, f)
	}
	nl := d.length(8)
	exe.Lines = make(map[uint32]int, nl)
	for i := 0; i < nl && !d.bad; i++ {
		a := d.u32()
		exe.Lines[a] = d.i32()
	}
	if !d.done() || int(exe.TextBytes) > len(exe.Mem) {
		return nil, false
	}
	return exe, true
}

func encodeCosts(costs []march.BlockCost) []byte {
	e := &enc{b: make([]byte, 0, 4+24*len(costs))}
	e.u32(uint32(len(costs)))
	for i := range costs {
		e.i64(costs[i].Best)
		e.i64(costs[i].Worst)
		e.i64(costs[i].WorstSteady)
	}
	return e.b
}

func decodeCosts(payload []byte) ([]march.BlockCost, bool) {
	d := &dec{b: payload}
	n := d.length(24)
	out := make([]march.BlockCost, 0, n)
	for i := 0; i < n && !d.bad; i++ {
		out = append(out, march.BlockCost{
			Best:        d.i64(),
			Worst:       d.i64(),
			WorstSteady: d.i64(),
		})
	}
	if !d.done() {
		return nil, false
	}
	return out, true
}

func encodeRows(t *RowTemplate) []byte {
	e := &enc{b: make([]byte, 0, 12+len(t.Rows)*16+t.NNZ*12)}
	e.u32(uint32(t.NB))
	e.u32(uint32(t.NE))
	e.u32(uint32(len(t.Rows)))
	for i := range t.Rows {
		r := &t.Rows[i]
		e.u8(byte(r.Rel))
		e.f64(r.RHS)
		e.u32(uint32(len(r.Cols)))
		for _, c := range r.Cols {
			e.u32(uint32(c))
		}
		for _, v := range r.Vals {
			e.f64(v)
		}
	}
	return e.b
}

func decodeRows(payload []byte) (*RowTemplate, bool) {
	d := &dec{b: payload}
	t := &RowTemplate{}
	t.NB = int(d.u32())
	t.NE = int(d.u32())
	nr := d.length(13)
	t.Rows = make([]ilp.PackedRow, 0, nr)
	for i := 0; i < nr && !d.bad; i++ {
		var r ilp.PackedRow
		r.Rel = ilp.Relation(d.u8())
		r.RHS = d.f64()
		nnz := d.length(12)
		if d.bad {
			break
		}
		r.Cols = make([]int32, nnz)
		for j := range r.Cols {
			r.Cols[j] = int32(d.u32())
		}
		r.Vals = make([]float64, nnz)
		for j := range r.Vals {
			r.Vals[j] = d.f64()
		}
		t.NNZ += nnz
		t.Rows = append(t.Rows, r)
	}
	if !d.done() || t.NB < 0 || t.NE < 0 || t.NB > maxDecodeLen || t.NE > maxDecodeLen {
		return nil, false
	}
	return t, true
}
