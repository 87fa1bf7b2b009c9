package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"cinderella/internal/bench"
)

// The generator emits only inputs — program texts, annotation texts, and
// the order requests are sent in — all derived from the workload seed. The
// analysis never sees the seed.

// program is one analysed program text: MC source or CR32 assembly.
type program struct {
	name   string
	source string
	asm    string
	root   string
}

// scenario is one analysis request: a program, an annotation text, and for
// parametric point queries the parameter values. ref is the referee's
// answer, filled in during set-up before anything is timed.
type scenario struct {
	class  string // latency class: the program name, or "formula"
	prog   *program
	annots string
	params map[string]int64
	ref    bounds
}

// bounds is an answer [BCET, WCET] in cycles.
type bounds struct{ bcet, wcet int64 }

func (b bounds) String() string { return fmt.Sprintf("[%d, %d]", b.bcet, b.wcet) }

// tableI returns the thirteen Table I programs with their paper
// annotations, in Table I order.
func tableI() []*scenario {
	var out []*scenario
	for _, b := range bench.All() {
		p := &program{name: b.Name, source: b.Source, root: b.Root}
		out = append(out, &scenario{class: b.Name, prog: p, annots: b.Annotations})
	}
	return out
}

// tableIByName returns the named Table I scenarios, in the order given.
func tableIByName(names ...string) []*scenario {
	all := map[string]*scenario{}
	for _, sc := range tableI() {
		all[sc.class] = sc
	}
	out := make([]*scenario, len(names))
	for i, n := range names {
		out[i] = all[n]
	}
	return out
}

// chainProgram is the path-explosion chain of len(layout) diamonds: diamond
// i is the block pair x(3i+2) (fall-through arm) and x(3i+3) (taken arm),
// and layout[i] says which arm carries the expensive multiply — 'm' the
// fall-through arm, as in bench.ExplosionAsm, 'a' the taken arm. Layouts
// change the program text and costs, never the block numbering. An empty
// suffix names the all-'m' chain.
func chainProgram(layout string) *program {
	var sb strings.Builder
	sb.WriteString("main:\n")
	for i := range layout {
		fall, taken := "mul r2, r2, r2", "addi r2, r2, 1"
		if layout[i] == 'a' {
			fall, taken = taken, fall
		}
		fmt.Fprintf(&sb, "        beq r1, r0, .La%d\n", i)
		fmt.Fprintf(&sb, "        %s\n", fall)
		fmt.Fprintf(&sb, "        jmp .Lb%d\n", i)
		fmt.Fprintf(&sb, ".La%d:  %s\n", i, taken)
		fmt.Fprintf(&sb, ".Lb%d:  addi r3, r3, 1\n", i)
	}
	sb.WriteString("        halt\n")
	name := fmt.Sprintf("chain%d", 1<<len(layout))
	if strings.Contains(layout, "a") {
		name += "." + layout
	}
	return &program{name: name, asm: sb.String(), root: "main"}
}

// seededLayout draws an n-diamond arm layout.
func seededLayout(n int, rng *rand.Rand) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = "ma"[rng.Intn(2)]
	}
	return string(b)
}

// Diamond annotation modes: a free diamond carries no fact, a disjunctive
// one the exclusive-arm formula that doubles the constraint sets, and a
// pinned one a path fact forcing one arm.
const (
	diamondFree = 'f'
	diamondDisj = 'd'
	diamondPinF = 'F' // fall-through arm never runs
	diamondPinT = 'T' // taken arm never runs
)

// chainAnnots writes the annotation text of a chain for per-diamond modes.
func chainAnnots(modes string) string {
	var ab strings.Builder
	ab.WriteString("func main {\n")
	for i, m := range modes {
		a, b := 3*i+2, 3*i+3
		switch m {
		case diamondDisj:
			fmt.Fprintf(&ab, "    (x%d = 1 & x%d = 0) | (x%d = 0 & x%d = 1)\n", a, b, a, b)
		case diamondPinF:
			fmt.Fprintf(&ab, "    x%d = 0\n", a)
		case diamondPinT:
			fmt.Fprintf(&ab, "    x%d = 0\n", b)
		}
	}
	ab.WriteString("}\n")
	return ab.String()
}

// allDisjunctive is the mode string of a fully constrained n-diamond chain:
// 2^n constraint sets.
func allDisjunctive(n int) string { return strings.Repeat(string(rune(diamondDisj)), n) }

// chainScenario is the fully constrained n-diamond chain: 2^n sets. Its
// layout is fixed, so every seed does the same work.
func chainScenario(n int) *scenario {
	p := chainProgram(strings.Repeat("m", n))
	return &scenario{class: p.name, prog: p, annots: chainAnnots(allDisjunctive(n))}
}

var loopLine = regexp.MustCompile(`^(\s*loop (\d+): )(\d+) \.\. (\d+)(.*)$`)

// firstRootLoop finds the first loop-bound line of the root function's
// annotation section: its index and the loopLine submatches (nil when the
// section has none).
func firstRootLoop(lines []string, root string) (int, []string) {
	fn := ""
	for i, line := range lines {
		t := strings.TrimSpace(line)
		if strings.HasPrefix(t, "func ") {
			fn = strings.TrimSpace(strings.TrimSuffix(strings.TrimPrefix(t, "func "), "{"))
			continue
		}
		if m := loopLine.FindStringSubmatch(line); m != nil && fn == root {
			return i, m
		}
	}
	return -1, nil
}

// rootLoopBound returns the upper bound of the root function's first
// annotated loop.
func rootLoopBound(annots, root string) (int64, bool) {
	_, m := firstRootLoop(strings.Split(annots, "\n"), root)
	if m == nil {
		return 0, false
	}
	hi, err := strconv.ParseInt(m[4], 10, 64)
	return hi, err == nil
}

// loopVariant rewrites the root function's first loop bound: its upper
// bound becomes hi, and so does its lower bound when the annotation pins
// the count exactly.
func loopVariant(annots, root string, hi int64) (string, bool) {
	lines := strings.Split(annots, "\n")
	i, m := firstRootLoop(lines, root)
	if m == nil {
		return annots, false
	}
	lo := m[3]
	if m[3] == m[4] {
		lo = strconv.FormatInt(hi, 10)
	}
	lines[i] = fmt.Sprintf("%s%s .. %d%s", m[1], lo, hi, m[5])
	return strings.Join(lines, "\n"), true
}

// digest names the generated inputs and their order: every program text,
// annotation text, and parameter point, in request order.
func digest(order []*scenario) string {
	h := sha256.New()
	for _, sc := range order {
		fmt.Fprintf(h, "%s|%s|%d|%s|%d|%s|%d|%s|", sc.class, sc.prog.root,
			len(sc.prog.source), sc.prog.source, len(sc.prog.asm), sc.prog.asm,
			len(sc.annots), sc.annots)
		names := make([]string, 0, len(sc.params))
		for n := range sc.params {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(h, "%s=%d|", n, sc.params[n])
		}
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// shuffled returns a seeded permutation of xs.
func shuffled(xs []*scenario, rng *rand.Rand) []*scenario {
	out := append([]*scenario(nil), xs...)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}
