package cc

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"cinderella/internal/progfuzz"
	"cinderella/internal/sim"
)

// runOptimized compiles with the peephole pass and runs on the simulator.
func runOptimized(t *testing.T, src, fn string, args ...int32) (int32, uint64) {
	t.Helper()
	exe, _, err := BuildOptimized(src)
	if err != nil {
		t.Fatalf("BuildOptimized: %v", err)
	}
	m, err := sim.New(exe, sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	rv, err := m.CallNamed(fn, args...)
	if err != nil {
		t.Fatal(err)
	}
	return rv, m.Steps()
}

func TestOptimizerPreservesSemantics(t *testing.T) {
	src := `
int g;
int a[8];
int main() { return 0; }
int f(int x, int y) {
    int i, s;
    s = x * 3 + y;
    for (i = 0; i < 8; i++) {
        a[i] = s - i * 2;
        s += a[i] & 15;
    }
    g = s / ((y & 7) + 1);
    return g + a[3];
}`
	for _, args := range [][2]int32{{1, 2}, {-50, 999}, {1 << 20, -3}} {
		exe, prog, err := Build(src)
		if err != nil {
			t.Fatal(err)
		}
		_ = exe
		ip, _ := NewInterp(prog)
		want, err := ip.Call("f", args[0], args[1])
		if err != nil {
			t.Fatal(err)
		}
		got, _ := runOptimized(t, src, "f", args[0], args[1])
		if got != want {
			t.Fatalf("f(%v) optimized = %d, interp = %d", args, got, want)
		}
	}
}

func TestOptimizerShrinksPrograms(t *testing.T) {
	src := `
int main() { return 0; }
int f(int x) {
    return x * 3 + x * 5 + x * 7 + (x + 1) * (x + 2);
}`
	plain, _, err := Build(src)
	if err != nil {
		t.Fatal(err)
	}
	opt, _, err := BuildOptimized(src)
	if err != nil {
		t.Fatal(err)
	}
	if opt.TextBytes >= plain.TextBytes {
		t.Fatalf("optimizer did not shrink text: %d vs %d bytes", opt.TextBytes, plain.TextBytes)
	}
	// And the optimized code runs faster.
	mp, _ := sim.New(plain, sim.Config{})
	rvP, err := mp.CallNamed("f", 9)
	if err != nil {
		t.Fatal(err)
	}
	mo, _ := sim.New(opt, sim.Config{})
	rvO, err := mo.CallNamed("f", 9)
	if err != nil {
		t.Fatal(err)
	}
	if rvP != rvO {
		t.Fatalf("results differ: %d vs %d", rvP, rvO)
	}
	if mo.Cycles() >= mp.Cycles() {
		t.Fatalf("optimized not faster: %d vs %d cycles", mo.Cycles(), mp.Cycles())
	}
}

// TestOptimizerDifferentialFuzz runs the random-program fuzzer against the
// optimizing build: results and global state must match the interpreter on
// every seed.
func TestOptimizerDifferentialFuzz(t *testing.T) {
	trials := 80
	if testing.Short() {
		trials = 15
	}
	for seed := int64(500); seed < 500+int64(trials); seed++ {
		src := progfuzz.Generate(seed)
		exe, prog, err := BuildOptimized(src)
		if err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, src)
		}
		for _, args := range [][2]int32{{3, -4}, {-1000, 77}} {
			m, err := sim.New(exe, sim.Config{})
			if err != nil {
				t.Fatal(err)
			}
			got, err := m.CallNamed("f", args[0], args[1])
			if err != nil {
				t.Fatalf("seed %d: sim: %v\n%s", seed, err, src)
			}
			ip, _ := NewInterp(prog)
			want, err := ip.Call("f", args[0], args[1])
			if err != nil {
				t.Fatalf("seed %d: interp: %v", seed, err)
			}
			if got != want {
				t.Fatalf("seed %d args %v: optimized sim=%d interp=%d\n%s", seed, args, got, want, src)
			}
			wantGlob, _ := ip.GlobalInts("glob")
			gotGlob, err := m.ReadWord(exe.Symbols["g_glob"])
			if err != nil {
				t.Fatal(err)
			}
			if gotGlob != wantGlob[0] {
				t.Fatalf("seed %d: glob optimized=%d interp=%d\n%s", seed, gotGlob, wantGlob[0], src)
			}
		}
	}
}

func TestMentionsReg(t *testing.T) {
	cases := []struct {
		line, reg string
		want      bool
	}{
		{"        add r3, r2, r0", "r3", true},
		{"        add r13, r2, r0", "r3", false},
		{"        lw r2, -16(r13)", "r3", false},
		{"        fmov f3, f2", "f3", true},
		{"        li r2, 33", "r3", false},
		{"        add r2, r3, r0", "r3", true},
	}
	for _, c := range cases {
		if got := mentionsReg(c.line, c.reg); got != c.want {
			t.Errorf("mentionsReg(%q, %q) = %v", c.line, c.reg, got)
		}
	}
}

// TestEdgeSourceTextGolden pins the assembly text of the first front-end
// edge source, plain and peephole-optimized, to SHA-256 digests recorded
// when the compiler printed text and the peephole matched lines. Its
// middles load g_wasp, a symbol containing "sp" that blocks a match, so a
// peephole that tested operands instead of their printed text would
// change the optimized digest.
func TestEdgeSourceTextGolden(t *testing.T) {
	text, err := Compile(frontEndEdgeSources[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ name, text, want string }{
		{"Generate", text, "9e3527c395e6f192cb33ef047005745302b4c3048fc849659f1ad5cd698442d8"},
		{"Optimize", Optimize(text), "9071803c123cfa2e3f63776d8b944fdf9cfb56d1e72ccd195df143a08fe27df4"},
	} {
		sum := sha256.Sum256([]byte(c.text))
		if got := hex.EncodeToString(sum[:]); got != c.want {
			t.Errorf("%s digest %s, want %s", c.name, got, c.want)
		}
	}
}
