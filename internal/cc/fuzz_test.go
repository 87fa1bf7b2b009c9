package cc

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"cinderella/internal/asm"
	"cinderella/internal/progfuzz"
	"cinderella/internal/sim"
)

// A random-program differential fuzzer: generated MC programs (package
// progfuzz) are executed both by the compiled code on the simulator and by
// the reference interpreter; results and global state must agree exactly.

func TestCompilerDifferentialFuzz(t *testing.T) {
	trials := 120
	if testing.Short() {
		trials = 20
	}
	for seed := int64(0); seed < int64(trials); seed++ {
		src := progfuzz.Generate(seed)
		exe, prog, err := Build(src)
		if err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, src)
		}
		if g := mustLoopID(src); g > 10 {
			t.Fatalf("seed %d: generator used %d loop variables", seed, g)
		}
		for _, args := range [][2]int32{{0, 0}, {13, -7}, {-999, 4095}, {1 << 20, -(1 << 18)}} {
			m, err := sim.New(exe, sim.Config{})
			if err != nil {
				t.Fatal(err)
			}
			got, err := m.CallNamed("f", args[0], args[1])
			if err != nil {
				t.Fatalf("seed %d args %v: sim: %v\n%s", seed, args, err, src)
			}
			ip, err := NewInterp(prog)
			if err != nil {
				t.Fatal(err)
			}
			want, err := ip.Call("f", args[0], args[1])
			if err != nil {
				t.Fatalf("seed %d args %v: interp: %v\n%s", seed, args, err, src)
			}
			if got != want {
				t.Fatalf("seed %d args %v: sim=%d interp=%d\n%s", seed, args, got, want, src)
			}
			// Global state must agree too.
			wantGlob, err := ip.GlobalInts("glob")
			if err != nil {
				t.Fatal(err)
			}
			gotGlob, err := m.ReadWord(exe.Symbols["g_glob"])
			if err != nil {
				t.Fatal(err)
			}
			if gotGlob != wantGlob[0] {
				t.Fatalf("seed %d args %v: glob sim=%d interp=%d\n%s", seed, args, gotGlob, wantGlob[0], src)
			}
			wantArr, _ := ip.GlobalInts("arr")
			for i := 0; i < 8; i++ {
				gotV, err := m.ReadWord(exe.Symbols["g_arr"] + uint32(4*i))
				if err != nil {
					t.Fatal(err)
				}
				if gotV != wantArr[i] {
					t.Fatalf("seed %d args %v: arr[%d] sim=%d interp=%d\n%s",
						seed, args, i, gotV, wantArr[i], src)
				}
			}
		}
	}
}

func mustLoopID(src string) int {
	max := 0
	for i := 1; i <= 12; i++ {
		if strings.Contains(src, fmt.Sprintf("it%d =", i)) ||
			strings.Contains(src, fmt.Sprintf("for (it%d", i)) {
			max = i
		}
	}
	return max
}

// The front-end differential: Build hands code generation's statements
// straight to the assembler backend, and BuildOptimized runs the peephole
// on them a run at a time. Both must produce exactly the image the text
// path produces, which renders the statements (Generate, then Optimize on
// the whole text) and assembles them back (asm.Assemble).

// buildViaText is the text path: print the assembly, optimize the text
// when asked, and assemble it.
func buildViaText(src string, optimized bool) (*asm.Executable, error) {
	text, err := Compile(src)
	if err != nil {
		return nil, err
	}
	if optimized {
		text = Optimize(text)
	}
	return asm.Assemble(text)
}

// checkBuildMatchesText requires the direct build of src to equal the text
// path's image, or both to fail (with the same error, unoptimized).
func checkBuildMatchesText(t *testing.T, src string, optimized bool) {
	t.Helper()
	build := Build
	if optimized {
		build = BuildOptimized
	}
	got, _, err := build(src)
	want, wantErr := buildViaText(src, optimized)
	switch {
	case (err == nil) != (wantErr == nil):
		t.Fatalf("optimized=%v: direct build error %v, text path error %v\n%s", optimized, err, wantErr, src)
	case err != nil && !optimized && err.Error() != wantErr.Error():
		t.Fatalf("direct build error %q, text path error %q\n%s", err, wantErr, src)
	case err == nil && !reflect.DeepEqual(got, want):
		t.Fatalf("optimized=%v: direct build image differs from the text path's\n%s", optimized, src)
	}
}

// frontEndEdgeSources exercise what the random programs do not: float data
// in both of codegen's spellings (scalars print with %v, so 3.0 as "3" and
// -0.0 as "-0"; arrays and constants with floatForm), values the assembler
// rejects (an infinite array element, a NaN scalar), and globals whose
// symbols contain "sp" or a register name, which the peephole's text
// checks see.
var frontEndEdgeSources = []string{
	`float a = -0.0;
float b = 3.0;
float c = 1e21;
float e[5] = {1.0, -0.0, 1e-7, 2.5};
int wasp;
int r3;
int main() { return 0; }
int f(int x, int y) {
    float z;
    z = 0.1;
    z = z * 1e21 + b;
    wasp = x + r3 * 2 + wasp;
    r3 = y - (wasp + 1);
    e[x & 3] = z + e[y & 3];
    return wasp + r3;
}`,
	"float inf = 1e300 * 1e300;\nint main() { return 0; }",
	"float arr[2] = {1e300 * 1e300, 1.0};\nint main() { return 0; }",
	"float nan = 1e300 * 1e300 - 1e300 * 1e300;\nint main() { return 0; }",
}

// TestBuildMatchesTextPath replays the random programs the differential
// fuzzers use (seeds 0-119 plain, 500-579 optimized) and the edge sources,
// both ways.
func TestBuildMatchesTextPath(t *testing.T) {
	for seed := int64(0); seed < 120; seed++ {
		checkBuildMatchesText(t, progfuzz.Generate(seed), false)
	}
	for seed := int64(500); seed < 580; seed++ {
		checkBuildMatchesText(t, progfuzz.Generate(seed), true)
	}
	for _, src := range frontEndEdgeSources {
		checkBuildMatchesText(t, src, false)
		checkBuildMatchesText(t, src, true)
	}
}

// FuzzBuildMatchesText runs the front-end differential on the random
// program of any seed, plain or optimized.
func FuzzBuildMatchesText(f *testing.F) {
	f.Add(int64(0), false)
	f.Add(int64(500), true)
	f.Fuzz(func(t *testing.T, seed int64, optimized bool) {
		checkBuildMatchesText(t, progfuzz.Generate(seed), optimized)
	})
}
