package bench

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"cinderella/internal/asm"
	"cinderella/internal/cfg"
	"cinderella/internal/constraint"
	"cinderella/internal/ipet"
)

// chainVariantGolden is the SHA-256 of every report chainVariantReports
// produces. The scenarios are chains of 5 to 8 diamonds with non-uniform
// arm layouts, all diamonds disjunctive except two that are free or pinned
// to one arm, estimated on one prepared session per chain: the shape whose
// winners often have several optimal count vectors and so take the cold
// re-solve in finishDir.
const chainVariantGolden = "c1d4782b43ac602c679e00f08ab3a0c6510c80729e159bf2e0a3d76cc8dc9ddc"

// layoutChainAsm is ExplosionAsm's chain with a per-diamond arm layout:
// layout[i] 'm' puts the multiply on diamond i's fall-through arm, 'a' on
// its taken arm. The block numbering is the same for every layout.
func layoutChainAsm(layout string) string {
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
	return sb.String()
}

// chainModeAnnots writes a chain's annotations per diamond: 'd' the
// exclusive-arm disjunction, 'F' the fall-through arm pinned off, 'T' the
// taken arm pinned off, 'f' no fact.
func chainModeAnnots(modes string) string {
	var ab strings.Builder
	ab.WriteString("func main {\n")
	for i, m := range modes {
		a, b := 3*i+2, 3*i+3
		switch m {
		case 'd':
			fmt.Fprintf(&ab, "    (x%d = 1 & x%d = 0) | (x%d = 0 & x%d = 1)\n", a, b, a, b)
		case 'F':
			fmt.Fprintf(&ab, "    x%d = 0\n", a)
		case 'T':
			fmt.Fprintf(&ab, "    x%d = 0\n", b)
		}
	}
	ab.WriteString("}\n")
	return ab.String()
}

// chainVariant is one golden scenario: a chain's arm layout and its
// per-diamond annotation modes.
type chainVariant struct{ layout, modes string }

// chainVariants draws the golden scenarios, in estimate order: two seeded
// layouts per chain size, eight distinct mode strings per layout.
func chainVariants() []chainVariant {
	rng := rand.New(rand.NewSource(21))
	var out []chainVariant
	for n := 5; n <= 8; n++ {
		for c := 0; c < 2; c++ {
			layout := make([]byte, n)
			for i := range layout {
				layout[i] = "ma"[rng.Intn(2)]
			}
			seen := map[string]bool{}
			for len(seen) < 8 {
				modes := []byte(strings.Repeat("d", n))
				for _, i := range rng.Perm(n)[:2] {
					modes[i] = "fFT"[rng.Intn(3)]
				}
				if !seen[string(modes)] {
					seen[string(modes)] = true
					out = append(out, chainVariant{string(layout), string(modes)})
				}
			}
		}
	}
	return out
}

// chainVariantReports estimates the golden scenarios at the given worker
// count, each chain's variants in order on one prepared session, and
// returns one line per scenario: layout, modes, and both bound reports.
func chainVariantReports(t *testing.T, workers int) []string {
	t.Helper()
	opts := ipet.DefaultOptions()
	opts.Workers = workers
	var lines []string
	var sess *ipet.Session
	layout := ""
	for _, v := range chainVariants() {
		if v.layout != layout {
			layout = v.layout
			exe, err := asm.Assemble(layoutChainAsm(layout))
			if err != nil {
				t.Fatal(err)
			}
			prog, err := cfg.Build(exe)
			if err != nil {
				t.Fatal(err)
			}
			if sess, err = ipet.Prepare(prog, "main", opts); err != nil {
				t.Fatal(err)
			}
		}
		file, err := constraint.Parse(chainModeAnnots(v.modes))
		if err != nil {
			t.Fatal(err)
		}
		est, err := sess.Estimate(file)
		if err != nil {
			t.Fatalf("%s %s: %v", v.layout, v.modes, err)
		}
		lines = append(lines, fmt.Sprintf("%s %s WCET %+v BCET %+v", v.layout, v.modes, est.WCET, est.BCET))
	}
	return lines
}

// TestChainVariantReportsGolden pins the reports of the chain scenarios at
// one and at four workers.
func TestChainVariantReportsGolden(t *testing.T) {
	for _, workers := range []int{1, 4} {
		lines := chainVariantReports(t, workers)
		sum := sha256.Sum256([]byte(strings.Join(lines, "\n")))
		if got := hex.EncodeToString(sum[:]); got != chainVariantGolden {
			t.Errorf("workers=%d: chain variant reports digest %s, want %s\n%s",
				workers, got, chainVariantGolden, strings.Join(lines, "\n"))
		}
	}
}
