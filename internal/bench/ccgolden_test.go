package bench

import (
	"crypto/sha256"
	"encoding/hex"
	"reflect"
	"testing"

	"cinderella/internal/asm"
	"cinderella/internal/cc"
)

// ccGolden pins the SHA-256 of the compiler's assembly text for every
// Table I program: cc.Compile's output and its peephole-optimized form
// (cc.Optimize, what `ccg -O` prints). The text's line numbers are the
// ones Executable.Lines maps instructions to and `-list` prints, so any
// change to code generation, rendering or the peephole changes a digest.
var ccGolden = map[string][2]string{
	"check_data":      {"726bb9d95bfb2dfd71863705749e5d92ffb3b19c549644f6083d59eb8281b9b7", "aa457a11f98fed284450910af4864e2c941a7431a8537329bdd949d8aeac967a"},
	"fft":             {"c17b6e0b93b9a361996c6383cc238c968580aad3c48bc13d74677e957b2e8407", "65530531cbd6f3ee5d456e4ecee73801b6d379d5fc0672bd6fdd574872ef91b6"},
	"piksrt":          {"1fe2e5ad566109f58fa714f5efdf92fa28dbda749a1f1540f7cffef95122a9f1", "bd66310cc8b23c593f4dd7aa88bd9003bfb351f38f8ffbc73fc285cdd24a7b56"},
	"des":             {"43e0730efceae459908bd604f2bb78a763e3ad8162e66a9d51710ee7ddd8b086", "d6f34692105ae05281387d6012e971b12f55df61c6c095c4daae1444d871845c"},
	"line":            {"112efe00f40a357f3f2456d7827d8afcaf78d18c04ca5a6cc3714a8fd35fce2a", "f5236066fcaaa86550fbf1e63cb41c546c1b120440f663e0b5caa7485e31563e"},
	"circle":          {"45d671b17dffb020821de809efdca6249a4181a5ec452a0b6c5553a0bbf0bd28", "7fa849b4ebaee5692971d8d2aec0ef2eb63c61136e70b29c4bdd8bfe75b64279"},
	"jpeg_fdct_islow": {"499537271b034ef715bbbfccde8bc969c7a6e3ff3fee894e61980d3410913b6f", "a1ee2ca6e3a1a3e6ffd8077557023a636a686c6d40f4897e0219606eeb73a0d8"},
	"jpeg_idct_islow": {"766104ef792d4d451c4f3d7eb9c5438088dd8f554694b53dddddcdbaa9303370", "1ad72565c5a96fa5d41ea03cfdfb25b3df8477e24e7c6d1f7b2d7291c57edb01"},
	"recon":           {"d914b351c21dab1136193f91a47205ee72b50d934fa2bd7e2a951acb4f6f4c1e", "a54bda906ec32cd686161c7739c2f2f4e2f379365e837eae0c1df7a713ca60fc"},
	"fullsearch":      {"0f1d12c9f0481ffb3142c316e324691b2bfad0501292808576aa65399eb6c11b", "bd21023b774a46aec22337fe55fcd35b96703f91616336aa23cf8506ccbb404c"},
	"whetstone":       {"5948dadb0e8edb1ce7d096bbb85aa5b9100dc86cb8f4848374cebab60961d8e1", "7de748222139399d8238b2df77668422f1627c5eabe8800ebdf0f768d889540c"},
	"dhry":            {"8b77c6df71021bd2d596381f9f5d6aa96291db465235f2704ac28adacbd20e63", "3c485c7158ed76f1b9c185bda38ed8dccbec074f02830e6ee1805371a055d0f8"},
	"matgen":          {"0a940e9f8e783aaaa551e5f40c8d7b41c82d0246e4ae6a66a25158566a4069ec", "a0bd02533806def4a4fc97d373e149eb05ecdba26f3d512819b6a2bf89a3397d"},
}

func TestCompilerOutputGolden(t *testing.T) {
	all := All()
	if len(all) != len(ccGolden) {
		t.Fatalf("registry has %d benchmarks, golden table has %d", len(all), len(ccGolden))
	}
	digest := func(s string) string {
		sum := sha256.Sum256([]byte(s))
		return hex.EncodeToString(sum[:])
	}
	for _, b := range all {
		want, ok := ccGolden[b.Name]
		if !ok {
			t.Errorf("%s: no golden digests", b.Name)
			continue
		}
		text, err := cc.Compile(b.Source)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		if h := digest(text); h != want[0] {
			t.Errorf("%s: Generate digest %s, want %s", b.Name, h, want[0])
		}
		if h := digest(cc.Optimize(text)); h != want[1] {
			t.Errorf("%s: Optimize digest %s, want %s", b.Name, h, want[1])
		}
	}
}

// TestCompilerDirectMatchesText requires cc.Build and cc.BuildOptimized,
// which hand code generation's statements straight to the assembler
// backend, to produce exactly the image the text path produces for every
// Table I program: assembling cc.Compile's text, optimized by cc.Optimize
// for the -O build. Mem, symbols, functions and line numbers all count.
func TestCompilerDirectMatchesText(t *testing.T) {
	for _, b := range All() {
		text, err := cc.Compile(b.Source)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		for _, v := range []struct {
			name  string
			build func(string) (*asm.Executable, *cc.Program, error)
			text  string
		}{
			{"plain", cc.Build, text},
			{"-O", cc.BuildOptimized, cc.Optimize(text)},
		} {
			got, _, err := v.build(b.Source)
			if err != nil {
				t.Fatalf("%s %s: %v", b.Name, v.name, err)
			}
			want, err := asm.Assemble(v.text)
			if err != nil {
				t.Fatalf("%s %s: text path: %v", b.Name, v.name, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s %s: direct build image differs from the text path's", b.Name, v.name)
			}
		}
	}
}
