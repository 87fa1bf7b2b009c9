package bench

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"cinderella/internal/asm"
	"cinderella/internal/cc"
	"cinderella/internal/constraint"
	"cinderella/internal/ipet"
	"cinderella/internal/prepcache"
)

// lpGolden pins the SHA-256 of the `cinderella -lp` listing (Analyzer.DumpILP)
// of every Table I program under its paper annotations and of the 64-set
// explosion chain, plus the pruning-off and widened variants that exercise
// the other set-expansion paths. The listing prints every constraint set
// relation by relation, so any change to set expansion order, null pruning,
// widening, or relation rendering changes a digest.
var lpGolden = map[string]string{
	"check_data":          "32f07151c6ffbefbf1b8f485e626b9d4904982c3ed48980ce944b9dfd975d177",
	"fft":                 "822a0fca8a0d4a9f924afa72b4ae0f38ef5a9cff5ed817c682aba42de1ecd93b",
	"piksrt":              "7b9d70ef206275237e18a28be36932fd131c1db44178350f67852ef1ca53c70b",
	"des":                 "10319c949d61006057234ac57a9eca5e9ad5be9a3ae689b644866e36e287cac1",
	"line":                "1bed98b16b0d41cb01222b0c44e92d9a2fbef14bf4eda6cadfd169aa4e41216e",
	"circle":              "f9637f551bc5baac2bfcb736390effeadb0e04b8fffd30def73b005e6434ee45",
	"jpeg_fdct_islow":     "02b6c5d65cfa1466fb2520d23e67be23dccfde2436dc185ae4d721e30f2508a6",
	"jpeg_idct_islow":     "ae8e0c8adc7ac53d645dbbee3646b8713cdda6e290fcfac1f155597ecb64b046",
	"recon":               "99bc8213f43995248026ca7a03ed5afe829b2e08a4fd5fb16c1e213ad4563cae",
	"fullsearch":          "a6c9789eabc02cafabd5efd73308ddaa5d6a0f21ca773adc5f32b7ac754b3236",
	"whetstone":           "55dc71ff9b4b076317be67cb8ff4570fc873d1ccf164030efb0d5c4f033a5f5b",
	"dhry":                "a29f7dcb82d04342c012481a574f2048de61ff94f3b42f9692f67615f8a664bf",
	"matgen":              "9e60a6daf27851b4dcf3b6c77aa476c858c9956bc2cab0c3d4e9f94d6e2d48dd",
	"dhry/noprune":        "86fcc17cefaed4eb162b40ee74427c17895eb6bf56353d23f323057b62ff2ca8",
	"explosion64":         "93f9abd59369193baf9a055551d59e91021169bef01c105c668e1d3d17b7e523",
	"explosion64/widen16": "68691c997b940de97a527978e514e113e502213e5799fd062640dabde0441640",
}

// lpListing builds exe the way the CLI does (content-addressed front end,
// one-shot analyzer, named annotation file) and returns its -lp listing.
func lpListing(t *testing.T, exe *asm.Executable, root, annots string, opts ipet.Options) []byte {
	t.Helper()
	prog, err := prepcache.New().BuildProgram(exe)
	if err != nil {
		t.Fatal(err)
	}
	an, err := ipet.New(prog, root, opts)
	if err != nil {
		t.Fatal(err)
	}
	file, err := constraint.ParseNamed("annotations", annots)
	if err != nil {
		t.Fatal(err)
	}
	if err := an.Apply(file); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := an.DumpILP(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestLPListingGolden(t *testing.T) {
	got := map[string][]byte{}
	for _, b := range All() {
		exe, _, err := cc.Build(b.Source)
		if err != nil {
			t.Fatal(err)
		}
		got[b.Name] = lpListing(t, exe, b.Root, b.Annotations, ipet.DefaultOptions())
		if b.Name == "dhry" {
			opts := ipet.DefaultOptions()
			opts.PruneNullSets = false
			got["dhry/noprune"] = lpListing(t, exe, b.Root, b.Annotations, opts)
		}
	}
	asmText, annots := ExplosionAsm(6)
	exe, err := asm.Assemble(asmText)
	if err != nil {
		t.Fatal(err)
	}
	got["explosion64"] = lpListing(t, exe, "main", annots, ipet.DefaultOptions())
	opts := ipet.DefaultOptions()
	opts.MaxSets, opts.WidenSets = 16, true
	got["explosion64/widen16"] = lpListing(t, exe, "main", annots, opts)

	for name, want := range lpGolden {
		listing, ok := got[name]
		if !ok {
			t.Errorf("%s: no listing produced", name)
			continue
		}
		sum := sha256.Sum256(listing)
		if h := hex.EncodeToString(sum[:]); h != want {
			t.Errorf("%s: -lp listing digest %s, want %s", name, h, want)
		}
	}
}
