package ilp

import "testing"

// TestParamAffineAt pins the affine evaluation arithmetic.
func TestParamAffineAt(t *testing.T) {
	a := ParamAffine{C0: 7, Coef: []int64{2, -3}}
	if got := a.At([]int64{5, 4}); got != 7+10-12 {
		t.Fatalf("At = %d, want %d", got, 7+10-12)
	}
	if !(&ParamPiece{Region: []ParamAffine{a}}).Covers([]int64{5, 4}) {
		t.Fatalf("Covers should hold at a nonnegative region value")
	}
	if (&ParamPiece{Region: []ParamAffine{a}}).Covers([]int64{0, 3}) {
		t.Fatalf("Covers should fail at a negative region value")
	}
}
