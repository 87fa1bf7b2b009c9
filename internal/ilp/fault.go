package ilp

import "sync/atomic"

// FaultSite identifies a float64 computation a test may perturb through
// SetFaultInjector to prove the certification layer catches corrupted
// solves. The dense oracle is deliberately not instrumented so it can keep
// serving as the clean reference while the production paths are faulted.
type FaultSite int

const (
	// FaultPivot is the pivot element of the sparse kernel, read once per
	// pivot in scratch.pivot (shared by the cold sparse solve and the warm
	// dual simplex). Perturbing it corrupts the tableau from that pivot on.
	FaultPivot FaultSite = iota
	// FaultObjective is a phase-2 objective coefficient as it is lowered
	// into the sparse tableau's internal maximization sense. Perturbing it
	// makes the solver optimize the wrong objective while still reporting
	// the true objective's value at the vertex it lands on.
	FaultObjective
	// FaultWarmBase is a base-tableau right-hand-side entry as it is copied
	// into a warm delta solve — a stale or corrupted warm-start basis.
	FaultWarmBase
)

// faultInjector, when non-nil, rewrites the value read at each FaultSite.
var faultInjector atomic.Pointer[func(FaultSite, float64) float64]

// SetFaultInjector installs f as a global perturbation applied at every
// FaultSite of the production solver paths (pass nil to remove it). It is a
// test-only hook: tests inject controlled numeric faults and assert that
// certification (package certify, via ipet.Options.Certify) rejects the
// corrupted result and the exact fallback recovers the true bound, or that
// the exact derivation of parametric pieces (certify.DerivePiece) refuses
// the basis a corrupted seed solve ended on. The injector is process-global, so tests using it must not run in parallel
// with other solver tests, and must not enable SetSelfCheck (the dense
// oracle is unfaulted and the differential would panic by design).
func SetFaultInjector(f func(FaultSite, float64) float64) {
	if f == nil {
		faultInjector.Store(nil)
		return
	}
	faultInjector.Store(&f)
}

// injectFault filters v through the installed injector, if any.
func injectFault(site FaultSite, v float64) float64 {
	if f := faultInjector.Load(); f != nil {
		return (*f)(site, v)
	}
	return v
}
