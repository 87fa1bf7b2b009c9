//go:build race

package ilp_test

// raceEnabled reports a race-detector build. The race runtime drops
// sync.Pool items on purpose, so allocation counts measure the detector,
// not the code.
const raceEnabled = true
