//go:build race

package compose_test

// raceEnabled reports that the race detector is on: it slows every wake-up
// several-fold, so the timing assertions would measure the detector.
const raceEnabled = true
