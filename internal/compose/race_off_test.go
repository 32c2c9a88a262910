//go:build !race

package compose_test

const raceEnabled = false
