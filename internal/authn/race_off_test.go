//go:build !race

package authn

const raceEnabled = false
