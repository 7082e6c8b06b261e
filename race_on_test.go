//go:build race

package spq

// See race_off_test.go.
const raceEnabled = true
