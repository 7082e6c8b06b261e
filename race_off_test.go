//go:build !race

package spq

// raceEnabled drops the Naïve lines from TestAnswerDigest: race
// instrumentation slows the branch-and-bound search by an order of magnitude.
const raceEnabled = false
