// Package rng provides deterministic, splittable pseudo-random streams for
// Monte Carlo scenario generation.
//
// The Monte Carlo data model (Jampani et al., MCDB) requires that a scenario —
// a joint realization of every random attribute in a relation — be
// reproducible from a single base seed. The paper's SummarySearch algorithm
// additionally requires two different *generation orders* over the same
// scenario set (tuple-wise and scenario-wise summarization, §5.5 of the
// paper), which must observe identical realized values. We achieve both by
// deriving an independent substream for every (seed, attribute, group,
// scenario) coordinate with a SplitMix64-based hash, so the value of random
// variable t_i.A in scenario S_j is a pure function of the coordinates and
// never depends on generation order.
package rng

import "math"

// splitmix64 advances a SplitMix64 state and returns the next output.
// SplitMix64 passes BigCrush and is the standard generator for seeding.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Mix hashes an arbitrary number of 64-bit words into a single well-mixed
// 64-bit value. It is used to derive substream seeds from coordinates.
func Mix(words ...uint64) uint64 {
	state := uint64(0x8e2f_19a6_3c5d_71bb)
	for _, w := range words {
		mixWord(&state, w)
	}
	return splitmix64(&state)
}

// mixWord absorbs one word into a Mix state.
func mixWord(state *uint64, w uint64) {
	*state ^= w
	_ = splitmix64(state)
	*state = *state*0x2545f4914f6cdd1d + 0x9e3779b97f4a7c15
}

// Stream is a small, fast PCG-XSH-RR 64/32-like generator. Each Stream is an
// independent substream identified by the seed passed to NewStream. The zero
// value is not valid; use NewStream.
type Stream struct {
	state uint64
	inc   uint64
	// cached spare normal variate for the Box-Muller transform
	spare    float64
	hasSpare bool
}

// NewStream returns a stream deterministically derived from seed. Two streams
// created from different seeds are statistically independent for Monte Carlo
// purposes.
func NewStream(seed uint64) *Stream {
	s := &Stream{}
	s.Reseed(seed)
	return s
}

// Reseed resets the stream to the deterministic state implied by seed,
// discarding any cached variates.
func (s *Stream) Reseed(seed uint64) {
	sm := seed
	s.state = splitmix64(&sm)
	s.inc = splitmix64(&sm) | 1 // stream increment must be odd
	s.hasSpare = false
	s.spare = 0
	// Warm up: decorrelates streams whose seeds differ in few bits.
	s.Uint64()
	s.Uint64()
}

// Uint32 returns the next 32 uniformly distributed bits.
func (s *Stream) Uint32() uint32 {
	old := s.state
	s.state = old*6364136223846793005 + s.inc
	xorshifted := uint32(((old >> 18) ^ old) >> 27)
	rot := uint32(old >> 59)
	return (xorshifted >> rot) | (xorshifted << ((-rot) & 31))
}

// Uint64 returns the next 64 uniformly distributed bits.
func (s *Stream) Uint64() uint64 {
	hi := uint64(s.Uint32())
	lo := uint64(s.Uint32())
	return hi<<32 | lo
}

// Float64 returns a uniform variate in the half-open interval [0, 1) with 53
// bits of precision.
func (s *Stream) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// OpenFloat64 returns a uniform variate in the open interval (0, 1), suitable
// for inverse-CDF transforms that evaluate log or reciprocal at the sample.
func (s *Stream) OpenFloat64() float64 {
	for {
		u := s.Float64()
		if u > 0 {
			return u
		}
	}
}

// IntN returns a uniform integer in [0, n). It panics if n <= 0.
func (s *Stream) IntN(n int) int {
	if n <= 0 {
		panic("rng: IntN with non-positive n")
	}
	// Lemire's nearly-divisionless bounded generation on 32-bit words is
	// overkill here; modulo bias is negligible for the small n (number of
	// data-integration sources, partition sizes) this library draws.
	return int(s.Uint64() % uint64(n))
}

// Norm returns a standard normal variate using the Box-Muller transform with
// spare caching.
func (s *Stream) Norm() float64 {
	if s.hasSpare {
		s.hasSpare = false
		return s.spare
	}
	for {
		u := s.OpenFloat64()
		v := s.Float64()
		r := math.Sqrt(-2 * math.Log(u))
		theta := 2 * math.Pi * v
		z0 := r * math.Cos(theta)
		z1 := r * math.Sin(theta)
		if math.IsInf(z0, 0) || math.IsNaN(z0) {
			continue
		}
		s.spare = z1
		s.hasSpare = true
		return z0
	}
}

// Exp returns a standard (rate 1) exponential variate.
func (s *Stream) Exp() float64 {
	return -math.Log(s.OpenFloat64())
}

// Source derives substreams for the coordinates used by scenario generation.
// It is cheap to copy and safe for concurrent use (it is immutable).
type Source struct {
	base uint64
}

// NewSource returns a Source rooted at the given base seed.
func NewSource(base uint64) Source { return Source{base: base} }

// Base returns the base seed the source was created with.
func (src Source) Base() uint64 { return src.base }

// Derive returns a fresh Source whose streams are independent of src's,
// labeled by the given words. It is used to split, e.g., optimization
// scenarios from validation scenarios.
func (src Source) Derive(words ...uint64) Source {
	all := append([]uint64{src.base}, words...)
	return Source{base: Mix(all...)}
}

// Split returns n sources derived from src, labeled 0..n-1, whose streams
// are mutually independent and independent of src's. It is the substream
// split API for callers that want genuinely independent randomness per
// worker or per concurrent client (e.g. a load generator giving each client
// its own seed) without any shared mutable state. Note that the engine's
// scenario *sharding* deliberately does not use Split: scenario
// realizations are pure functions of their (attr, group, scenario)
// coordinates under a single source, which is what makes parallel
// validation bit-identical to the sequential path.
func (src Source) Split(n int) []Source {
	out := make([]Source, n)
	for i := range out {
		out[i] = src.Derive(0x5b117, uint64(i))
	}
	return out
}

// StreamAt returns the substream for coordinate (attr, group, scenario).
// "group" is the correlation group of the random variable: for independent
// attributes it is the tuple index; for correlated attributes (e.g. all
// trades of one stock sharing a price path) it is the group identifier.
func (src Source) StreamAt(attr, group, scenario uint64) *Stream {
	return NewStream(Mix(src.base, attr, group, scenario))
}

// SeedAt returns the raw substream seed for coordinate (attr, group,
// scenario) so callers can Reseed a scratch Stream and avoid allocation in
// tight generation loops.
func (src Source) SeedAt(attr, group, scenario uint64) uint64 {
	return Mix(src.base, attr, group, scenario)
}

// SeedRow is the Mix state of one (attr, group) coordinate prefix: At
// finishes the hash for one scenario, so a caller realizing a variable
// across many scenarios absorbs the shared prefix once.
type SeedRow struct{ state uint64 }

// Row returns the seed row of coordinate prefix (attr, group).
func (src Source) Row(attr, group uint64) SeedRow {
	state := uint64(0x8e2f_19a6_3c5d_71bb)
	mixWord(&state, src.base)
	mixWord(&state, attr)
	mixWord(&state, group)
	return SeedRow{state: state}
}

// At returns the substream seed of the row's variable in one scenario; it
// equals SeedAt(attr, group, scenario) bit for bit.
func (r SeedRow) At(scenario uint64) uint64 {
	state := r.state
	mixWord(&state, scenario)
	return splitmix64(&state)
}
