package lp

import "math"

// Basis is an exported snapshot of a simplex basis: the variable occupying
// each basis position plus the bound status of every structural and logical
// variable. It is the warm-start currency between LP solves — the MILP
// branch-and-bound seeds each child node's solve from its parent's optimal
// basis (Options.Basis) and asks for a fresh snapshot back
// (Options.WantBasis), so a child that differs from its parent by one
// variable bound is reinstated by a handful of dual-simplex pivots instead of
// a full phase-1 run from the logical basis.
//
// A Basis is read-only while any solve may still be seeded from it and safe
// to share across goroutines for that long; the branch-and-bound hands one
// parent snapshot to both children and recycles its memory (Reset, then
// Scratch.SnapshotBasis) once both are solved. Statuses are packed two bits
// per variable, so a snapshot costs ≈(n+m)/4 bytes plus one int32 per row —
// cheap enough to hang off every open search node.
//
// Determinism: Basis is part of the solve's determinism domain. A solve is a
// pure function of (Problem, bounds, Options) including Options.Basis — the
// same snapshot always reproduces the same iteration path and the same
// Solution bit-for-bit. Callers that cache or compare solve results must
// treat Basis like any other Options field (the MILP layer's node →
// parent-basis assignment is itself deterministic in the round structure,
// which is how the parallel determinism matrix survives warm starts).
type Basis struct {
	n, m   int
	packed []uint64 // 2-bit status codes, structural vars then logical rows
	basis  []int32  // basis[k] = variable basic at position k
	// gen counts the rewrites of this snapshot (SnapshotBasis, Reset), so a
	// Scratch that priced it can tell a recycled buffer from the seed it
	// priced.
	gen uint64
}

// SnapshotBasis writes the final basis and statuses of the Scratch's most
// recent solve into dst, reusing dst's buffers when they are large enough. It
// is the lazy form of Options.WantBasis: the state stays live until the
// Scratch's next solve, so a caller that needs the basis of only some solves
// (branch-and-bound keeps one per branching node) asks after the fact and
// supplies recycled memory. Meaningful only after a StatusOptimal solve.
func (sc *Scratch) SnapshotBasis(dst *Basis) {
	s := &sc.sim
	dst.n, dst.m = s.n, s.m
	dst.gen++
	dst.packed = grow(dst.packed, (s.total+31)/32)
	for w := range dst.packed {
		var bits uint64
		for j := w * 32; j < s.total && j < w*32+32; j++ {
			bits |= uint64(s.status[j]) << uint((j&31)*2)
		}
		dst.packed[w] = bits
	}
	dst.basis = grow(dst.basis, s.m)
	for k, v := range s.basis {
		dst.basis[k] = int32(v)
	}
}

// ReducedCosts writes the structural columns' reduced costs at the final
// basis of the Scratch's most recent solve into d (zero for basic columns and
// those inside optTol) and returns that solve's bound L (see Fix).
// Meaningful only after a StatusOptimal solve.
func (sc *Scratch) ReducedCosts(d []float64) float64 {
	s := &sc.sim
	s.price()
	sc.priced = seedKey{} // s.d now prices the final basis, not a seed
	for j := range d[:s.n] {
		d[j] = 0
		if s.status[j] != statusBasic && math.Abs(s.d[j]) > optTol {
			d[j] = s.d[j]
		}
	}
	return s.dualBound()
}

// Reset empties the snapshot and keeps its buffers for a later
// SnapshotBasis. An empty snapshot matches no problem's shape, so a solve
// seeded with a Basis that was reset (recycled) under it falls back to the
// cold path instead of reading another solve's basis.
func (b *Basis) Reset() {
	b.n, b.m = 0, 0
	b.gen++
	b.packed, b.basis = b.packed[:0], b.basis[:0]
}

// loadBasis installs a snapshot as the solver's starting basis: statuses and
// basis order are restored, nonbasic statuses are normalized against the
// current (possibly changed) bounds, and the basis inverse is rebuilt by a
// dense factorization; x_B is left for the caller to compute. It reports
// false — leaving the solver in an undefined state the caller must reset —
// when the snapshot's shape does not match the problem, its basic set is
// inconsistent, or the basis matrix is singular under the current problem.
func (s *simplex) loadBasis(b *Basis) bool {
	if b == nil || b.n != s.n || b.m != s.m {
		return false
	}
	// One pass unpacks the statuses and normalizes the nonbasic ones: a
	// snapshot taken under different bounds may pin a variable to a bound
	// that no longer exists. Mirrors initialStatus's preference order.
	basics := 0
	for w, bits := range b.packed {
		for j := w * 32; j < min(w*32+32, s.total); j++ {
			st := byte(bits & 3)
			bits >>= 2
			switch st {
			case statusBasic:
				basics++
			case statusAtLower:
				if isNegInf(s.lo[j]) {
					st = s.initialStatus(j)
				}
			case statusAtUpper:
				if isPosInf(s.hi[j]) {
					st = s.initialStatus(j)
				}
			case statusFree:
				if !isNegInf(s.lo[j]) || !isPosInf(s.hi[j]) {
					st = s.initialStatus(j)
				}
			}
			s.status[j] = st
			s.pos[j] = -1
		}
	}
	if basics != s.m {
		return false
	}
	for k := 0; k < s.m; k++ {
		j := int(b.basis[k])
		if j < 0 || j >= s.total || s.status[j] != statusBasic || s.pos[j] != -1 {
			return false
		}
		s.basis[k] = j
		s.pos[j] = int32(k)
	}
	return s.invert() == nil
}
