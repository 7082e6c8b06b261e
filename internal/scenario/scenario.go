// Package scenario holds the paper's α-summaries (§4.1) and the
// summary-selection machinery of §5 that needs no realized values: random
// partitioning of scenario IDs into Z groups (PartitionIDs) and greedy
// selection of the subset G_z(α) by precomputed scenario score (Pick,
// §5.3). SummarySearch realizes the scores and summaries themselves through
// the cursors of package stream. A materialized Set of scenario rows, realized
// through the same row kernel, serves the Naïve SAA baseline, whose
// formulation reads whole rows.
package scenario

import (
	"context"
	"math"
	"sort"

	"spq/internal/par"
	"spq/internal/rng"
)

// Direction selects the conservative extreme for a summary: for an inner
// constraint Σ a·x ≥ v the tuple-wise Min is conservative; for ≤ the Max is
// (Proposition 1 of the paper).
type Direction int

const (
	// Min takes tuple-wise minima over the chosen scenarios.
	Min Direction = iota
	// Max takes tuple-wise maxima.
	Max
)

func (d Direction) String() string {
	if d == Min {
		return "min"
	}
	return "max"
}

// Opposite returns the other direction (used by the convergence-acceleration
// trick of §5.5).
func (d Direction) Opposite() Direction {
	if d == Min {
		return Max
	}
	return Min
}

// Set is a materialized scenario set for one stochastic attribute: vals[j][i]
// is the realization of tuple i in the set's j-th scenario. IDs records the
// absolute scenario indices (so incrementally grown sets keep stable
// identities across Naïve iterations).
type Set struct {
	Attr string
	N    int
	IDs  []int
	vals [][]float64
}

// FromRows builds a Set directly from realized rows; rows[j][i] is the value
// of tuple i in the scenario with absolute index ids[j]. It is used by the
// translation layer to materialize scenario sets of inner-function values
// (linear combinations of several attributes) rather than single attributes.
func FromRows(attr string, ids []int, rows [][]float64) *Set {
	n := 0
	if len(rows) > 0 {
		n = len(rows[0])
	}
	return &Set{Attr: attr, N: n, IDs: append([]int(nil), ids...), vals: rows}
}

// AppendRow appends one realized scenario row with the given absolute index.
func (s *Set) AppendRow(id int, row []float64) {
	if s.N == 0 {
		s.N = len(row)
	}
	s.IDs = append(s.IDs, id)
	s.vals = append(s.vals, row)
}

// M returns the number of scenarios in the set.
func (s *Set) M() int { return len(s.vals) }

// Value returns the realization of tuple i in the set's local scenario j.
func (s *Set) Value(i, j int) float64 { return s.vals[j][i] }

// Row returns the full realization vector of local scenario j. The returned
// slice is shared; callers must not modify it.
func (s *Set) Row(j int) []float64 { return s.vals[j] }

// PartitionIDs splits the scenario indices {0..m-1} into z near-equal random
// groups using a seeded shuffle, per §4.1 ("dividing S randomly into Z
// disjoint partitions"). The same (m, z, seed) yields the same partition.
// It depends only on the scenario count, not on realized values, which is
// what lets the streamed pipeline partition scenarios it never materialized.
func PartitionIDs(m, z int, seed uint64) [][]int {
	if z < 1 {
		z = 1
	}
	if z > m {
		z = m
	}
	perm := make([]int, m)
	for i := range perm {
		perm[i] = i
	}
	st := rng.NewStream(seed)
	for i := m - 1; i > 0; i-- {
		k := st.IntN(i + 1)
		perm[i], perm[k] = perm[k], perm[i]
	}
	parts := make([][]int, z)
	for i, idx := range perm {
		parts[i%z] = append(parts[i%z], idx)
	}
	return parts
}

// Pick is the greedy selection of §5.3: given the scores Σ_i s_ij·x_i of
// part's scenarios under the previous solution x, it returns the ⌈α·|part|⌉
// whose scores are most favourable — for a ≥ inner constraint (dir == Min)
// the highest-scoring keep x feasible, for ≤ (dir == Max) the lowest-scoring
// do. The sort is stable, so ties keep part's order. With nil scores (no
// previous solution) the first ⌈α·|part|⌉ scenarios of part are used.
func Pick(part []int, alpha float64, dir Direction, scores map[int]float64) []int {
	n := int(math.Ceil(alpha * float64(len(part))))
	if n <= 0 {
		return nil
	}
	if n > len(part) {
		n = len(part)
	}
	chosen := append([]int(nil), part...)
	if scores != nil {
		sort.SliceStable(chosen, func(a, b int) bool {
			if dir == Min {
				return scores[chosen[a]] > scores[chosen[b]] // descending for ≥
			}
			return scores[chosen[a]] < scores[chosen[b]] // ascending for ≤
		})
	}
	return chosen[:n]
}

// Summary is an α-summary: a synthetic deterministic realization S̃ such
// that any solution satisfying S̃ satisfies at least ⌈α·M⌉ real scenarios
// of the summarized group (Definition 1 / Proposition 1).
type Summary struct {
	Attr   string
	Values []float64
	// Chosen records the local scenario indices the summary covers.
	Chosen []int
	// Dir and Accel record the fold inputs the summary was built with, so
	// PatchSummarize can recompute individual tuples after a delta without
	// re-deriving the per-tuple fold direction.
	Dir   Direction
	Accel []bool
}

// SummarizeP builds the α-summary of the chosen scenarios by taking the
// tuple-wise extreme in direction dir. If accel is non-nil, tuples with
// accel[i] == true use the opposite extreme — the §5.5 convergence
// acceleration that keeps the previous solution's tuples feasible at the
// cost of the conservativeness guarantee on those tuples. The tuple loop is
// sharded across workers; each tuple's extreme is computed independently,
// so the summary is identical for any worker count.
func (s *Set) SummarizeP(ctx context.Context, chosen []int, dir Direction, accel []bool, workers int) (*Summary, error) {
	out := &Summary{Attr: s.Attr, Values: make([]float64, s.N), Chosen: append([]int(nil), chosen...), Dir: dir, Accel: cloneAccel(accel)}
	err := par.Ranges(ctx, s.N, workers, func(_, lo, hi int) error {
		for i := lo; i < hi; i++ {
			d := dir
			if accel != nil && accel[i] {
				d = d.Opposite()
			}
			v := s.vals[chosen[0]][i]
			for _, j := range chosen[1:] {
				w := s.vals[j][i]
				if (d == Min && w < v) || (d == Max && w > v) {
					v = w
				}
			}
			out.Values[i] = v
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

func cloneAccel(accel []bool) []bool {
	if accel == nil {
		return nil
	}
	return append([]bool(nil), accel...)
}
