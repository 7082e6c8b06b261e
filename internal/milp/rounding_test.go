package milp

import (
	"fmt"
	"math"
	"testing"

	"spq/internal/rng"
)

// TestRoundingFindsParityIncumbent: simple rounding settles the parity
// knapsack's first package at the root, where its one fractional column
// rounds down, so a search cut at 50 nodes still returns the optimum it
// cannot prove. Rounding to nearest at the root alone left this search
// without a package for its first 1 000–1 200 nodes.
func TestRoundingFindsParityIncumbent(t *testing.T) {
	const n = 41
	res := mustSolve(t, parityModel(n), &Options{MaxNodes: 50})
	if res.Status != StatusFeasible || res.X == nil || res.Obj != -(n-1)/2 || res.Stop != StopNodeCap {
		t.Fatalf("status %v stop %v obj %v, want feasible at the node cap with obj %d",
			res.Status, res.Stop, res.Obj, -(n-1)/2)
	}
}

// parityModel is min −Σx over n binaries subject to Σ 2x ≤ n with n odd:
// every relaxation that leaves a variable free is worth half a unit more
// than any integer point, so proving the optimum −(n−1)/2 enumerates.
func parityModel(n int) *Model {
	m := NewModel()
	idxs := make([]int, n)
	twos := make([]float64, n)
	for j := range idxs {
		idxs[j] = m.AddBinary(-1)
		twos[j] = 2
	}
	m.AddRow(idxs, twos, -Inf, float64(n))
	return m
}

// checkFeasible verifies a candidate point against all rows, indicator
// constraints, bounds, and integrality in the full model space; it returns
// the objective value.
func checkFeasible(m *Model, x []float64) (float64, bool) {
	if len(x) != len(m.vars) {
		return 0, false
	}
	obj := 0.0
	for j, v := range m.vars {
		if lo, hi := v.box(); x[j] < lo-feasTol || x[j] > hi+feasTol {
			return 0, false
		}
		if v.integer && math.Abs(x[j]-math.Round(x[j])) > feasTol {
			return 0, false
		}
		obj += v.obj * x[j]
	}
	for _, r := range m.rows {
		if dot := dotTerms(r.idxs, r.coefs, x); dot < r.lo-feasTol || dot > r.hi+feasTol {
			return 0, false
		}
	}
	for _, ind := range m.indicators {
		if math.Round(x[ind.bin]) != 1 {
			continue
		}
		dot := dotTerms(ind.idxs, ind.coefs, x)
		if ind.ge && dot < ind.rhs-feasTol {
			return 0, false
		}
		if !ind.ge && dot > ind.rhs+feasTol {
			return 0, false
		}
	}
	return obj, true
}

// dotTerms is Σ coefs·x over a row's nonzero terms (idxs as in rowSpec).
func dotTerms(idxs []int, coefs, x []float64) float64 {
	dot := 0.0
	for k, c := range coefs {
		if c != 0 {
			dot += c * x[col(idxs, k)]
		}
	}
	return dot
}

// lockModel draws n integer columns in [0, 3] with costs of either sign
// under two ≤ rows over every column, which lock them all up, and one ≥
// row over a random half of them, which locks that half down too: simple
// rounding rounds a fractional column down, up, or gives up, depending on
// the rows it is in.
func lockModel(s *rng.Stream, n int) *Model {
	m := NewModel()
	idxs := make([]int, n)
	for j := range idxs {
		idxs[j] = m.AddVar(0, 3, -(s.Float64()*4 - 1), true)
	}
	for range 2 {
		w := make([]float64, n)
		sum := 0.0
		for j := range w {
			w[j] = 1 + s.Float64()*4
			sum += w[j]
		}
		m.AddRow(idxs, w, -Inf, sum)
	}
	var sub []int
	var ones []float64
	for _, j := range idxs {
		if s.IntN(2) == 0 {
			sub, ones = append(sub, j), append(ones, 1+s.Float64())
		}
	}
	m.AddRow(sub, ones, float64(len(sub))/2+0.5, Inf)
	return m
}

// TestRoundingCandidatesDeterministic: with rounding candidates in play,
// searches cut at node caps that end inside and between rounds, and run to
// the end, repeat bit for bit, and every package they return satisfies the
// model. The corpus must show that the rounding candidates are what is
// compared: some capped solves return another package, or none, with
// rounding switched off.
func TestRoundingCandidatesDeterministic(t *testing.T) {
	models := []*Model{parityModel(41), parityModel(21)}
	s := rng.NewStream(17)
	for range 12 {
		models = append(models, lockModel(s, 8+s.IntN(10)))
	}
	s = rng.NewStream(5)
	for range 4 {
		models = append(models, knapsackModel(s, 24, 11))
	}
	moved := 0
	for i, m := range models {
		for _, cap := range []int{1, 10, 64, 100, 1000} {
			tag := fmt.Sprintf("model %d cap %d", i, cap)
			opts := &Options{MaxNodes: cap}
			base := mustSolve(t, m, opts)
			assertBitIdentical(t, tag, base, mustSolve(t, m, opts))
			if base.X != nil {
				if obj, ok := checkFeasible(m, base.X); !ok || math.Abs(obj-base.Obj) > 1e-9 {
					t.Fatalf("%s: returned an infeasible package (obj %v, reported %v)", tag, obj, base.Obj)
				}
			}
			rounding = false
			off := mustSolve(t, m, opts)
			rounding = true
			if off.Status != base.Status || off.Obj != base.Obj {
				moved++
			}
		}
	}
	if moved == 0 {
		t.Fatal("no capped solve changed with rounding switched off: the corpus exercises no rounding candidate")
	}
	t.Logf("%d of %d solves changed with rounding switched off", moved, 5*len(models))
}
