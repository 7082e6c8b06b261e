package milp

import (
	"math"
	"testing"

	"spq/internal/rng"
)

// Property tests for the big-M linearization: a valid big-M must never cut
// off an integer point that satisfies the disjunctive semantics, and must
// never admit a point that violates an *active* indicator.

// enumerate reports all integer points x ∈ {0..ub}^n.
func enumerate(n, ub int, visit func(x []float64)) {
	total := 1
	for i := 0; i < n; i++ {
		total *= ub + 1
	}
	for code := 0; code < total; code++ {
		c := code
		x := make([]float64, n)
		for j := 0; j < n; j++ {
			x[j] = float64(c % (ub + 1))
			c /= ub + 1
		}
		visit(x)
	}
}

func TestBigMNeverCutsSatisfyingAssignments(t *testing.T) {
	s := rng.NewStream(5)
	for trial := 0; trial < 60; trial++ {
		n := 2 + s.IntN(2)
		ub := 2
		m := NewModel()
		xs := make([]int, n)
		for j := 0; j < n; j++ {
			xs[j] = m.AddVar(0, float64(ub), 0, true)
		}
		coefs := make([]float64, n)
		for j := range coefs {
			coefs[j] = math.Round((s.Float64()*6 - 3))
		}
		rhs := math.Round(s.Float64()*6 - 3)
		ge := s.IntN(2) == 0
		y := m.AddBinary(-1) // reward activating the indicator
		if ge {
			m.AddIndicatorGE(y, xs, coefs, rhs)
		} else {
			m.AddIndicatorLE(y, xs, coefs, rhs)
		}
		res, err := Solve(m, nil)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// Brute force: does ANY x satisfy the inner constraint? If so, the
		// solver must achieve y=1 (objective −1); otherwise y=0.
		anySat := false
		enumerate(n, ub, func(x []float64) {
			dot := 0.0
			for j := range x {
				dot += coefs[j] * x[j]
			}
			if (ge && dot >= rhs-1e-9) || (!ge && dot <= rhs+1e-9) {
				anySat = true
			}
		})
		if res.Status != StatusOptimal {
			t.Fatalf("trial %d: status %v", trial, res.Status)
		}
		gotActive := res.Obj < -0.5
		if anySat && !gotActive {
			t.Fatalf("trial %d: inner constraint satisfiable but big-M blocked y=1 (coefs=%v rhs=%v ge=%v)",
				trial, coefs, rhs, ge)
		}
		if !anySat && gotActive {
			t.Fatalf("trial %d: y=1 accepted though no x satisfies the inner constraint", trial)
		}
		// When active, verify the returned x actually satisfies it.
		if gotActive {
			dot := 0.0
			for j, xv := range xs {
				dot += coefs[j] * res.X[xv]
			}
			if (ge && dot < rhs-1e-6) || (!ge && dot > rhs+1e-6) {
				t.Fatalf("trial %d: active indicator violated: dot=%v rhs=%v ge=%v", trial, dot, rhs, ge)
			}
		}
	}
}

func TestCountingConstraintOverIndicators(t *testing.T) {
	// Σ y_j ≥ ⌈pM⌉ with randomly generated scenario rows: the solver's
	// choice must satisfy at least the required number of inner constraints
	// at the returned x — the exact structure of the SAA chance constraint.
	s := rng.NewStream(8)
	for trial := 0; trial < 30; trial++ {
		const n, scenarios = 3, 6
		need := 1 + s.IntN(scenarios)
		m := NewModel()
		xs := make([]int, n)
		for j := 0; j < n; j++ {
			xs[j] = m.AddVar(0, 2, -(s.Float64() + 0.1), true)
		}
		rows := make([][]float64, scenarios)
		ys := make([]int, scenarios)
		for k := 0; k < scenarios; k++ {
			rows[k] = make([]float64, n)
			for j := range rows[k] {
				rows[k][j] = s.Float64()*4 - 2
			}
			ys[k] = m.AddBinary(0)
			m.AddIndicatorGE(ys[k], xs, rows[k], 0.5)
		}
		ones := make([]float64, scenarios)
		for i := range ones {
			ones[i] = 1
		}
		m.AddRow(ys, ones, float64(need), Inf)
		res, err := Solve(m, nil)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if res.Status == StatusInfeasible {
			// Verify by brute force that it truly is.
			feasible := false
			enumerate(n, 2, func(x []float64) {
				sat := 0
				for k := 0; k < scenarios; k++ {
					dot := 0.0
					for j := range x {
						dot += rows[k][j] * x[j]
					}
					if dot >= 0.5-1e-9 {
						sat++
					}
				}
				if sat >= need {
					feasible = true
				}
			})
			if feasible {
				t.Fatalf("trial %d: solver infeasible but brute force found a point", trial)
			}
			continue
		}
		if res.Status != StatusOptimal && res.Status != StatusFeasible {
			t.Fatalf("trial %d: status %v", trial, res.Status)
		}
		sat := 0
		for k := 0; k < scenarios; k++ {
			dot := 0.0
			for j, xv := range xs {
				dot += rows[k][j] * res.X[xv]
			}
			if dot >= 0.5-1e-6 {
				sat++
			}
		}
		if sat < need {
			t.Fatalf("trial %d: returned x satisfies %d scenarios, need %d", trial, sat, need)
		}
	}
}

func TestDeepBranchingInstance(t *testing.T) {
	// An equality-sum instance forcing substantial branching: pick exactly
	// 7 items whose weights sum to an odd target with even/odd weights.
	s := rng.NewStream(12)
	const n = 18
	m := NewModel()
	idxs := make([]int, n)
	w := make([]float64, n)
	for j := 0; j < n; j++ {
		idxs[j] = m.AddVar(0, 1, -(1 + s.Float64()), true)
		w[j] = float64(1 + s.IntN(9))
	}
	ones := make([]float64, n)
	for i := range ones {
		ones[i] = 1
	}
	m.AddRow(idxs, ones, 7, 7)
	m.AddRow(idxs, w, 30, 34)
	res, err := Solve(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status == StatusOptimal {
		count, weight := 0.0, 0.0
		for j := 0; j < n; j++ {
			count += res.X[idxs[j]]
			weight += w[j] * res.X[idxs[j]]
		}
		if math.Abs(count-7) > 1e-6 || weight < 30-1e-6 || weight > 34+1e-6 {
			t.Fatalf("solution violates constraints: count=%v weight=%v", count, weight)
		}
	}
	if res.Nodes < 1 {
		t.Fatal("no branching recorded")
	}
}

func TestMaxNodesTerminates(t *testing.T) {
	s := rng.NewStream(14)
	const n = 30
	m := NewModel()
	idxs := make([]int, n)
	w := make([]float64, n)
	for j := 0; j < n; j++ {
		idxs[j] = m.AddVar(0, 1, -(1 + s.Float64()), true)
		w[j] = 1 + s.Float64()*2
	}
	m.AddRow(idxs, w, -Inf, 15)
	res, err := Solve(m, &Options{MaxNodes: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Nodes > 5+2 {
		t.Fatalf("explored %d nodes with MaxNodes=5", res.Nodes)
	}
	if res.Status == StatusOptimal && res.Nodes >= 5 {
		t.Fatalf("claimed optimality at the node limit (nodes=%d)", res.Nodes)
	}
}
