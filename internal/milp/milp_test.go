package milp

import (
	"math"
	"testing"
	"time"

	"spq/internal/rng"
)

func solveOK(t *testing.T, m *Model, o *Options) *Result {
	t.Helper()
	res, err := Solve(m, o)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	return res
}

func TestSimpleKnapsack(t *testing.T) {
	// max 10a + 6b + 4c s.t. a+b+c ≤ 2, binaries → min negated.
	m := NewModel()
	a := m.AddBinary(-10)
	b := m.AddBinary(-6)
	c := m.AddBinary(-4)
	m.AddRow([]int{a, b, c}, []float64{1, 1, 1}, -Inf, 2)
	res := solveOK(t, m, nil)
	if res.Status != StatusOptimal {
		t.Fatalf("status = %v", res.Status)
	}
	if math.Abs(res.Obj-(-16)) > 1e-6 {
		t.Fatalf("obj = %v, want -16", res.Obj)
	}
	if math.Round(res.X[a]) != 1 || math.Round(res.X[b]) != 1 || math.Round(res.X[c]) != 0 {
		t.Fatalf("x = %v, want (1,1,0)", res.X)
	}
}

func TestIntegerKnapsackWithMultiplicity(t *testing.T) {
	// Package-style: min cost with coverage, integer multiplicities ≤ 3.
	// min 3x + 5y s.t. 2x + 4y ≥ 10, x,y ∈ {0..3}.
	// Candidates: y=3,x=0 → 15; y=2,x=1 → 13; y=1,x=3 → 14. Optimal 13.
	m := NewModel()
	x := m.AddVar(0, 3, 3, true)
	y := m.AddVar(0, 3, 5, true)
	m.AddRow([]int{x, y}, []float64{2, 4}, 10, Inf)
	res := solveOK(t, m, nil)
	if res.Status != StatusOptimal || math.Abs(res.Obj-13) > 1e-6 {
		t.Fatalf("status=%v obj=%v, want optimal 13", res.Status, res.Obj)
	}
}

func TestLPRelaxationGapClosed(t *testing.T) {
	// Classic instance where LP relaxation is fractional:
	// max x+y s.t. 2x + 2y ≤ 3, binaries. LP gives 1.5, ILP gives 1.
	m := NewModel()
	x := m.AddBinary(-1)
	y := m.AddBinary(-1)
	m.AddRow([]int{x, y}, []float64{2, 2}, -Inf, 3)
	res := solveOK(t, m, nil)
	if res.Status != StatusOptimal || math.Abs(res.Obj-(-1)) > 1e-6 {
		t.Fatalf("status=%v obj=%v, want optimal -1", res.Status, res.Obj)
	}
	if res.Bound > -1.5+1e-6 {
		t.Fatalf("root bound = %v, want -1.5", res.Bound)
	}
}

func TestInfeasibleIntegral(t *testing.T) {
	// 0.5 ≤ x ≤ 0.7 with x integer: LP feasible, no integer point.
	m := NewModel()
	x := m.AddVar(0, 1, 1, true)
	m.AddRow([]int{x}, []float64{1}, 0.5, 0.7)
	res := solveOK(t, m, nil)
	if res.Status != StatusInfeasible {
		t.Fatalf("status = %v, want infeasible", res.Status)
	}
}

func TestInfeasibleLP(t *testing.T) {
	m := NewModel()
	x := m.AddVar(0, 1, 1, true)
	m.AddRow([]int{x}, []float64{1}, 5, Inf)
	res := solveOK(t, m, nil)
	if res.Status != StatusInfeasible {
		t.Fatalf("status = %v, want infeasible", res.Status)
	}
}

func TestUnboundedRelaxation(t *testing.T) {
	m := NewModel()
	m.AddVar(0, Inf, -1, false)
	res := solveOK(t, m, nil)
	if res.Status != StatusUnbounded {
		t.Fatalf("status = %v, want unbounded", res.Status)
	}
}

func TestIndicatorGE(t *testing.T) {
	// y = 1 ⟹ x ≥ 5, minimize x + penalty for y=0.
	// min x + 10(1−y) = x − 10y + 10; x ∈ [0,10].
	// y=1 forces x ≥ 5: obj 5. y=0: obj 10. Optimal: x=5, y=1.
	m := NewModel()
	x := m.AddVar(0, 10, 1, false)
	y := m.AddBinary(-10)
	m.AddIndicatorGE(y, []int{x}, []float64{1}, 5)
	res := solveOK(t, m, nil)
	if res.Status != StatusOptimal {
		t.Fatalf("status = %v", res.Status)
	}
	if math.Abs(res.Obj-(-5)) > 1e-6 {
		t.Fatalf("obj = %v, want -5 (x=5, y=1)", res.Obj)
	}
	if math.Round(res.X[y]) != 1 || math.Abs(res.X[x]-5) > 1e-6 {
		t.Fatalf("x = %v", res.X)
	}
}

func TestIndicatorLE(t *testing.T) {
	// y = 1 ⟹ x ≤ 2; maximize x + 4y with x ∈ [0,10].
	// y=1: x=2, value 6. y=0: x=10, value 10. Optimal y=0.
	m := NewModel()
	x := m.AddVar(0, 10, -1, false)
	y := m.AddBinary(-4)
	m.AddIndicatorLE(y, []int{x}, []float64{1}, 2)
	res := solveOK(t, m, nil)
	if res.Status != StatusOptimal || math.Abs(res.Obj-(-10)) > 1e-6 {
		t.Fatalf("status=%v obj=%v, want optimal -10", res.Status, res.Obj)
	}
}

func TestChanceConstraintShape(t *testing.T) {
	// Miniature SAA: 3 scenarios of a gain coefficient for 2 tuples; require
	// at least 2 of 3 scenarios to satisfy gain ≥ 1; maximize mean gain.
	gains := [][]float64{ // scenario × tuple
		{1.0, -0.5},
		{0.5, 2.0},
		{-1.0, 0.8},
	}
	mean := []float64{(1.0 + 0.5 - 1.0) / 3, (-0.5 + 2.0 + 0.8) / 3}
	m := NewModel()
	x0 := m.AddVar(0, 2, -mean[0], true)
	x1 := m.AddVar(0, 2, -mean[1], true)
	ys := make([]int, 3)
	for j := 0; j < 3; j++ {
		ys[j] = m.AddBinary(0)
		m.AddIndicatorGE(ys[j], []int{x0, x1}, gains[j], 1)
	}
	m.AddRow(ys, []float64{1, 1, 1}, 2, Inf) // ⌈pM⌉ = 2
	m.AddRow([]int{x0, x1}, []float64{1, 1}, 1, Inf)
	res := solveOK(t, m, nil)
	if res.Status != StatusOptimal {
		t.Fatalf("status = %v", res.Status)
	}
	// Verify the chance constraint on the returned package.
	satisfied := 0
	for j := 0; j < 3; j++ {
		if gains[j][0]*res.X[x0]+gains[j][1]*res.X[x1] >= 1-1e-9 {
			satisfied++
		}
	}
	if satisfied < 2 {
		t.Fatalf("only %d scenarios satisfied, want ≥ 2 (x=%v)", satisfied, res.X)
	}
}

func TestIndicatorRequiresFiniteBounds(t *testing.T) {
	m := NewModel()
	x := m.AddVar(0, Inf, 1, false)
	y := m.AddBinary(0)
	m.AddIndicatorGE(y, []int{x}, []float64{1}, 5)
	if _, err := Solve(m, nil); err == nil {
		t.Fatal("expected error for indicator over unbounded variable")
	}
}

func TestIndicatorRequiresBinary(t *testing.T) {
	m := NewModel()
	x := m.AddVar(0, 10, 1, false)
	z := m.AddVar(0, 5, 0, true)
	m.AddIndicatorGE(z, []int{x}, []float64{1}, 5)
	if _, err := Solve(m, nil); err == nil {
		t.Fatal("expected error for non-binary indicator variable")
	}
}

// TestTimeLimitReturnsIncumbent: a time limit that expires mid-search
// returns the incumbent found so far. Simple rounding settles the parity
// knapsack's optimum at the root, and proving it enumerates, so the limit
// binds with that package in hand.
func TestTimeLimitReturnsIncumbent(t *testing.T) {
	const n = 41
	m := parityModel(n)
	res := solveOK(t, m, &Options{TimeLimit: 20 * time.Millisecond, MaxNodes: 1 << 30})
	if res.Status != StatusFeasible || res.Stop != StopTimeCap || res.Obj != -(n-1)/2 {
		t.Fatalf("status %v, stop %d, obj %v; want feasible at the time cap with obj %d", res.Status, res.Stop, res.Obj, -(n-1)/2)
	}
	if obj, ok := checkFeasible(m, res.X); !ok || obj != res.Obj {
		t.Fatalf("returned an infeasible package (obj %v, reported %v)", obj, res.Obj)
	}
}

// TestStopReason: Result.Stop names the budget that ended a search, apart
// from what it found. The model is the parity model with Σ 2x ≤ n − ½: the
// root LP's one fractional value is ¼, so rounding finds an incumbent at the
// root, and the "time cap" and "node cap" budgets bind after that: each
// keeps that package and reports StatusFeasible, so the status alone cannot
// tell a node cap, which repeats run to run, from a time cap, which does
// not. A budget that binds before the root's first incumbent (a time cap of
// a nanosecond, a closed Cancel) returns StatusLimit and no package.
func TestStopReason(t *testing.T) {
	const n = 41
	model := func() *Model {
		m := NewModel()
		idxs, twos := make([]int, n), make([]float64, n)
		for j := range idxs {
			idxs[j], twos[j] = m.AddBinary(-1), 2
		}
		m.AddRow(idxs, twos, -Inf, n-0.5)
		return m
	}
	closed := make(chan struct{})
	close(closed)
	for _, tc := range []struct {
		name   string
		opts   Options
		status Status
		stop   Stop
	}{
		{"time cap", Options{TimeLimit: 50 * time.Millisecond, MaxNodes: 1 << 30}, StatusFeasible, StopTimeCap},
		{"time cap at the root", Options{TimeLimit: time.Nanosecond}, StatusLimit, StopTimeCap},
		{"cancelled", Options{Cancel: closed}, StatusLimit, StopCancelled},
		{"node cap", Options{MaxNodes: 50}, StatusFeasible, StopNodeCap},
	} {
		res := solveOK(t, model(), &tc.opts)
		if res.Status != tc.status || res.Stop != tc.stop || (res.X != nil) != (tc.status == StatusFeasible) {
			t.Fatalf("%s: status %v, stop %d, package %t; want %v, stop %d", tc.name, res.Status, res.Stop, res.X != nil, tc.status, tc.stop)
		}
	}
	if res := solveOK(t, parityModel(7), nil); res.Status != StatusOptimal || res.Stop != StopComplete {
		t.Fatalf("small parity model: status %v, stop %d; want optimal, complete", res.Status, res.Stop)
	}
}

func TestGapTermination(t *testing.T) {
	m := NewModel()
	s := rng.NewStream(5)
	const n = 25
	idxs := make([]int, n)
	w := make([]float64, n)
	for j := 0; j < n; j++ {
		idxs[j] = m.AddVar(0, 1, -(1 + s.Float64()), true)
		w[j] = 1 + s.Float64()*3
	}
	m.AddRow(idxs, w, -Inf, 12)
	res := solveOK(t, m, &Options{RelGap: 0.5})
	if res.X == nil {
		t.Fatal("gap-based solve returned no solution")
	}
}

// Exhaustive cross-check: random small integer programs vs brute force.
func TestRandomIPAgainstBruteForce(t *testing.T) {
	s := rng.NewStream(11)
	for trial := 0; trial < 50; trial++ {
		n := 2 + s.IntN(3) // 2..4 vars
		ub := 2
		m := NewModel()
		obj := make([]float64, n)
		idxs := make([]int, n)
		for j := 0; j < n; j++ {
			obj[j] = math.Round((s.Float64()*6-3)*10) / 10
			idxs[j] = m.AddVar(0, float64(ub), obj[j], true)
		}
		nrows := 1 + s.IntN(2)
		rows := make([][]float64, nrows)
		rlo := make([]float64, nrows)
		rhi := make([]float64, nrows)
		for r := 0; r < nrows; r++ {
			rows[r] = make([]float64, n)
			for j := 0; j < n; j++ {
				rows[r][j] = math.Round((s.Float64()*4-2)*10) / 10
			}
			if s.IntN(2) == 0 {
				rlo[r], rhi[r] = math.Inf(-1), s.Float64()*4
			} else {
				rlo[r], rhi[r] = -s.Float64()*2, math.Inf(1)
			}
			m.AddRow(idxs, rows[r], rlo[r], rhi[r])
		}
		res, err := Solve(m, nil)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// Brute force over {0..ub}^n.
		bestObj := math.Inf(1)
		found := false
		total := 1
		for j := 0; j < n; j++ {
			total *= ub + 1
		}
		for code := 0; code < total; code++ {
			c := code
			x := make([]float64, n)
			for j := 0; j < n; j++ {
				x[j] = float64(c % (ub + 1))
				c /= ub + 1
			}
			ok := true
			for r := 0; r < nrows; r++ {
				dot := 0.0
				for j := 0; j < n; j++ {
					dot += rows[r][j] * x[j]
				}
				if dot < rlo[r]-1e-9 || dot > rhi[r]+1e-9 {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			found = true
			o := 0.0
			for j := 0; j < n; j++ {
				o += obj[j] * x[j]
			}
			if o < bestObj {
				bestObj = o
			}
		}
		switch {
		case found && res.Status == StatusOptimal:
			if math.Abs(res.Obj-bestObj) > 1e-6 {
				t.Fatalf("trial %d: milp obj %v, brute force %v", trial, res.Obj, bestObj)
			}
		case found && res.Status == StatusInfeasible:
			t.Fatalf("trial %d: milp infeasible, brute force found %v", trial, bestObj)
		case !found && res.Status == StatusOptimal:
			t.Fatalf("trial %d: milp optimal %v, brute force infeasible", trial, res.Obj)
		}
	}
}

func TestRandomIndicatorModelsAgainstBruteForce(t *testing.T) {
	s := rng.NewStream(13)
	for trial := 0; trial < 40; trial++ {
		// 2 integer vars in {0..2}, 2 indicator constraints, require ≥1 active.
		m := NewModel()
		x0 := m.AddVar(0, 2, math.Round(s.Float64()*20)/10-1, true)
		x1 := m.AddVar(0, 2, math.Round(s.Float64()*20)/10-1, true)
		coefs := make([][]float64, 2)
		rhs := make([]float64, 2)
		ys := make([]int, 2)
		for k := 0; k < 2; k++ {
			coefs[k] = []float64{math.Round((s.Float64()*4 - 2)), math.Round((s.Float64()*4 - 2))}
			rhs[k] = math.Round(s.Float64() * 3)
			ys[k] = m.AddBinary(0)
			m.AddIndicatorGE(ys[k], []int{x0, x1}, coefs[k], rhs[k])
		}
		m.AddRow(ys, []float64{1, 1}, 1, Inf)
		m.AddRow([]int{x0, x1}, []float64{1, 1}, 1, 4) // package nonempty
		res, err := Solve(m, nil)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// Brute force x over {0..2}², checking the disjunction directly.
		bestObj := math.Inf(1)
		found := false
		for a := 0; a <= 2; a++ {
			for b := 0; b <= 2; b++ {
				if a+b < 1 || a+b > 4 {
					continue
				}
				sat := 0
				for k := 0; k < 2; k++ {
					if coefs[k][0]*float64(a)+coefs[k][1]*float64(b) >= rhs[k]-1e-9 {
						sat++
					}
				}
				if sat < 1 {
					continue
				}
				found = true
				o := m.vars[x0].obj*float64(a) + m.vars[x1].obj*float64(b)
				if o < bestObj {
					bestObj = o
				}
			}
		}
		switch {
		case found && res.Status == StatusOptimal:
			if res.Obj > bestObj+1e-6 {
				t.Fatalf("trial %d: milp obj %v worse than brute force %v", trial, res.Obj, bestObj)
			}
		case found && res.Status == StatusInfeasible:
			t.Fatalf("trial %d: milp infeasible, brute force found %v", trial, bestObj)
		case !found && res.Status == StatusOptimal:
			t.Fatalf("trial %d: milp found %v, brute force infeasible", trial, res.Obj)
		}
	}
}

func TestNumCoefficients(t *testing.T) {
	m := NewModel()
	x := m.AddVar(0, 1, 1, true)
	y := m.AddBinary(0)
	m.AddRow([]int{x, y}, []float64{1, 1}, 0, 2)
	m.AddIndicatorGE(y, []int{x}, []float64{2}, 1)
	// Row has 2 coefficients; indicator has 1 term + 1 big-M entry.
	if got := m.NumCoefficients(); got != 4 {
		t.Fatalf("NumCoefficients = %d, want 4", got)
	}
}

func TestStatusStrings(t *testing.T) {
	want := map[Status]string{
		StatusOptimal:    "optimal",
		StatusFeasible:   "feasible",
		StatusInfeasible: "infeasible",
		StatusUnbounded:  "unbounded",
		StatusLimit:      "limit",
	}
	for st, w := range want {
		if st.String() != w {
			t.Errorf("%d.String() = %q, want %q", int(st), st.String(), w)
		}
	}
}
