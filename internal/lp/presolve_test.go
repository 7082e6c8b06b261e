package lp

import (
	"math"
	"testing"
)

func TestPresolveEmptyRowDropped(t *testing.T) {
	p := NewProblem(1)
	p.SetObj(0, 1)
	p.SetVarBounds(0, 0, 5)
	p.AddRow(nil, nil, -1, 1) // 0·x in [-1, 1]: vacuous
	pr := PresolveProblem(p, nil, nil, nil)
	if pr.Infeasible || pr.Unbounded {
		t.Fatalf("unexpected verdict: %+v", pr)
	}
	if pr.RowsRemoved != 1 {
		t.Fatalf("RowsRemoved = %d, want 1", pr.RowsRemoved)
	}
	if pr.Reduced.NumRows() != 0 {
		t.Fatalf("reduced rows = %d, want 0", pr.Reduced.NumRows())
	}
}

func TestPresolveEmptyRowInfeasible(t *testing.T) {
	p := NewProblem(1)
	p.AddRow(nil, nil, 1, 2) // 0 ≥ 1: impossible
	pr := PresolveProblem(p, nil, nil, nil)
	if !pr.Infeasible {
		t.Fatal("empty row with positive lower bound must be infeasible")
	}
}

func TestPresolveSingletonRowTightensBound(t *testing.T) {
	p := NewProblem(2)
	p.SetObj(0, -1) // maximize x0
	p.SetVarBounds(0, 0, 100)
	p.SetVarBounds(1, 0, 1)
	p.AddRow([]int{0}, []float64{2}, -Inf, 10) // 2·x0 ≤ 10 ⟹ x0 ≤ 5
	pr := PresolveProblem(p, nil, nil, nil)
	if pr.RowsRemoved != 1 {
		t.Fatalf("RowsRemoved = %d, want 1 (singleton absorbed)", pr.RowsRemoved)
	}
	// After the row is absorbed x0 is an empty column with a maximizing
	// objective: presolve fixes it at the tightened upper bound 5.
	if pr.ColsRemoved != 2 {
		t.Fatalf("ColsRemoved = %d, want 2", pr.ColsRemoved)
	}
	x := pr.Postsolve(nil)
	if math.Abs(x[0]-5) > 1e-6 {
		t.Fatalf("x0 fixed at %g, want the tightened bound 5", x[0])
	}
}

func TestPresolveRedundantRowDropped(t *testing.T) {
	p := NewProblem(2)
	p.SetVarBounds(0, 0, 1)
	p.SetVarBounds(1, 0, 1)
	p.AddRow([]int{0, 1}, []float64{1, 1}, -Inf, 10) // x0+x1 ≤ 10: implied by boxes
	p.AddRow([]int{0, 1}, []float64{1, 1}, -Inf, 1)  // binding
	pr := PresolveProblem(p, nil, nil, nil)
	if pr.RowsRemoved != 1 {
		t.Fatalf("RowsRemoved = %d, want 1 (only the redundant row)", pr.RowsRemoved)
	}
	if pr.Reduced.NumRows() != 1 {
		t.Fatalf("reduced rows = %d, want 1", pr.Reduced.NumRows())
	}
}

func TestPresolveFixedColumnEliminated(t *testing.T) {
	p := NewProblem(2)
	p.SetObj(0, 3)
	p.SetObj(1, 1)
	p.SetVarBounds(0, 2, 2) // fixed at 2
	p.SetVarBounds(1, 0, 10)
	p.AddRow([]int{0, 1}, []float64{1, 1}, 5, Inf) // 2 + x1 ≥ 5 ⟹ x1 ≥ 3
	pr := PresolveProblem(p, nil, nil, nil)
	// x0 is substituted into the row (x1 ≥ 3), which then becomes a
	// singleton, tightens x1, and leaves x1 an empty minimized column fixed
	// at 3 — the whole LP presolves away.
	if pr.ColsRemoved != 2 {
		t.Fatalf("ColsRemoved = %d, want 2", pr.ColsRemoved)
	}
	if math.Abs(pr.ObjOffset-9) > 1e-6 {
		t.Fatalf("ObjOffset = %g, want 9 (3·2 + 1·3)", pr.ObjOffset)
	}
	sol, err := Solve(pr.Reduced, nil)
	if err != nil || sol.Status != StatusOptimal {
		t.Fatalf("reduced solve: %v %v", sol, err)
	}
	if math.Abs(sol.Obj+pr.ObjOffset-9) > 1e-6 {
		t.Fatalf("reduced obj %g + offset %g != 9", sol.Obj, pr.ObjOffset)
	}
	x := pr.Postsolve(sol.X)
	if math.Abs(x[0]-2) > 1e-9 || math.Abs(x[1]-3) > 1e-6 {
		t.Fatalf("postsolved x = %v, want [2 3]", x)
	}
}

func TestPresolveEmptyColumnFixedByObjSign(t *testing.T) {
	p := NewProblem(2)
	p.SetObj(0, 1)  // minimized: fix at lower
	p.SetObj(1, -1) // maximized: fix at upper
	p.SetVarBounds(0, -3, 7)
	p.SetVarBounds(1, 0, 4)
	pr := PresolveProblem(p, nil, nil, nil)
	if pr.ColsRemoved != 2 {
		t.Fatalf("ColsRemoved = %d, want 2", pr.ColsRemoved)
	}
	x := pr.Postsolve(nil)
	if x[0] != -3 || x[1] != 4 {
		t.Fatalf("fixed values = %v, want [-3 4]", x)
	}
	if math.Abs(pr.ObjOffset-(-3-4)) > 1e-9 {
		t.Fatalf("ObjOffset = %g, want -7", pr.ObjOffset)
	}
}

func TestPresolveEmptyColumnUnbounded(t *testing.T) {
	p := NewProblem(1)
	p.SetObj(0, -1)
	p.SetVarBounds(0, 0, Inf) // maximize an unbounded empty column
	pr := PresolveProblem(p, nil, nil, nil)
	if !pr.Unbounded {
		t.Fatal("costed empty column without finite improving bound must be Unbounded")
	}
}

func TestPresolveIntegerBoundRounding(t *testing.T) {
	// Multi-entry row so the tightened variable survives into the reduced
	// problem: 2·x0 + x1 ≤ 7 with x1 ≥ 0 implies x0 ≤ 3.5, rounded to 3 for
	// the integer x0.
	p := NewProblem(2)
	p.SetObj(0, -1)
	p.SetObj(1, -1)
	p.SetVarBounds(0, 0, 10)
	p.SetVarBounds(1, 0, 10)
	p.AddRow([]int{0, 1}, []float64{2, 1}, 0, 7)
	pr := PresolveProblem(p, nil, nil, []bool{true, false})
	if pr.Infeasible {
		t.Fatal("unexpected infeasible")
	}
	r := -1
	for j := 0; j < pr.NumReduced(); j++ {
		if pr.Col(j) == 0 {
			r = j
		}
	}
	if r < 0 {
		t.Fatal("x0 eliminated unexpectedly")
	}
	if pr.Lo[r] != 0 || pr.Hi[r] != 3 {
		t.Fatalf("integer bounds = [%g, %g], want [0, 3]", pr.Lo[r], pr.Hi[r])
	}
}

func TestPresolveBoundCrossInfeasible(t *testing.T) {
	p := NewProblem(2)
	p.SetVarBounds(0, 0, 1)
	p.SetVarBounds(1, 0, 1)
	p.AddRow([]int{0, 1}, []float64{1, 1}, 3, Inf) // x0+x1 ≥ 3 over [0,1]²
	pr := PresolveProblem(p, nil, nil, nil)
	if !pr.Infeasible {
		t.Fatal("activity range [0,2] cannot reach lower bound 3: must be infeasible")
	}
}

// TestPresolveSolveEquivalence solves a batch of random LPs directly and via
// presolve+postsolve and demands matching status and objective.
func TestPresolveSolveEquivalence(t *testing.T) {
	// Deterministic xorshift so the corpus is stable.
	seed := uint64(0x9E3779B97F4A7C15)
	next := func() float64 {
		seed ^= seed << 13
		seed ^= seed >> 7
		seed ^= seed << 17
		return float64(seed%1000)/500 - 1 // [-1, 1)
	}
	for trial := 0; trial < 60; trial++ {
		n := 3 + int(math.Abs(next())*5)
		p := NewProblem(n)
		for j := 0; j < n; j++ {
			p.SetObj(j, next())
			lo := math.Floor(next() * 4)
			p.SetVarBounds(j, lo, lo+1+math.Abs(next())*5)
		}
		rows := 1 + trial%4
		for i := 0; i < rows; i++ {
			var idxs []int
			var coefs []float64
			for j := 0; j < n; j++ {
				if next() > 0.2 {
					idxs = append(idxs, j)
					coefs = append(coefs, math.Round(next()*3))
				}
			}
			b := math.Round(next() * 6)
			p.AddRow(idxs, coefs, b-math.Abs(next())*8, b+math.Abs(next())*8)
		}
		direct, err := Solve(p, nil)
		if err != nil {
			t.Fatalf("trial %d direct: %v", trial, err)
		}
		pr := PresolveProblem(p, nil, nil, nil)
		if pr.Infeasible {
			if direct.Status != StatusInfeasible {
				t.Fatalf("trial %d: presolve says infeasible, direct says %v", trial, direct.Status)
			}
			continue
		}
		if pr.Unbounded {
			if direct.Status != StatusUnbounded {
				t.Fatalf("trial %d: presolve says unbounded, direct says %v", trial, direct.Status)
			}
			continue
		}
		red, err := SolveWithBounds(pr.Reduced, pr.Lo, pr.Hi, nil)
		if err != nil {
			t.Fatalf("trial %d reduced: %v", trial, err)
		}
		if red.Status != direct.Status {
			t.Fatalf("trial %d: reduced status %v != direct %v", trial, red.Status, direct.Status)
		}
		if direct.Status != StatusOptimal {
			continue
		}
		if diff := math.Abs(red.Obj + pr.ObjOffset - direct.Obj); diff > 1e-5 {
			t.Fatalf("trial %d: reduced obj %g + offset %g vs direct %g (diff %g)",
				trial, red.Obj, pr.ObjOffset, direct.Obj, diff)
		}
		x := pr.Postsolve(red.X)
		if len(x) != n {
			t.Fatalf("trial %d: postsolve length %d != %d", trial, len(x), n)
		}
	}
}

func TestImpliedVarBoundsDetectsEmptyInterval(t *testing.T) {
	p := NewProblem(2)
	p.SetVarBounds(0, 0, 1)
	p.SetVarBounds(1, 0, 10)
	p.AddRow([]int{0, 1}, []float64{1, 1}, -Inf, 3) // x0 + x1 ≤ 3
	lo := []float64{0, 0}
	hi := []float64{1, 10}
	act := p.NewRowActivity(lo, hi)
	// With x0 ∈ [0,1]: x1 ≤ 3. Tightening x1's domain to [5,10] has an empty
	// intersection with the implied interval.
	l, h := p.ImpliedVarBounds(act, 1, false)
	if l > 0+1e-9 || h < 3-1e-6 || h > 3+1e-6 {
		t.Fatalf("implied x1 bounds = [%g, %g], want roughly (-inf valid lo ≤ 0, 3]", l, h)
	}
	// Integer rounding path.
	p2 := NewProblem(2)
	p2.SetVarBounds(0, 0, 1)
	p2.SetVarBounds(1, 0, 10)
	p2.AddRow([]int{0, 1}, []float64{2, 2}, -Inf, 7) // 2x0+2x1 ≤ 7 ⟹ x1 ≤ 3.5 → 3
	act2 := p2.NewRowActivity(lo, hi)
	_, h2 := p2.ImpliedVarBounds(act2, 1, true)
	if h2 != 3 {
		t.Fatalf("integer implied upper = %g, want 3", h2)
	}
}

// TestPresolveCancelledCoefficient: x0 + x1 − x0 ≥ 0.5 over [0, 1]² stores a
// zero for x0. As a row term that zero divided the implied-bound arithmetic
// by zero and presolve reported the feasible problem infeasible.
func TestPresolveCancelledCoefficient(t *testing.T) {
	p := NewProblem(2)
	p.SetVarBounds(0, 0, 1)
	p.SetVarBounds(1, 0, 1)
	p.SetObj(1, -1)
	p.AddRow([]int{0, 1, 0}, []float64{1, 1, -1}, 0.5, Inf)
	pr := PresolveProblem(p, nil, nil, nil)
	if pr.Infeasible || pr.Unbounded {
		t.Fatalf("presolve: infeasible=%t unbounded=%t, want a reduced problem", pr.Infeasible, pr.Unbounded)
	}
	sol, err := SolveWithBounds(pr.Reduced, pr.Lo, pr.Hi, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantOptimal(t, sol, -1-pr.ObjOffset, 1e-9)
}
