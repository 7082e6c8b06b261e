package lp

import (
	"math"
	"testing"
)

// buildBranchy returns an LP shaped like a branch-and-bound node relaxation:
// a handful of coupling rows over many bounded columns.
func buildBranchy(n int) *Problem {
	p := NewProblem(n)
	for j := 0; j < n; j++ {
		p.SetObj(j, -float64((j*7)%13+1)) // maximize value
		p.SetVarBounds(j, 0, 3)
	}
	var idxs []int
	var w1, w2 []float64
	for j := 0; j < n; j++ {
		idxs = append(idxs, j)
		w1 = append(w1, float64((j*5)%11+1))
		w2 = append(w2, float64((j*3)%7+1))
	}
	p.AddRow(idxs, w1, -Inf, float64(4*n))
	p.AddRow(idxs, w2, -Inf, float64(3*n))
	return p
}

func TestWarmStartReproducesColdOptimum(t *testing.T) {
	p := buildBranchy(24)
	parent, err := Solve(p, &Options{WantBasis: true})
	if err != nil || parent.Status != StatusOptimal {
		t.Fatalf("parent solve: %+v err=%v", parent, err)
	}
	if parent.Basis == nil {
		t.Fatal("WantBasis set but no basis returned")
	}
	if parent.WarmStarted {
		t.Fatal("cold solve must not report WarmStarted")
	}
	// Branch: clamp a fractional-ish variable both ways and compare warm vs
	// cold child solves.
	for branchVar := 0; branchVar < 6; branchVar++ {
		for _, dir := range []string{"down", "up"} {
			lo := append([]float64(nil), p.varLo...)
			hi := append([]float64(nil), p.varHi...)
			if dir == "down" {
				hi[branchVar] = 1
			} else {
				lo[branchVar] = 2
			}
			cold, err := SolveWithBounds(p, lo, hi, nil)
			if err != nil {
				t.Fatalf("cold child: %v", err)
			}
			warm, err := SolveWithBounds(p, lo, hi, &Options{Basis: parent.Basis})
			if err != nil {
				t.Fatalf("warm child: %v", err)
			}
			if warm.Status != cold.Status {
				t.Fatalf("%s[%d]: warm status %v != cold %v", dir, branchVar, warm.Status, cold.Status)
			}
			if cold.Status == StatusOptimal && math.Abs(warm.Obj-cold.Obj) > 1e-6 {
				t.Fatalf("%s[%d]: warm obj %.12g != cold %.12g", dir, branchVar, warm.Obj, cold.Obj)
			}
			if !warm.WarmStarted {
				t.Fatalf("%s[%d]: warm solve did not accept the seed", dir, branchVar)
			}
			if warm.Iters >= cold.Iters && cold.Iters > 2 {
				// Not a hard guarantee, but on this family reinstatement
				// should beat two-phase from the logical basis.
				t.Logf("%s[%d]: warm iters %d ≥ cold %d", dir, branchVar, warm.Iters, cold.Iters)
			}
		}
	}
}

func TestWarmStartDeterministic(t *testing.T) {
	p := buildBranchy(16)
	parent, err := Solve(p, &Options{WantBasis: true})
	if err != nil || parent.Status != StatusOptimal {
		t.Fatalf("parent solve: %+v err=%v", parent, err)
	}
	lo := append([]float64(nil), p.varLo...)
	hi := append([]float64(nil), p.varHi...)
	hi[3] = 1
	var first *Solution
	for rep := 0; rep < 3; rep++ {
		sol, err := SolveWithBounds(p, lo, hi, &Options{Basis: parent.Basis, WantBasis: true})
		if err != nil {
			t.Fatalf("rep %d: %v", rep, err)
		}
		if first == nil {
			first = sol
			continue
		}
		if sol.Status != first.Status || sol.Obj != first.Obj || sol.Iters != first.Iters {
			t.Fatalf("rep %d: (%v, %v, %d) != (%v, %v, %d)",
				rep, sol.Status, sol.Obj, sol.Iters, first.Status, first.Obj, first.Iters)
		}
		for j := range sol.X {
			if sol.X[j] != first.X[j] {
				t.Fatalf("rep %d: X[%d] %v != %v (must be bit-identical)", rep, j, sol.X[j], first.X[j])
			}
		}
	}
}

func TestWarmStartShapeMismatchFallsBack(t *testing.T) {
	p := buildBranchy(16)
	parent, err := Solve(p, &Options{WantBasis: true})
	if err != nil {
		t.Fatal(err)
	}
	other := buildBranchy(8)
	sol, err := Solve(other, &Options{Basis: parent.Basis})
	if err != nil {
		t.Fatal(err)
	}
	if sol.WarmStarted {
		t.Fatal("mismatched basis must fall back to the cold path")
	}
	if sol.Status != StatusOptimal {
		t.Fatalf("fallback solve status %v", sol.Status)
	}
	cold, _ := Solve(other, nil)
	if math.Abs(sol.Obj-cold.Obj) > 1e-9 {
		t.Fatalf("fallback obj %g != cold %g", sol.Obj, cold.Obj)
	}
}

func TestWarmStartInfeasibleChild(t *testing.T) {
	p := NewProblem(2)
	p.SetObj(0, -1)
	p.SetObj(1, -1)
	p.SetVarBounds(0, 0, 4)
	p.SetVarBounds(1, 0, 4)
	p.AddRow([]int{0, 1}, []float64{1, 1}, 5, Inf) // x0 + x1 ≥ 5
	parent, err := Solve(p, &Options{WantBasis: true})
	if err != nil || parent.Status != StatusOptimal {
		t.Fatalf("parent: %+v err=%v", parent, err)
	}
	lo := []float64{0, 0}
	hi := []float64{2, 2} // now x0+x1 ≤ 4 < 5: infeasible
	warm, err := SolveWithBounds(p, lo, hi, &Options{Basis: parent.Basis})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Status != StatusInfeasible {
		t.Fatalf("warm child status %v, want infeasible", warm.Status)
	}
}

func TestScratchReuseMatchesFresh(t *testing.T) {
	p := buildBranchy(20)
	sc := &Scratch{}
	for rep := 0; rep < 4; rep++ {
		sol, err := Solve(p, &Options{Scratch: sc, WantBasis: true})
		if err != nil || sol.Status != StatusOptimal {
			t.Fatalf("rep %d: %+v err=%v", rep, sol, err)
		}
		fresh, err := Solve(p, &Options{WantBasis: true})
		if err != nil {
			t.Fatal(err)
		}
		if sol.Obj != fresh.Obj || sol.Iters != fresh.Iters {
			t.Fatalf("rep %d: scratch solve (%v, %d) != fresh (%v, %d)",
				rep, sol.Obj, sol.Iters, fresh.Obj, fresh.Iters)
		}
		for j := range sol.X {
			if sol.X[j] != fresh.X[j] {
				t.Fatalf("rep %d: X[%d] differs with scratch reuse", rep, j)
			}
		}
	}
	// Scratch must also be reusable across differently-sized problems.
	small := buildBranchy(5)
	sSol, err := Solve(small, &Options{Scratch: sc})
	if err != nil || sSol.Status != StatusOptimal {
		t.Fatalf("small: %+v err=%v", sSol, err)
	}
	fSol, _ := Solve(small, nil)
	if sSol.Obj != fSol.Obj {
		t.Fatalf("small scratch obj %g != fresh %g", sSol.Obj, fSol.Obj)
	}
}

// TestScratchSolutionAliasing states the contract of a lent Scratch: the
// Solution, its X and its Basis live in the Scratch and the next solve
// overwrites them in place; what the caller copied out is its own, and a
// solve that was lent nothing returns memory nobody else touches.
func TestScratchSolutionAliasing(t *testing.T) {
	p := buildBranchy(20)
	want, err := Solve(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	lo := append([]float64(nil), p.varLo...)
	hi := append([]float64(nil), p.varHi...)
	for j, x := range want.X {
		if x > 0 {
			hi[j] = 0 // a different optimum
			break
		}
	}
	wantChild, err := SolveWithBounds(p, lo, hi, nil)
	if err != nil || wantChild.Obj == want.Obj {
		t.Fatalf("child must move the optimum: %v vs %v (err=%v)", wantChild.Obj, want.Obj, err)
	}

	sc := &Scratch{}
	first, err := Solve(p, &Options{Scratch: sc, WantBasis: true})
	if err != nil {
		t.Fatal(err)
	}
	kept := append([]float64(nil), first.X...)
	var keptBasis Basis
	sc.SnapshotBasis(&keptBasis)
	second, err := SolveWithBounds(p, lo, hi, &Options{Scratch: sc, WantBasis: true})
	if err != nil {
		t.Fatal(err)
	}
	if first != second || &first.X[0] != &second.X[0] || first.Basis != second.Basis {
		t.Fatal("solves on one Scratch must return the Scratch's one Solution, X and Basis")
	}
	if first.Obj != wantChild.Obj {
		t.Fatalf("the first Solution must now read as the second solve: obj %v, want %v", first.Obj, wantChild.Obj)
	}
	for j := range kept {
		if first.X[j] != wantChild.X[j] {
			t.Fatalf("X[%d] = %v after the second solve, want the child's %v", j, first.X[j], wantChild.X[j])
		}
		if kept[j] != want.X[j] {
			t.Fatalf("copied X[%d] = %v changed under the second solve, want %v", j, kept[j], want.X[j])
		}
	}
	// The snapshot taken into caller memory still seeds the parent's basis:
	// re-solving the parent from it needs no iteration.
	again, err := Solve(p, &Options{Basis: &keptBasis})
	if err != nil || !again.WarmStarted || again.Iters != 0 || math.Abs(again.Obj-want.Obj) > 1e-9 {
		t.Fatalf("kept basis: %+v err=%v", again, err)
	}
	// A recycled basis is unloadable, not stale.
	keptBasis.Reset()
	cold, err := Solve(p, &Options{Basis: &keptBasis})
	if err != nil || cold.WarmStarted || cold.Obj != want.Obj {
		t.Fatalf("reset basis: %+v err=%v", cold, err)
	}
	// Unlent solves share nothing.
	a, _ := Solve(p, &Options{WantBasis: true})
	b, _ := SolveWithBounds(p, lo, hi, &Options{WantBasis: true})
	if a == b || &a.X[0] == &b.X[0] || a.Basis == b.Basis || a.Obj != want.Obj {
		t.Fatal("solves without a Scratch must not share memory")
	}
}

// TestWarmSolveAllocatesNothing is the kernel's allocation budget: a
// warm-started solve on a Scratch that has seen the problem, basis snapshot
// included, allocates nothing — state, Solution, X and Basis all live in the
// Scratch. Branch-and-bound runs this tens of thousands of times per query.
func TestWarmSolveAllocatesNothing(t *testing.T) {
	p := buildBranchy(24)
	parent, err := Solve(p, &Options{WantBasis: true})
	if err != nil || parent.Status != StatusOptimal {
		t.Fatalf("parent: %+v err=%v", parent, err)
	}
	lo := append([]float64(nil), p.varLo...)
	hi := append([]float64(nil), p.varHi...)
	hi[3] = 1
	opts := &Options{Basis: parent.Basis, WantBasis: true, Scratch: &Scratch{}}
	solve := func() {
		sol, err := SolveWithBounds(p, lo, hi, opts)
		if err != nil || sol.Status != StatusOptimal || !sol.WarmStarted || sol.Iters == 0 || sol.Basis == nil {
			t.Fatalf("warm child: %+v err=%v", sol, err)
		}
	}
	solve() // grows the Scratch
	if n := testing.AllocsPerRun(50, solve); n != 0 {
		t.Fatalf("warm solve on a lent Scratch allocates %v objects, want 0", n)
	}
}

// TestCrossedBoundsAllocateNothing: a solve whose bounds cross returns
// before any simplex work, and with a lent Scratch its Solution lives there
// like any other's. Branch-and-bound hits this path whenever reduced-cost
// fixing has emptied a column's root interval.
func TestCrossedBoundsAllocateNothing(t *testing.T) {
	p := buildBranchy(24)
	lo := append([]float64(nil), p.varLo...)
	hi := append([]float64(nil), p.varHi...)
	lo[5], hi[5] = 2, 1
	opts := &Options{Scratch: &Scratch{}}
	solve := func() {
		sol, err := SolveWithBounds(p, lo, hi, opts)
		if err != nil || sol.Status != StatusInfeasible || len(sol.X) != p.NumVars() {
			t.Fatalf("crossed bounds: %+v err=%v", sol, err)
		}
	}
	solve() // grows the Scratch
	if n := testing.AllocsPerRun(50, solve); n != 0 {
		t.Fatalf("crossed-bound solve on a lent Scratch allocates %v objects, want 0", n)
	}
}

func TestDualBoundFlipFastPath(t *testing.T) {
	// Knapsack LP engineered so the warm-started dual reinstatement must
	// traverse small-span candidates before the ratio test finds a pivot that
	// repairs the violated row: max 3(x0+…+x3) + 6·x4 subject to
	// 0.2(x0+…+x3) + x4 ≤ 1.55, x ∈ [0,1]⁵. The parent optimum holds
	// x0..x3 at upper and x4 basic at 0.75; up-branching x4 (lo=1) leaves a
	// 0.25 violation that one candidate's full 0.2-weight traversal cannot
	// close, so the kernel must flip it bound-to-bound (no eta) and move on.
	p := NewProblem(5)
	for j := 0; j < 4; j++ {
		p.SetObj(j, -3)
		p.SetVarBounds(j, 0, 1)
	}
	p.SetObj(4, -6)
	p.SetVarBounds(4, 0, 1)
	p.AddRow([]int{0, 1, 2, 3, 4}, []float64{0.2, 0.2, 0.2, 0.2, 1}, -Inf, 1.55)
	parent, err := Solve(p, &Options{WantBasis: true})
	if err != nil || parent.Status != StatusOptimal {
		t.Fatalf("parent: %+v err=%v", parent, err)
	}
	if parent.BoundFlips != 0 {
		t.Fatalf("cold solve recorded %d bound flips (dual path never ran)", parent.BoundFlips)
	}
	lo := append([]float64(nil), p.varLo...)
	hi := append([]float64(nil), p.varHi...)
	lo[4] = 1 // up-branch on the fractional basic
	cold, err := SolveWithBounds(p, lo, hi, nil)
	if err != nil || cold.Status != StatusOptimal {
		t.Fatalf("cold child: %+v err=%v", cold, err)
	}
	warm, err := SolveWithBounds(p, lo, hi, &Options{Basis: parent.Basis})
	if err != nil || warm.Status != StatusOptimal {
		t.Fatalf("warm child: %+v err=%v", warm, err)
	}
	if !warm.WarmStarted {
		t.Fatal("warm child did not accept the seed")
	}
	if warm.BoundFlips == 0 {
		t.Fatal("expected at least one bound flip during dual reinstatement")
	}
	if math.Abs(warm.Obj-cold.Obj) > 1e-9 {
		t.Fatalf("warm obj %.12g != cold %.12g", warm.Obj, cold.Obj)
	}
	// The fast path must stay deterministic like every other kernel counter.
	rep, err := SolveWithBounds(p, lo, hi, &Options{Basis: parent.Basis})
	if err != nil || rep.BoundFlips != warm.BoundFlips || rep.Iters != warm.Iters {
		t.Fatalf("flip counter unstable: (%d,%d) vs (%d,%d), err=%v",
			rep.BoundFlips, rep.Iters, warm.BoundFlips, warm.Iters, err)
	}
}

func TestDegenPivotCounterMonotone(t *testing.T) {
	// A degenerate transportation-style LP should record at least zero (and
	// usually some) degenerate pivots; the counter must never be negative and
	// must be stable across repeats.
	p := NewProblem(6)
	for j := 0; j < 6; j++ {
		p.SetObj(j, float64(j%3)+1)
		p.SetVarBounds(j, 0, 10)
	}
	p.AddRow([]int{0, 1, 2}, []float64{1, 1, 1}, 5, 5)
	p.AddRow([]int{3, 4, 5}, []float64{1, 1, 1}, 5, 5)
	p.AddRow([]int{0, 3}, []float64{1, 1}, 5, 5)
	p.AddRow([]int{1, 4}, []float64{1, 1}, 0, 0)
	a, err := Solve(p, nil)
	if err != nil || a.Status != StatusOptimal {
		t.Fatalf("%+v err=%v", a, err)
	}
	b, _ := Solve(p, nil)
	if a.DegenPivots < 0 || a.DegenPivots != b.DegenPivots {
		t.Fatalf("DegenPivots unstable: %d vs %d", a.DegenPivots, b.DegenPivots)
	}
}
