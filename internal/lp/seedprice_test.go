package lp

import (
	"math"
	"testing"
)

// solveCopy is what a solve returned, copied out of its Scratch.
type solveCopy struct {
	status                         Status
	x                              []float64
	obj                            float64
	iters, boundFlips, degenPivots int
	warm                           bool
}

func solveInto(t *testing.T, p *Problem, lo, hi []float64, opts Options) solveCopy {
	t.Helper()
	sol, err := SolveWithBounds(p, lo, hi, &opts)
	if err != nil {
		t.Fatal(err)
	}
	return solveCopy{sol.Status, append([]float64(nil), sol.X...), sol.Obj,
		sol.Iters, sol.BoundFlips, sol.DegenPivots, sol.WarmStarted}
}

// sameSolve reports the first field in which two solves differ, comparing
// floats bit for bit; "" when none does.
func sameSolve(a, b solveCopy) string {
	switch {
	case a.status != b.status:
		return "status " + a.status.String() + " vs " + b.status.String()
	case math.Float64bits(a.obj) != math.Float64bits(b.obj):
		return "objective bits"
	case a.iters != b.iters || a.boundFlips != b.boundFlips || a.degenPivots != b.degenPivots:
		return "iteration counters"
	case a.warm != b.warm:
		return "WarmStarted"
	case len(a.x) != len(b.x):
		return "len(X)"
	}
	for j := range a.x {
		if math.Float64bits(a.x[j]) != math.Float64bits(b.x[j]) {
			return "X bits"
		}
	}
	return ""
}

// child is one branch-and-bound child of a seed: its box and its Fix.
type child struct {
	name   string
	lo, hi []float64
	fix    Fix
}

// branchyFamily is buildBranchy(24), its optimal basis, and children of it:
// down and up on a fractional basic column (both pivot from the seed), and
// the down child under a cutoff below the parent's objective, which fixing
// settles without an iteration (a child box's dual bound is at least the
// parent's objective).
func branchyFamily(t *testing.T) (*Problem, *Basis, []child) {
	t.Helper()
	p := buildBranchy(24)
	parent, err := Solve(p, &Options{WantBasis: true})
	if err != nil || parent.Status != StatusOptimal {
		t.Fatalf("parent: %+v err=%v", parent, err)
	}
	integer := make([]bool, p.NumVars())
	for j := range integer {
		integer[j] = true
	}
	box := func(j int, lo, hi float64) ([]float64, []float64) {
		l := append([]float64(nil), p.varLo...)
		h := append([]float64(nil), p.varHi...)
		l[j], h[j] = lo, hi
		return l, h
	}
	bv := -1
	for j, x := range parent.X {
		if x != math.Floor(x) {
			bv = j
			break
		}
	}
	if bv < 0 {
		t.Fatal("the parent optimum has no fractional column to branch on")
	}
	f := math.Floor(parent.X[bv])
	dLo, dHi := box(bv, p.varLo[bv], f)
	uLo, uHi := box(bv, f+1, p.varHi[bv])
	loose := Fix{Integer: integer, Cutoff: parent.Obj / 2}
	return p, parent.Basis, []child{
		{"down", dLo, dHi, loose},
		{"up", uLo, uHi, loose},
		{"down, fixed infeasible", dLo, dHi, Fix{Integer: integer, Cutoff: parent.Obj - 1}},
	}
}

// TestSeedPricingSiblings: children of one seed solved back to back on one
// Scratch — the second reading the first's pricing of the seed — match each
// child solved on a fresh Scratch bit for bit, whether the first child
// pivots or is settled by fixing.
func TestSeedPricingSiblings(t *testing.T) {
	p, seed, kids := branchyFamily(t)
	fresh := func(c child) solveCopy {
		return solveInto(t, p, c.lo, c.hi, Options{Basis: seed, Fix: c.fix, Scratch: &Scratch{}})
	}
	if f := fresh(kids[0]); f.status != StatusOptimal || f.iters == 0 || !f.warm {
		t.Fatalf("the down child must pivot from its seed: %+v", f)
	}
	if f := fresh(kids[2]); f.status != StatusInfeasible || f.iters != 0 || !f.warm {
		t.Fatalf("fixing must settle the tight child: %+v", f)
	}
	for _, order := range [][2]int{{0, 1}, {1, 0}, {2, 0}, {0, 2}, {2, 1}} {
		sc := &Scratch{}
		for _, i := range order {
			c := kids[i]
			got := solveInto(t, p, c.lo, c.hi, Options{Basis: seed, Fix: c.fix, Scratch: sc})
			if d := sameSolve(got, fresh(c)); d != "" {
				t.Fatalf("%q after %q on one Scratch: %s differs from a fresh Scratch", c.name, kids[order[0]].name, d)
			}
		}
	}

	// The second child really reads the kept pricing: with it overwritten
	// (every reduced cost zero, so the dual bound is 0 and above a cutoff of
	// −1), the up child, optimal when priced, is settled infeasible.
	sc := &Scratch{}
	solveInto(t, p, kids[0].lo, kids[0].hi, Options{Basis: seed, Fix: kids[0].fix, Scratch: sc})
	clear(sc.sim.d)
	tight := kids[1].fix
	tight.Cutoff = -1
	if f := fresh(child{lo: kids[1].lo, hi: kids[1].hi, fix: tight}); f.status != StatusOptimal {
		t.Fatalf("up child under cutoff −1: %v, want optimal", f.status)
	}
	if got := solveInto(t, p, kids[1].lo, kids[1].hi, Options{Basis: seed, Fix: tight, Scratch: sc}); got.status != StatusInfeasible {
		t.Fatalf("up child over an overwritten pricing: %v; the sibling priced the seed again", got.status)
	}
}

// TestSeedPricingRecycled: a pricing is never read for another seed or after
// its memory moved. Each case below must price its seed afresh, which the
// test makes visible by overwriting the pricing the Scratch keeps first: read
// instead of priced, its zero reduced costs give a dual bound of 0, above the
// children's cutoff, and settle the child infeasible. The cases: a basis
// buffer Reset and refilled with a different basis, a larger problem solved
// on the Scratch in between, ReducedCosts, and a changed objective.
func TestSeedPricingRecycled(t *testing.T) {
	p, seed, kids := branchyFamily(t)
	down, up := kids[0], kids[1]
	sc := &Scratch{}
	repriced := func(label string, b *Basis, c child) {
		t.Helper()
		want := solveInto(t, p, c.lo, c.hi, Options{Basis: b, Fix: c.fix, Scratch: &Scratch{}})
		if want.status != StatusOptimal {
			t.Fatalf("%s: %v on a fresh Scratch, want optimal", label, want.status)
		}
		clear(sc.sim.d)
		got := solveInto(t, p, c.lo, c.hi, Options{Basis: b, Fix: c.fix, Scratch: sc})
		if d := sameSolve(got, want); d != "" {
			t.Fatalf("%s: %s differs from a fresh Scratch", label, d)
		}
	}
	solveInto(t, p, down.lo, down.hi, Options{Basis: seed, Fix: down.fix, Scratch: sc})
	if sc.priced != (seedKey{p, p.gen, seed, seed.gen}) {
		t.Fatal("the Scratch must keep the pricing of the seed it loaded")
	}

	// Recycle the seed's buffer: Reset, then the down child's own optimal
	// basis, which differs from its parent's (the child pivoted).
	buf := seed
	other := &Scratch{}
	solveInto(t, p, down.lo, down.hi, Options{Basis: seed, Scratch: other})
	buf.Reset()
	if sc.priced == (seedKey{p, p.gen, buf, buf.gen}) {
		t.Fatal("a Reset basis matches the pricing of its previous contents")
	}
	if got := solveInto(t, p, down.lo, down.hi, Options{Basis: buf, Fix: down.fix, Scratch: sc}); got.warm {
		t.Fatal("a Reset basis must not seed a solve")
	}
	other.SnapshotBasis(buf)
	repriced("recycled basis", buf, up)

	// A larger problem solved cold in between regrows the Scratch.
	if _, err := Solve(buildBranchy(64), &Options{Scratch: sc}); err != nil {
		t.Fatal(err)
	}
	repriced("after a larger problem", buf, up)

	// ReducedCosts prices the Scratch's last basis into the same memory.
	solveInto(t, p, down.lo, down.hi, Options{Basis: buf, Fix: down.fix, Scratch: sc})
	sc.ReducedCosts(make([]float64, p.NumVars()))
	repriced("after ReducedCosts", buf, up)

	// Same Problem, same basis, objective doubled.
	solveInto(t, p, down.lo, down.hi, Options{Basis: buf, Fix: down.fix, Scratch: sc})
	for j := 0; j < p.NumVars(); j++ {
		p.SetObj(j, 2*p.obj[j])
	}
	repriced("changed objective", buf, up)
}

// TestSeedPricingAborted: a child stopped after any number of iterations k —
// a closed Cancel at k = 0, MaxIters = k after that — leaves its Scratch
// holding nothing its sibling reads wrongly: the sibling solved next on it
// matches a fresh Scratch bit for bit.
func TestSeedPricingAborted(t *testing.T) {
	p, seed, kids := branchyFamily(t)
	closed := make(chan struct{})
	close(closed)
	for _, pair := range [][2]child{{kids[0], kids[1]}, {kids[1], kids[0]}} {
		first, second := pair[0], pair[1]
		full := solveInto(t, p, first.lo, first.hi, Options{Basis: seed, Fix: first.fix})
		if full.iters == 0 {
			t.Fatalf("%s child takes no iteration", first.name)
		}
		want := solveInto(t, p, second.lo, second.hi, Options{Basis: seed, Fix: second.fix, Scratch: &Scratch{}})
		for k := 0; k <= full.iters; k++ {
			sc := &Scratch{}
			opts := Options{Basis: seed, Fix: first.fix, Scratch: sc, MaxIters: k}
			if k == 0 {
				opts.Cancel = closed
			}
			cut := solveInto(t, p, first.lo, first.hi, opts)
			if k == 0 && (cut.status != StatusCancelled || cut.iters != 0) {
				t.Fatalf("%s child under a closed Cancel: %v after %d iterations", first.name, cut.status, cut.iters)
			}
			got := solveInto(t, p, second.lo, second.hi, Options{Basis: seed, Fix: second.fix, Scratch: sc})
			if d := sameSolve(got, want); d != "" {
				t.Fatalf("%s child after %s cut at %d iterations: %s differs from a fresh Scratch", second.name, first.name, k, d)
			}
		}
	}
}

// TestSeedPricingFallback: a warm solve that reads its seed's kept pricing
// and then falls back to the cold path prices phase 1 itself. The child's row
// misses its bound by 5e-7, more than feasTol but too little to certify
// infeasibility, so dual reinstatement falls back; phase 1 then ends within
// tolerance, optimal. The kept pricing is overwritten with d_j = +1 first: a
// phase 1 that read it would find no entering column and call the child
// infeasible.
func TestSeedPricingFallback(t *testing.T) {
	p := NewProblem(2)
	for j := 0; j < 2; j++ {
		p.SetObj(j, -1)
		p.SetVarBounds(j, 0, 4)
	}
	p.AddRow([]int{0, 1}, []float64{1, 1}, 5, Inf)
	parent, err := Solve(p, &Options{WantBasis: true})
	if err != nil || parent.Status != StatusOptimal {
		t.Fatalf("parent: %+v err=%v", parent, err)
	}
	opts := Options{Basis: parent.Basis, Fix: Fix{Integer: []bool{true, true}, Cutoff: Inf}}
	lo, hi := []float64{0, 0}, []float64{2.5, 2.5 - 5e-7}
	want := solveInto(t, p, lo, hi, opts)
	if want.status != StatusOptimal || want.warm {
		t.Fatalf("child: %+v, want optimal after a fallback to the cold path", want)
	}
	sc := &Scratch{}
	opts.Scratch = sc
	solveInto(t, p, nil, nil, opts) // prices the seed
	for j := range sc.sim.d {
		sc.sim.d[j] = 1
	}
	if got := solveInto(t, p, lo, hi, opts); sameSolve(got, want) != "" {
		t.Fatalf("after a kept pricing: %s differs from a fresh Scratch", sameSolve(got, want))
	}
}
