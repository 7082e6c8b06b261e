package lp

import (
	"fmt"
	"math"
	"testing"

	"spq/internal/rng"
)

// fuzzLP is a small random LP with every column boxed, so each solve ends
// optimal or infeasible. Coefficients and bounds are dyadic and small, so
// every row activity at a vertex is exact and no configuration can call a
// point feasible that another calls infeasible by rounding alone.
type fuzzLP struct {
	p      *Problem
	lo, hi []float64
	rows   []oracleRow
}

func randomFuzzLP(s *rng.Stream) *fuzzLP {
	vals := []float64{0, 1, -1, 2, -2, 0.5, -0.5, 0.25, 3}
	n, m := 2+s.IntN(7), 1+s.IntN(5)
	f := &fuzzLP{p: NewProblem(n), lo: make([]float64, n), hi: make([]float64, n)}
	for j := 0; j < n; j++ {
		f.lo[j] = float64(s.IntN(7) - 3)
		f.hi[j] = f.lo[j] + float64(s.IntN(5))
		f.p.SetVarBounds(j, f.lo[j], f.hi[j])
		f.p.SetObj(j, vals[s.IntN(len(vals))]-vals[s.IntN(len(vals))])
	}
	for i := 0; i < m; i++ {
		var r oracleRow
		for k := 1 + s.IntN(n); k > 0; k-- {
			r.idxs = append(r.idxs, s.IntN(n))
			r.coefs = append(r.coefs, vals[s.IntN(len(vals))])
		}
		b := float64(s.IntN(13)-6) / 2
		r.lo, r.hi = b-float64(s.IntN(6)), b+float64(s.IntN(6))
		switch s.IntN(4) {
		case 0:
			r.lo = math.Inf(-1)
		case 1:
			r.hi = math.Inf(1)
		}
		f.p.AddRow(r.idxs, r.coefs, r.lo, r.hi)
		f.rows = append(f.rows, r)
	}
	return f
}

// perturbed returns the bounds moved by up to one unit per column, still
// boxed and uncrossed: the node a warm-start basis is taken from.
func (f *fuzzLP) perturbed(s *rng.Stream) (lo, hi []float64) {
	lo, hi = append([]float64(nil), f.lo...), append([]float64(nil), f.hi...)
	for j := range lo {
		switch s.IntN(4) {
		case 0:
			lo[j] = min(lo[j]+1, hi[j])
		case 1:
			hi[j] = max(hi[j]-1, lo[j])
		case 2:
			lo[j]--
		}
	}
	return lo, hi
}

// lpResult is what a configuration answers, in the original space.
type lpResult struct {
	status Status
	obj    float64
	x      []float64
}

// check holds an optimal answer to its bounds and rows within feasTol and to
// its own objective.
func (f *fuzzLP) check(t *testing.T, tag string, r lpResult) {
	t.Helper()
	if r.status != StatusOptimal {
		return
	}
	const tol = feasTol
	cx := 0.0
	for j, v := range r.x {
		if v < f.lo[j]-tol || v > f.hi[j]+tol {
			t.Fatalf("%s: x[%d] = %v outside [%v, %v]", tag, j, v, f.lo[j], f.hi[j])
		}
		cx += f.p.obj[j] * v
	}
	for i, row := range f.rows {
		a := 0.0
		for k, j := range row.idxs {
			a += row.coefs[k] * r.x[j]
		}
		if a < row.lo-tol || a > row.hi+tol {
			t.Fatalf("%s: row %d activity %v outside [%v, %v]", tag, i, a, row.lo, row.hi)
		}
	}
	if !closeRel(cx, r.obj) {
		t.Fatalf("%s: objective %v, but cᵀx = %v", tag, r.obj, cx)
	}
}

// closeRel reports a and b equal to within 1e-6 relative (absolute near 0).
func closeRel(a, b float64) bool {
	return math.Abs(a-b) <= 1e-6*max(1, math.Abs(a), math.Abs(b))
}

func solveResult(t *testing.T, tag string, p *Problem, lo, hi []float64, opts *Options) lpResult {
	t.Helper()
	sol, err := SolveWithBounds(p, lo, hi, opts)
	if err != nil {
		t.Fatalf("%s: %v", tag, err)
	}
	return lpResult{sol.Status, sol.Obj, append([]float64(nil), sol.X...)}
}

// presolved solves the LP through PresolveProblem and maps the answer back
// with Postsolve.
func presolved(t *testing.T, f *fuzzLP) lpResult {
	t.Helper()
	pr := PresolveProblem(f.p, nil, nil, nil)
	switch {
	case pr.Infeasible:
		return lpResult{status: StatusInfeasible}
	case pr.Unbounded:
		return lpResult{status: StatusUnbounded}
	}
	red := solveResult(t, "presolved", pr.Reduced, pr.Lo, pr.Hi, nil)
	if red.status != StatusOptimal {
		return red
	}
	return lpResult{StatusOptimal, red.obj + pr.ObjOffset, pr.Postsolve(red.x)}
}

// siblings solves two children of one seed — the unperturbed box and a
// freshly perturbed one, under a cutoff that lets fixing act — back to back
// on one Scratch, the second reading the first's pricing of the seed, and
// demands each match its solve on a fresh Scratch bit for bit.
func siblings(t *testing.T, seed uint64, fl *fuzzLP, s *rng.Stream, basis *Basis, integer []bool, cold lpResult) {
	t.Helper()
	fix := Fix{Integer: integer, Cutoff: math.Inf(1)}
	if cold.status == StatusOptimal {
		fix.Cutoff = cold.obj + 0.5*math.Abs(cold.obj) + 1e-3
	}
	lo2, hi2 := fl.perturbed(s)
	kids := [2][2][]float64{{fl.p.varLo, fl.p.varHi}, {lo2, hi2}}
	sc := &Scratch{}
	for k, box := range kids {
		got := solveInto(t, fl.p, box[0], box[1], Options{Basis: basis, Fix: fix, Scratch: sc})
		want := solveInto(t, fl.p, box[0], box[1], Options{Basis: basis, Fix: fix, Scratch: &Scratch{}})
		if d := sameSolve(got, want); d != "" {
			t.Fatalf("seed %d sibling %d: %s differs from a fresh Scratch", seed, k, d)
		}
	}
}

// FuzzLP is the LP kernel's differential: one random boxed LP solved cold,
// through presolve and postsolve, warm from the optimal basis of a solve
// under perturbed bounds, and warm again with a reduced-cost Fix whose cutoff
// (+Inf) must tighten nothing. Every configuration agrees with the cold solve
// on the status and, to 1e-6 relative, on the objective; every optimal point
// satisfies its bounds and rows within feasTol. Two children of that warm
// basis solved on one Scratch match fresh-Scratch solves bit for bit
// (siblings).
func FuzzLP(f *testing.F) {
	for seed := uint64(1); seed <= 32; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		s := rng.NewStream(seed)
		fl := randomFuzzLP(s)
		cold := solveResult(t, "cold", fl.p, nil, nil, nil)
		if cold.status != StatusOptimal && cold.status != StatusInfeasible {
			t.Fatalf("cold: status %v on a boxed LP", cold.status)
		}
		fl.check(t, "cold", cold)
		tags, results := []string{"presolved"}, []lpResult{presolved(t, fl)}

		plo, phi := fl.perturbed(s)
		node, err := SolveWithBounds(fl.p, plo, phi, &Options{WantBasis: true})
		if err != nil {
			t.Fatalf("perturbed: %v", err)
		}
		if node.Basis != nil {
			integer := make([]bool, fl.p.NumVars())
			for j := range integer {
				integer[j] = s.IntN(2) == 0
			}
			tags = append(tags, "warm", "warm+fix")
			results = append(results,
				solveResult(t, "warm", fl.p, nil, nil, &Options{Basis: node.Basis}),
				solveResult(t, "warm+fix", fl.p, nil, nil,
					&Options{Basis: node.Basis, Fix: Fix{Integer: integer, Cutoff: math.Inf(1)}}))
			siblings(t, seed, fl, s, node.Basis, integer, cold)
		}
		for k, r := range results {
			tag := fmt.Sprintf("seed %d %s", seed, tags[k])
			if r.status != cold.status {
				t.Fatalf("%s: status %v, cold %v", tag, r.status, cold.status)
			}
			if r.status == StatusOptimal && !closeRel(r.obj, cold.obj) {
				t.Fatalf("%s: objective %v, cold %v", tag, r.obj, cold.obj)
			}
			fl.check(t, tag, r)
		}
	})
}
