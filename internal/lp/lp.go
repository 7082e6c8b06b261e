// Package lp implements a revised primal simplex solver for linear programs
// with general variable and row bounds:
//
//	minimize    cᵀx
//	subject to  rowLo ≤ A x ≤ rowHi
//	            varLo ≤   x ≤ varHi
//
// It is the LP substrate under the branch-and-bound MILP solver in
// internal/milp, which together replace the commercial solver (IBM CPLEX)
// used by the paper. The design targets the shape of package-query programs:
// few rows (constraints plus scenario/summary indicators) and many columns
// (one decision variable per tuple), so the solver keeps a dense m×m basis
// inverse with rank-1 eta updates and prices columns in sparse form.
//
// Internally every row i gets a logical variable r_i with bounds
// [rowLo_i, rowHi_i], and the system is A x − r = 0. The initial basis is the
// logical identity; a composite (infeasibility-minimizing) phase 1 drives the
// basics into their bounds, then phase 2 optimizes the true objective.
//
// Solves are cooperatively interruptible: Options.Cancel and
// Options.Deadline are polled once per simplex iteration in both phases,
// and an aborted solve reports StatusCancelled with best-effort values.
// This is the lowest rung of the cancellation ladder — it is what lets a
// daemon-level DELETE land within one LP iteration even when a single
// relaxation runs for seconds (see internal/milp and DESIGN.md "Parallel
// MILP").
package lp

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"time"
)

// Inf is the bound value representing +infinity. Use -Inf for free lower
// bounds.
var Inf = math.Inf(1)

// Status reports the disposition of a solve.
type Status int

const (
	// StatusOptimal means an optimal basic feasible solution was found.
	StatusOptimal Status = iota
	// StatusInfeasible means the constraints admit no solution.
	StatusInfeasible
	// StatusUnbounded means the objective decreases without bound.
	StatusUnbounded
	// StatusIterLimit means the iteration limit was hit before convergence.
	StatusIterLimit
	// StatusCancelled means the solve was aborted early by Options.Cancel or
	// the Options.Deadline expiring. The solution's X is the best-effort
	// iterate at the moment of cancellation and its objective bound must not
	// be trusted.
	StatusCancelled
)

func (s Status) String() string {
	switch s {
	case StatusOptimal:
		return "optimal"
	case StatusInfeasible:
		return "infeasible"
	case StatusUnbounded:
		return "unbounded"
	case StatusIterLimit:
		return "iteration-limit"
	case StatusCancelled:
		return "cancelled"
	default:
		return fmt.Sprintf("lp.Status(%d)", int(s))
	}
}

// Problem is an LP instance. Build it with NewProblem, SetObj, SetVarBounds
// and AddRow or AddRows; it may then be solved repeatedly (possibly with
// per-solve variable-bound overrides, which is how branch-and-bound fixes
// variables) without rebuilding.
//
// The structural columns are one compressed sparse column (CSC) matrix:
// column j is rowIdx/coef[colStart[j]:colStart[j+1]], in row order. Adding
// rows leaves it complete, so no solve builds anything and concurrent solves
// may share a Problem.
type Problem struct {
	nvars    int
	obj      []float64
	colStart []int
	rowIdx   []int32
	coef     []float64
	varLo    []float64
	varHi    []float64
	rowLo    []float64
	rowHi    []float64
	// gen counts SetObj calls, so a Scratch can tell that reduced costs it
	// priced for this Problem are stale. (AddRows needs no count: a basis
	// snapshot taken before it no longer matches the Problem's shape.)
	gen uint64
}

// NewProblem creates a problem with nvars structural variables, each with
// default bounds [0, +Inf) and zero objective coefficient.
func NewProblem(nvars int) *Problem {
	p := &Problem{
		nvars:    nvars,
		obj:      make([]float64, nvars),
		colStart: make([]int, nvars+1),
		varLo:    make([]float64, nvars),
		varHi:    make([]float64, nvars),
	}
	for j := range p.varHi {
		p.varHi[j] = Inf
	}
	return p
}

// NumVars returns the number of structural variables.
func (p *Problem) NumVars() int { return p.nvars }

// NumRows returns the number of constraint rows.
func (p *Problem) NumRows() int { return len(p.rowLo) }

// SetObj sets the objective coefficient of variable j.
func (p *Problem) SetObj(j int, c float64) {
	p.obj[j] = c
	p.gen++
}

// SetVarBounds sets the bounds of variable j. lo may be -Inf and hi may be
// Inf.
func (p *Problem) SetVarBounds(j int, lo, hi float64) {
	p.varLo[j] = lo
	p.varHi[j] = hi
}

// VarBounds returns the bounds of variable j.
func (p *Problem) VarBounds(j int) (lo, hi float64) { return p.varLo[j], p.varHi[j] }

// Column returns variable j's objective coefficient and its nonzero
// entries: their rows, in increasing order, and coefficients. The slices
// are the problem's own and must not be written.
func (p *Problem) Column(j int) (obj float64, rows []int32, coefs []float64) {
	s, e := p.colStart[j], p.colStart[j+1]
	return p.obj[j], p.rowIdx[s:e], p.coef[s:e]
}

// RowBounds returns the range [lo, hi] of row i.
func (p *Problem) RowBounds(i int) (lo, hi float64) { return p.rowLo[i], p.rowHi[i] }

// AddRow appends the constraint lo ≤ Σ coefs[k]·x[idxs[k]] ≤ hi and returns
// its row index. Zero coefficients are skipped; a variable index repeated
// within the row sums into its first nonzero occurrence.
func (p *Problem) AddRow(idxs []int, coefs []float64, lo, hi float64) int {
	if len(idxs) != len(coefs) {
		panic("lp: AddRow index/coefficient length mismatch")
	}
	row := len(p.rowLo)
	p.AddRows(1, func(_ int, add func(int, float64)) (float64, float64) {
		for k, j := range idxs {
			add(j, coefs[k])
		}
		return lo, hi
	})
	return row
}

// AddRows appends count rows in one merge into the column store, by the
// rules of AddRow. row(i, add) reports the i-th new row's terms by calling
// add(j, a) and returns its bounds. It is called twice per row, to size the
// columns and then to fill them, and must report the same terms both times.
func (p *Problem) AddRows(count int, row func(i int, add func(j int, a float64)) (lo, hi float64)) {
	n, first := p.nvars, len(p.rowLo)
	// stamp[j] == cur ⟺ column j already holds the current row's entry;
	// the fill pass stamps past count so neither pass clears the array.
	stamp := make([]int, n)
	fill := make([]int, n) // new entries per column, then the fill cursor
	cur, added := 0, 0
	count1 := func(j int, a float64) {
		if j < 0 || j >= n {
			panic(fmt.Sprintf("lp: AddRow variable index %d out of range", j))
		}
		if a != 0 && stamp[j] != cur {
			stamp[j] = cur
			fill[j]++
			added++
		}
	}
	for i := 0; i < count; i++ {
		cur = i + 1
		lo, hi := row(i, count1)
		p.rowLo = append(p.rowLo, lo)
		p.rowHi = append(p.rowHi, hi)
	}
	// Open each column's gap at its end, last column first, so a move never
	// overwrites entries that have yet to move.
	old := len(p.rowIdx)
	p.rowIdx = slices.Grow(p.rowIdx, added)[:old+added]
	p.coef = slices.Grow(p.coef, added)[:old+added]
	for j := n - 1; j >= 0; j-- {
		lo, hi := p.colStart[j], p.colStart[j+1]
		p.colStart[j+1] = hi + added
		added -= fill[j]
		copy(p.rowIdx[lo+added:], p.rowIdx[lo:hi])
		copy(p.coef[lo+added:], p.coef[lo:hi])
		fill[j] = hi + added
	}
	var r int32
	add := func(j int, a float64) {
		switch {
		case a == 0:
		case stamp[j] == cur:
			p.coef[fill[j]-1] += a
		default:
			stamp[j] = cur
			p.rowIdx[fill[j]] = r
			p.coef[fill[j]] = a
			fill[j]++
		}
	}
	for i := 0; i < count; i++ {
		cur, r = count+i+1, int32(first+i)
		row(i, add)
	}
}

// NumCoefficients returns the number of stored nonzero structural
// coefficients; it is the paper's DILP "size" measure (Θ(NMK) for SAA vs
// Θ(NZK) for CSA).
func (p *Problem) NumCoefficients() int { return len(p.coef) }

// Options tune the simplex.
type Options struct {
	// MaxIters caps total simplex iterations across both phases.
	// 0 means a default proportional to the problem size.
	MaxIters int
	// Cancel, when non-nil, aborts the solve as soon as the channel is
	// closed. It is polled every simplex iteration in both phases, so even a
	// single long solve responds within one iteration rather than running to
	// convergence — the property the MILP layer (and, above it, query
	// cancellation) depends on. A cancelled solve reports StatusCancelled.
	Cancel <-chan struct{}
	// Deadline, when nonzero, bounds the solve in wall-clock time. Like
	// Cancel it is polled inside the iteration loop and expiry reports
	// StatusCancelled (MaxIters remains the deterministic iteration budget;
	// Deadline is the responsive wall-clock one).
	Deadline time.Time
	// Basis, when non-nil, warm-starts the solve from a previous optimal
	// basis (typically the parent node's in branch-and-bound). The solver
	// reinstates primal feasibility under the current bounds with a bounded
	// dual simplex instead of running phase 1 from the logical basis; if the
	// snapshot cannot be installed (shape mismatch, singular basis) or the
	// dual simplex stalls, the solve silently falls back to the cold path.
	// Basis is part of the determinism domain: a solve is a pure function of
	// (Problem, bounds, Options) including Basis, so callers that cache or
	// compare results must treat it like any other Options field.
	Basis *Basis
	// Scratch, when non-nil, lends the solver all the memory a solve needs —
	// its own state, the returned Solution and X, basis-inverse rows, eta
	// file, pricing vectors — so repeated solves (branch-and-bound explores
	// thousands of near-identical LPs) allocate nothing. The returned
	// *Solution then aliases the Scratch: it and its X are valid until the
	// Scratch's next solve, which overwrites them in place; copy what must
	// outlive that, and take the final basis with Scratch.SnapshotBasis. A
	// Scratch must not be shared by concurrent solves; the MILP layer keeps
	// one per worker.
	Scratch *Scratch
	// Fix is the branch-and-bound's reduced-cost fixing hook; zero is off.
	Fix Fix
}

// Fix asks a solve that accepts its Options.Basis to tighten integer columns
// by reduced cost before dual reinstatement. No row-feasible point of the box
// is below L = Σ_j min(d_j·lo_j, d_j·hi_j) under the seed basis's reduced
// costs d, so an integer column at its lower bound with d_j > 0 is below
// Cutoff only up to lo_j + ⌊(Cutoff − L)/d_j⌋, and symmetrically at its upper
// bound. The tightening dies with the solve; when L reaches Cutoff the solve
// reports StatusInfeasible without an iteration.
type Fix struct {
	Integer []bool  // integrality mask over the structural columns; nil disables fixing
	Cutoff  float64 // objective value at and above which points are of no interest
}

func (o *Options) withDefaults(m, n int) Options {
	out := Options{}
	if o != nil {
		out = *o
	}
	if out.MaxIters == 0 {
		out.MaxIters = 200*(m+n) + 10000
	}
	return out
}

// Solution is the result of a solve. When the solve was lent an
// Options.Scratch the Solution lives in it (see there for how long it is
// valid); otherwise it is the caller's alone.
type Solution struct {
	Status Status
	// X holds the structural variable values (valid when Status is
	// StatusOptimal; best-effort otherwise).
	X []float64
	// Obj is cᵀX.
	Obj float64
	// Iters is the number of simplex iterations performed.
	Iters int
	// DegenPivots is the number of degenerate (zero-step) pivots performed —
	// the kernel's stalling indicator.
	DegenPivots int
	// BoundFlips is the number of dual iterations resolved by flipping the
	// entering variable bound-to-bound instead of pivoting — iterations that
	// skipped the eta-file update entirely.
	BoundFlips int
	// WarmStarted reports that the solve was seeded from Options.Basis and
	// the seed was accepted (dual-simplex reinstatement ran instead of
	// phase 1 from the logical basis).
	WarmStarted bool
}

// Solve optimizes the problem with its stored bounds.
func Solve(p *Problem, opts *Options) (*Solution, error) {
	return SolveWithBounds(p, nil, nil, opts)
}

// SolveWithBounds optimizes with variable bounds overridden by varLo/varHi
// (either may be nil to use the problem's own). The problem itself is not
// mutated, so concurrent solves over one Problem with different bound
// vectors are safe.
func SolveWithBounds(p *Problem, varLo, varHi []float64, opts *Options) (*Solution, error) {
	if varLo == nil {
		varLo = p.varLo
	}
	if varHi == nil {
		varHi = p.varHi
	}
	if len(varLo) != p.nvars || len(varHi) != p.nvars {
		return nil, errors.New("lp: bound override length mismatch")
	}
	for j := 0; j < p.nvars; j++ {
		if varLo[j] > varHi[j] {
			return crossed(p, opts), nil
		}
	}
	for i := range p.rowLo {
		if p.rowLo[i] > p.rowHi[i] {
			return crossed(p, opts), nil
		}
	}
	s := newSimplex(p, varLo, varHi, opts)
	return s.solve()
}

// crossed is the Solution of a solve whose bounds cross: infeasible, X all
// zero, living in the lent Scratch like any other solve's.
func crossed(p *Problem, o *Options) *Solution {
	if o == nil || o.Scratch == nil {
		return &Solution{Status: StatusInfeasible, X: make([]float64, p.nvars)}
	}
	sc := o.Scratch
	sc.x = grow(sc.x, p.nvars)
	clear(sc.x)
	sc.sol = Solution{Status: StatusInfeasible, X: sc.x}
	return &sc.sol
}
