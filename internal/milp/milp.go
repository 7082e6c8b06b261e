// Package milp implements a branch-and-bound mixed-integer linear
// programming solver over the simplex in internal/lp. Together they stand in
// for the commercial solver (IBM CPLEX 12.6) the paper uses: the package
// supports the exact feature set package-query DILPs need — nonnegative
// integer tuple-multiplicity variables, binary scenario/summary indicator
// variables, range constraints, and indicator ("y = 1 ⟹ linear constraint")
// constraints, which are linearized with per-row derived big-M values.
//
// The search itself is an explicit node pool explored by a bounded set of
// workers (Options.Parallelism) rather than a recursive depth-first dive:
// nodes carry immutable bound deltas, workers claim them from deterministic
// synchronization rounds, and the shared incumbent breaks objective ties
// toward the smaller canonical path id, so results are bit-identical for
// every worker count (see search.go). Cancellation (Options.Cancel) and the
// time limit reach into the simplex iteration loop itself via lp.Options, so
// an abort takes effect within one LP iteration, not one LP solve.
//
// Minimization is canonical; callers maximize by negating objective
// coefficients.
package milp

import (
	"errors"
	"fmt"
	"math"
	"time"

	"spq/internal/lp"
)

// Inf re-exports the LP infinity for bound construction.
var Inf = lp.Inf

// Status reports the disposition of a MILP solve.
type Status int

const (
	// StatusOptimal means the search proved optimality of the incumbent.
	StatusOptimal Status = iota
	// StatusFeasible means a feasible incumbent exists but optimality was
	// not proven before a node/time limit.
	StatusFeasible
	// StatusInfeasible means the search proved no integer-feasible point
	// exists.
	StatusInfeasible
	// StatusUnbounded means the LP relaxation is unbounded.
	StatusUnbounded
	// StatusLimit means a limit was reached with no incumbent found.
	StatusLimit
)

func (s Status) String() string {
	switch s {
	case StatusOptimal:
		return "optimal"
	case StatusFeasible:
		return "feasible"
	case StatusInfeasible:
		return "infeasible"
	case StatusUnbounded:
		return "unbounded"
	case StatusLimit:
		return "limit"
	default:
		return fmt.Sprintf("milp.Status(%d)", int(s))
	}
}

// variable describes one decision variable.
type variable struct {
	lo, hi  float64
	obj     float64
	integer bool
}

type rowSpec struct {
	idxs   []int
	coefs  []float64
	lo, hi float64
}

// indicator is a constraint of the form: bin = 1 ⟹ Σ coefs·x (ge ? ≥ : ≤) rhs.
type indicator struct {
	bin   int
	idxs  []int
	coefs []float64
	rhs   float64
	ge    bool
}

// Model is a MILP instance under construction.
type Model struct {
	vars       []variable
	rows       []rowSpec
	indicators []indicator
}

// NewModel returns an empty model.
func NewModel() *Model { return &Model{} }

// NumVars returns the number of variables added so far.
func (m *Model) NumVars() int { return len(m.vars) }

// NumRows returns the number of plain rows added so far (indicator rows are
// materialized at solve time and not counted here).
func (m *Model) NumRows() int { return len(m.rows) }

// AddVar adds a variable with bounds [lo, hi], objective coefficient obj and
// integrality flag, returning its index.
func (m *Model) AddVar(lo, hi, obj float64, integer bool) int {
	m.vars = append(m.vars, variable{lo: lo, hi: hi, obj: obj, integer: integer})
	return len(m.vars) - 1
}

// AddBinary adds a {0,1} variable and returns its index.
func (m *Model) AddBinary(obj float64) int {
	return m.AddVar(0, 1, obj, true)
}

// SetObj overrides the objective coefficient of variable j.
func (m *Model) SetObj(j int, obj float64) { m.vars[j].obj = obj }

// AddRow adds the range constraint lo ≤ Σ coefs·x ≤ hi.
func (m *Model) AddRow(idxs []int, coefs []float64, lo, hi float64) {
	m.rows = append(m.rows, rowSpec{idxs: idxs, coefs: coefs, lo: lo, hi: hi})
}

// AddIndicatorGE adds: bin = 1 ⟹ Σ coefs·x ≥ rhs. The bin variable must be
// binary and all involved variables must have finite bounds (needed to derive
// a valid big-M).
func (m *Model) AddIndicatorGE(bin int, idxs []int, coefs []float64, rhs float64) {
	m.indicators = append(m.indicators, indicator{bin: bin, idxs: idxs, coefs: coefs, rhs: rhs, ge: true})
}

// AddIndicatorLE adds: bin = 1 ⟹ Σ coefs·x ≤ rhs.
func (m *Model) AddIndicatorLE(bin int, idxs []int, coefs []float64, rhs float64) {
	m.indicators = append(m.indicators, indicator{bin: bin, idxs: idxs, coefs: coefs, rhs: rhs, ge: false})
}

// boxMin/boxMax compute the extreme values of Σ coefs·x over the variable
// boxes, used to derive valid big-M constants.
func (m *Model) boxExtremes(idxs []int, coefs []float64) (minV, maxV float64, err error) {
	for k, j := range idxs {
		c := coefs[k]
		if c == 0 {
			continue
		}
		lo, hi := m.vars[j].lo, m.vars[j].hi
		if math.IsInf(lo, -1) || math.IsInf(hi, 1) {
			return 0, 0, fmt.Errorf("milp: indicator over variable %d with infinite bounds", j)
		}
		if c > 0 {
			minV += c * lo
			maxV += c * hi
		} else {
			minV += c * hi
			maxV += c * lo
		}
	}
	return minV, maxV, nil
}

// build materializes the LP relaxation, expanding indicator constraints into
// big-M rows: the plain rows, then one row per indicator, its terms followed
// by the big-M entry on the binary.
func (m *Model) build() (*lp.Problem, error) {
	p := lp.NewProblem(len(m.vars))
	for j, v := range m.vars {
		p.SetObj(j, v.obj)
		p.SetVarBounds(j, v.lo, v.hi)
	}
	bigM := make([]float64, len(m.indicators))
	for k, ind := range m.indicators {
		if !m.vars[ind.bin].integer || m.vars[ind.bin].lo < 0 || m.vars[ind.bin].hi > 1 {
			return nil, errors.New("milp: indicator variable must be binary")
		}
		minV, maxV, err := m.boxExtremes(ind.idxs, ind.coefs)
		if err != nil {
			return nil, err
		}
		// ≥: a·x − M·b ≥ rhs − M with M ≥ rhs − minbox; ≤: a·x + M·b ≤ rhs + M
		// with M ≥ maxbox − rhs.
		need := maxV - ind.rhs
		if ind.ge {
			need = ind.rhs - minV
		}
		bigM[k] = max(need, 0)*1.01 + 1 // slack for numerical safety; larger M stays valid
	}
	p.AddRows(len(m.rows)+len(m.indicators), func(i int, add func(int, float64)) (float64, float64) {
		if i < len(m.rows) {
			r := &m.rows[i]
			for k, j := range r.idxs {
				add(j, r.coefs[k])
			}
			return r.lo, r.hi
		}
		k := i - len(m.rows)
		ind := &m.indicators[k]
		for t, j := range ind.idxs {
			add(j, ind.coefs[t])
		}
		if ind.ge {
			add(ind.bin, -bigM[k])
			return ind.rhs - bigM[k], lp.Inf
		}
		add(ind.bin, bigM[k])
		return -lp.Inf, ind.rhs + bigM[k]
	})
	return p, nil
}

// NumCoefficients reports the coefficient count of the materialized DILP
// (the paper's problem-size measure). Indicator rows count their terms plus
// the big-M entry.
func (m *Model) NumCoefficients() int {
	n := 0
	for _, r := range m.rows {
		for _, c := range r.coefs {
			if c != 0 {
				n++
			}
		}
	}
	for _, ind := range m.indicators {
		for _, c := range ind.coefs {
			if c != 0 {
				n++
			}
		}
		n++ // big-M coefficient on the indicator binary
	}
	return n
}

// Options tune the branch-and-bound search.
type Options struct {
	// TimeLimit bounds wall-clock search time; 0 means no limit. When the
	// limit expires the best incumbent (if any) is returned, mirroring the
	// paper's four-hour CPLEX cutoff behaviour.
	TimeLimit time.Duration
	// MaxNodes bounds the number of explored nodes; 0 means a large default.
	MaxNodes int
	// RelGap stops the search when (incumbent − bound)/|incumbent| falls
	// below this value. 0 means prove optimality (within tolerance).
	RelGap float64
	// IntTol is the integrality tolerance (default 1e-6).
	IntTol float64
	// InitialX optionally seeds the incumbent with a known integer-feasible
	// point (e.g. the previous CSA-Solve solution); ignored if infeasible.
	InitialX []float64
	// Cancel, when non-nil, aborts the search as soon as the channel is
	// closed. The best incumbent found so far is returned. It carries
	// context cancellation into the solver without coupling this package to
	// context.Context, and is forwarded into every node LP solve so a
	// cancellation takes effect within one simplex iteration even when a
	// single LP solve is long.
	Cancel <-chan struct{}
	// Parallelism is the number of workers exploring branch-and-bound nodes
	// concurrently. 0 or 1 explore sequentially; a negative value uses one
	// worker per available CPU. Results are bit-identical for every value:
	// nodes are processed in deterministic synchronization rounds against a
	// round-start incumbent snapshot, and equal-objective incumbents are
	// resolved toward the smaller canonical path id.
	Parallelism int
	// RootBasis optionally seeds the root relaxation's simplex from a basis
	// of a previous, structurally similar solve (a delta re-solve of the
	// same CSA formulation). The LP layer rejects a basis whose shape does
	// not match and falls back to a cold solve, so callers may pass bases
	// across solves without dimension checks.
	RootBasis *lp.Basis
	// WantRootBasis asks for the root relaxation's optimal basis in
	// Result.RootBasis so the caller can warm-start a later re-solve.
	WantRootBasis bool
	// LP tunes the node LP solves.
	LP lp.Options
}

func (o *Options) withDefaults() Options {
	out := Options{}
	if o != nil {
		out = *o
	}
	if out.MaxNodes == 0 {
		out.MaxNodes = 500000
	}
	if out.IntTol == 0 {
		out.IntTol = 1e-6
	}
	return out
}

// Result is the outcome of a MILP solve.
type Result struct {
	Status Status
	// X is the incumbent solution (valid for StatusOptimal/StatusFeasible).
	X []float64
	// Obj is the incumbent objective value.
	Obj float64
	// Bound is the root LP relaxation bound (a valid lower bound for
	// minimization).
	Bound float64
	// Nodes is the number of branch-and-bound nodes explored (deterministic
	// for a fixed model and options whenever no wall-clock limit hit).
	Nodes int
	// Workers is the resolved branch-and-bound worker bound the search ran
	// with (1 for a sequential solve).
	Workers int
	// Coefficients is the DILP size that was handed to the LP engine.
	Coefficients int
	// LPIters is the total number of simplex iterations across the root
	// relaxation and every node LP solve. Like Nodes it is deterministic for
	// a fixed model and options whenever no wall-clock limit hit; it is
	// observational and never feeds back into the search.
	LPIters int
	// Rounds is the number of synchronization rounds the search ran (0 when
	// the root disposition resolved the tree).
	Rounds int
	// WarmStarts counts node LP solves that were seeded from their parent's
	// optimal basis and accepted the seed (dual-simplex reinstatement instead
	// of phase-1 from the logical basis). Deterministic, like LPIters.
	WarmStarts int
	// DegenPivots counts degenerate (zero-step) simplex pivots across all LP
	// solves — the kernel's stalling indicator.
	DegenPivots int
	// BoundFlips counts dual iterations resolved by a bound flip rather than
	// a basis exchange across all LP solves — each one skipped an eta-file
	// update. Deterministic, like LPIters.
	BoundFlips int
	// PresolveRows and PresolveCols count the constraint rows and variable
	// columns the root presolve eliminated before the search began; node LPs
	// solve the reduced problem.
	PresolveRows int
	PresolveCols int
	// RootBasis is the root relaxation's optimal basis, populated when
	// Options.WantRootBasis is set (nil when the root did not finish with
	// an optimal basis). It seeds Options.RootBasis of a later re-solve.
	RootBasis *lp.Basis
}

// Gap returns the relative optimality gap of the incumbent versus the root
// bound, or +Inf when no incumbent exists.
func (r *Result) Gap() float64 {
	if r.X == nil {
		return math.Inf(1)
	}
	denom := math.Abs(r.Obj)
	if denom < 1e-12 {
		denom = 1e-12
	}
	g := (r.Obj - r.Bound) / denom
	if g < 0 {
		return 0
	}
	return g
}
