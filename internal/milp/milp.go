// Package milp implements a branch-and-bound mixed-integer linear
// programming solver over the simplex in internal/lp. Together they stand in
// for the commercial solver (IBM CPLEX 12.6) the paper uses: the package
// supports the exact feature set package-query DILPs need — nonnegative
// integer tuple-multiplicity variables, binary scenario/summary indicator
// variables, range constraints, and indicator ("y = 1 ⟹ linear constraint")
// constraints, which are linearized with per-row derived big-M values.
//
// The search itself is an explicit node pool explored on the calling
// goroutine rather than a recursive depth-first dive: nodes carry bound
// deltas, the frontier is processed in rounds judged against the
// round-start incumbent, and the incumbent breaks objective ties toward the
// smaller canonical path id (see search.go). Every node whose LP point is
// fractional, the root included, is rounded in the directions its rows
// leave free (simple rounding: Achterberg, Constraint Integer Programming,
// 2007), so incumbents appear within the first nodes; the root is no longer
// rounded to nearest. A hinted point (Options.InitialX) becomes the
// incumbent when it is feasible; otherwise, when rounding the root finds
// none, it guides a capped search of the root's neighbourhood for one
// before the first round (relaxation-induced neighbourhood search: Danna,
// Rothberg & Le Pape, Math. Prog. 2005). Cancellation (Options.Cancel) and
// the time limit reach into the simplex iteration loop itself via
// lp.Options, so an abort takes effect within one LP iteration, not one LP
// solve.
//
// Minimization is canonical; callers maximize by negating objective
// coefficients.
package milp

import (
	"errors"
	"fmt"
	"math"
	"time"

	"spq/client"
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

// Stop reports why a MILP search ended. Unlike Status, which says what the
// search found, it says whether a budget cut the search short, and which one.
type Stop int

const (
	// StopComplete means no budget ended the search: it exhausted its tree,
	// or presolve or the root relaxation settled the problem.
	StopComplete Stop = iota
	// StopNodeCap means a deterministic work budget ended the search:
	// Options.MaxNodes, or the root relaxation's LP iteration cap.
	StopNodeCap
	// StopTimeCap means the wall-clock budget ended the search:
	// Options.TimeLimit or Options.LP.Deadline.
	StopTimeCap
	// StopCancelled means Options.Cancel (or Options.LP.Cancel) closed.
	StopCancelled
)

// String returns the stop's name on the v1 wire: "complete", "node_cap",
// "time_cap" or "cancelled".
func (s Stop) String() string {
	switch s {
	case StopComplete:
		return "complete"
	case StopNodeCap:
		return "node_cap"
	case StopTimeCap:
		return "time_cap"
	case StopCancelled:
		return "cancelled"
	default:
		return fmt.Sprintf("milp.Stop(%d)", int(s))
	}
}

// variable describes one decision variable.
type variable struct {
	lo, hi  float64
	obj     float64
	integer bool
	// zlo and zhi are 1 where the declared lo is +0 and hi is 0; pin is 1
	// where the variable is fixed at 0 but for big-M derivation
	// (Model.SetPinned).
	zlo, zhi, pin uint8
}

// box is the variable's bounds as presolve and the feasibility check read
// them: the declared ones, or [lo, 0] when pinned.
func (v *variable) box() (lo, hi float64) {
	if v.pin != 0 {
		return v.lo, 0
	}
	return v.lo, v.hi
}

// live is 0 where the variable's box is [+0, 0], whose terms presolve
// leaves out of its row store, else 1. It is counted for every term of
// every row, so it takes no branch.
func (v *variable) live() int { return int(1 &^ (v.zlo & (v.zhi | v.pin))) }

// flag is 1 for true, 0 for false.
func flag(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}

// rowSpec is lo ≤ Σ coefs·x ≤ hi. idxs nil means coefs[k] is the
// coefficient of variable k.
type rowSpec struct {
	idxs   []int
	coefs  []float64
	lo, hi float64
}

// indicator is a constraint of the form: bin = 1 ⟹ Σ coefs·x (ge ? ≥ : ≤)
// rhs, its terms read as rowSpec's.
type indicator struct {
	bin   int
	idxs  []int
	coefs []float64
	rhs   float64
	ge    bool
}

// Model is a MILP instance under construction. It keeps the index and
// coefficient slices its rows are given, without copying them: they must
// not change while the model is in use. Reset empties it for the next
// formulation and keeps its memory.
type Model struct {
	vars       []variable
	rows       []rowSpec
	indicators []indicator
}

// NewModel returns an empty model.
func NewModel() *Model { return &Model{} }

// Reserve makes room for vars more variables, rows more rows and
// indicators more indicator constraints, so adding them does not grow the
// model. Room it lacks is made to exactly that size.
func (m *Model) Reserve(vars, rows, indicators int) {
	m.vars = reserve(m.vars, vars)
	m.rows = reserve(m.rows, rows)
	m.indicators = reserve(m.indicators, indicators)
}

// reserve returns s with room for n more elements, reallocating, to
// exactly that, only when its capacity falls short.
func reserve[T any](s []T, n int) []T {
	if cap(s)-len(s) >= n {
		return s
	}
	return append(make([]T, 0, len(s)+n), s...)
}

// Reset empties the model and keeps its capacity, so that the next
// formulation of the same shape, after Reserve, grows nothing. It lets go of
// the index and coefficient slices its rows were given.
func (m *Model) Reset() {
	clear(m.rows)
	clear(m.indicators)
	m.vars, m.rows, m.indicators = m.vars[:0], m.rows[:0], m.indicators[:0]
}

// NumVars returns the number of variables added so far.
func (m *Model) NumVars() int { return len(m.vars) }

// AddVar adds a variable with bounds [lo, hi], objective coefficient obj and
// integrality flag, returning its index.
func (m *Model) AddVar(lo, hi, obj float64, integer bool) int {
	m.vars = append(m.vars, variable{lo: lo, hi: hi, obj: obj, integer: integer,
		zlo: flag(math.Float64bits(lo) == 0), zhi: flag(hi == 0)})
	return len(m.vars) - 1
}

// AddBinary adds a {0,1} variable and returns its index.
func (m *Model) AddBinary(obj float64) int {
	return m.AddVar(0, 1, obj, true)
}

// SetObj overrides the objective coefficient of variable j.
func (m *Model) SetObj(j int, obj float64) { m.vars[j].obj = obj }

// SetPinned pins variable j, whose lower bound must be 0, at 0, or unpins
// it. A pinned variable's upper bound is 0 for presolve, which deletes it
// before its first pass, and for the feasibility check of candidate points,
// but every indicator's big-M is still derived from its declared box. A
// formulator pins a variable that one of its rows alone excludes, which
// presolve would fix at 0 from that row: the model presolves without
// carrying the variable's terms.
func (m *Model) SetPinned(j int, pinned bool) { m.vars[j].pin = flag(pinned) }

// Pinned reports whether variable j is pinned.
func (m *Model) Pinned(j int) bool { return m.vars[j].pin != 0 }

// NumPinned counts the pinned variables.
func (m *Model) NumPinned() int {
	n := 0
	for _, v := range m.vars {
		n += int(v.pin)
	}
	return n
}

// AddRow adds the range constraint lo ≤ Σ coefs·x ≤ hi. idxs names the
// variable of each coefficient; nil makes the row dense, coefs[k] being
// the coefficient of variable k.
func (m *Model) AddRow(idxs []int, coefs []float64, lo, hi float64) {
	m.rows = append(m.rows, rowSpec{idxs: idxs, coefs: coefs, lo: lo, hi: hi})
}

// AddIndicatorGE adds: bin = 1 ⟹ Σ coefs·x ≥ rhs, its terms given as to
// AddRow. The bin variable must be binary and all involved variables must
// have finite bounds (needed to derive a valid big-M).
func (m *Model) AddIndicatorGE(bin int, idxs []int, coefs []float64, rhs float64) {
	m.indicators = append(m.indicators, indicator{bin: bin, idxs: idxs, coefs: coefs, rhs: rhs, ge: true})
}

// AddIndicatorLE adds: bin = 1 ⟹ Σ coefs·x ≤ rhs.
func (m *Model) AddIndicatorLE(bin int, idxs []int, coefs []float64, rhs float64) {
	m.indicators = append(m.indicators, indicator{bin: bin, idxs: idxs, coefs: coefs, rhs: rhs, ge: false})
}

// col is the variable of term k of a row given as idxs (nil: dense).
func col(idxs []int, k int) int {
	if idxs == nil {
		return k
	}
	return idxs[k]
}

// boxExtremes computes the extreme values of Σ coefs·x over the declared
// variable boxes, used to derive valid big-M constants, and counts the
// row's nonzero terms and those among them on live variables.
func (m *Model) boxExtremes(idxs []int, coefs []float64) (minV, maxV float64, nz, live int, err error) {
	for k, c := range coefs {
		if c == 0 {
			continue
		}
		j := col(idxs, k)
		v := &m.vars[j]
		lo, hi := v.lo, v.hi
		if math.IsInf(lo, -1) || math.IsInf(hi, 1) {
			return 0, 0, 0, 0, fmt.Errorf("milp: indicator over variable %d with infinite bounds", j)
		}
		nz++
		live += v.live()
		if c > 0 {
			minV += c * lo
			maxV += c * hi
		} else {
			minV += c * hi
			maxV += c * lo
		}
	}
	return minV, maxV, nz, live, nil
}

// liveTerms counts a row's nonzero terms and those among them on live
// variables.
func (m *Model) liveTerms(idxs []int, coefs []float64) (nz, live int) {
	for k, c := range coefs {
		f := int(flag(c != 0))
		nz += f
		live += f & m.vars[col(idxs, k)].live()
	}
	return nz, live
}

// rowForm is the model's LP relaxation as presolve reads it (lp.Rows): the
// plain rows, then one row per indicator, its terms followed by the big-M
// entry on the binary. Nothing is copied out of the model but the big-M
// values. Its term count leaves out the terms on variables that are not
// live, which presolve keeps out of its row store; coefs counts every
// nonzero, big-M entries included (NumCoefficients).
type rowForm struct {
	m     *Model
	bigM  []float64
	terms int
	coefs int
}

// relaxation writes the model's LP relaxation in row form into f, deriving
// each indicator's big-M from its terms' boxes, in f's big-M buffer. It
// fails on an indicator whose variable is not binary or whose terms have an
// infinite bound.
func (m *Model) relaxation(f *rowForm) error {
	*f = rowForm{m: m, bigM: grow(f.bigM, len(m.indicators))}
	for k, ind := range m.indicators {
		if !m.vars[ind.bin].integer || m.vars[ind.bin].lo < 0 || m.vars[ind.bin].hi > 1 {
			return errors.New("milp: indicator variable must be binary")
		}
		minV, maxV, nz, live, err := m.boxExtremes(ind.idxs, ind.coefs)
		if err != nil {
			return err
		}
		// ≥: a·x − M·b ≥ rhs − M with M ≥ rhs − minbox; ≤: a·x + M·b ≤ rhs + M
		// with M ≥ maxbox − rhs.
		need := maxV - ind.rhs
		if ind.ge {
			need = ind.rhs - minV
		}
		f.bigM[k] = max(need, 0)*1.01 + 1 // slack for numerical safety; larger M stays valid
		f.terms += live + 1
		f.coefs += nz + 1
	}
	for _, r := range m.rows {
		nz, live := m.liveTerms(r.idxs, r.coefs)
		f.terms += live
		f.coefs += nz
	}
	return nil
}

// grow returns buf resized to n elements, reallocating, to exactly n, only
// when its capacity falls short. Contents are unspecified.
func grow[T any](buf []T, n int) []T {
	if cap(buf) >= n {
		return buf[:n]
	}
	return make([]T, n)
}

// Presolve runs the root presolve of the model's LP relaxation, as Solve
// does before its search, on fresh memory.
func (m *Model) Presolve() (*lp.Presolved, error) {
	f := new(rowForm)
	if err := m.relaxation(f); err != nil {
		return nil, err
	}
	return lp.PresolveRows(f), nil
}

func (f *rowForm) NumCols() int  { return len(f.m.vars) }
func (f *rowForm) NumRows() int  { return len(f.m.rows) + len(f.m.indicators) }
func (f *rowForm) NumTerms() int { return f.terms }

func (f *rowForm) Col(j int) (obj, lo, hi float64, integer bool) {
	v := &f.m.vars[j]
	lo, hi = v.box()
	return v.obj, lo, hi, v.integer
}

func (f *rowForm) Row(i int, t *lp.RowTerms) (lo, hi float64) {
	if i < len(f.m.rows) {
		r := &f.m.rows[i]
		addTerms(t, r.idxs, r.coefs)
		return r.lo, r.hi
	}
	k := i - len(f.m.rows)
	ind := &f.m.indicators[k]
	addTerms(t, ind.idxs, ind.coefs)
	if ind.ge {
		t.Add(ind.bin, -f.bigM[k])
		return ind.rhs - f.bigM[k], lp.Inf
	}
	t.Add(ind.bin, f.bigM[k])
	return -lp.Inf, ind.rhs + f.bigM[k]
}

func addTerms(t *lp.RowTerms, idxs []int, coefs []float64) {
	if idxs == nil {
		t.AddDense(coefs)
		return
	}
	for k, j := range idxs {
		t.Add(j, coefs[k])
	}
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
	// InitialX optionally hints a point in model space (e.g. the previous
	// CSA-Solve package). A feasible hint seeds the incumbent and is not
	// copied: Result.X may be this slice. An infeasible one is the
	// neighbourhood guide: when the root relaxation is fractional and no
	// incumbent exists after rounding the root, the integer columns on
	// which the root LP point equals the rounded hint are fixed and a capped
	// search of that smaller box supplies the first incumbent (see
	// Result.Hint). A hint of the wrong
	// length is ignored.
	InitialX []float64
	// Cancel, when non-nil, aborts the search as soon as the channel is
	// closed. The best incumbent found so far is returned. It carries
	// context cancellation into the solver without coupling this package to
	// context.Context, and is forwarded into every node LP solve so a
	// cancellation takes effect within one simplex iteration even when a
	// single LP solve is long.
	Cancel <-chan struct{}
	// Parallelism is ignored: the search runs on the calling goroutine.
	// Measured on a two-core host, a second worker did not pay on the
	// small MILPs SummarySearch solves (DESIGN.md, "The round search").
	// The field stays until the benchmark harness stops setting it.
	Parallelism int
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
	return out
}

// Result is the outcome of a MILP solve.
type Result struct {
	Status Status
	// Stop is why the search ended. StopTimeCap and StopCancelled depend on
	// machine load; StopNodeCap, like StopComplete, repeats run to run.
	Stop Stop
	// X is the incumbent solution (valid for StatusOptimal/StatusFeasible).
	X []float64
	// Obj is the incumbent objective value.
	Obj float64
	// Bound is the root LP relaxation bound (a valid lower bound for
	// minimization).
	Bound float64
	// SolveWork counts the solve's work: nodes explored, simplex iterations
	// across the root relaxation and every node LP, node LPs that accepted
	// their parent's basis as a warm start, degenerate pivots, dual bound
	// flips, and the rows and columns the root presolve eliminated (node LPs
	// solve the reduced problem). Deterministic for a fixed model and
	// options whenever no wall-clock limit hit; observational, never fed
	// back into the search. A solve that stops at an infeasible, unbounded
	// or limit-cut root relaxation reports its LP work but no node or warm
	// start.
	client.SolveWork
	// PresolveTime is the wall-clock time of the root presolve
	// (Model.Presolve), the relaxation's big-M derivation included.
	PresolveTime time.Duration
	// Coefficients is the DILP size that was handed to the LP engine.
	Coefficients int
	// Rounds is the number of rounds the search ran (0 when the root
	// disposition resolved the tree).
	Rounds int
	// Hint is what became of Options.InitialX.
	Hint Hint
	// GuideNodes counts the nodes, its root included, of the neighbourhood
	// search an infeasible InitialX guided (0 when none ran). SolveWork
	// includes that search.
	GuideNodes int
	// GuideIncumbent reports that the neighbourhood search found a point,
	// which became the main search's first incumbent.
	GuideIncumbent bool
}

// Hint is the fate of Options.InitialX in one solve.
type Hint int

const (
	// HintNone means no InitialX was given, or one of the wrong length.
	HintNone Hint = iota
	// HintIncumbent means InitialX was feasible and seeded the incumbent.
	HintIncumbent
	// HintGuide means InitialX was infeasible and served as the
	// neighbourhood guide.
	HintGuide
)

func (h Hint) String() string {
	switch h {
	case HintIncumbent:
		return "incumbent"
	case HintGuide:
		return "guide"
	default:
		return "none"
	}
}
