// Package translate lowers a validated sPaQL query over a Monte Carlo
// relation into the canonical stochastic ILP of §2.3 (type SILP), and builds
// the deterministic approximations the paper studies with one builder,
// FormulateCSA: the conservative summary approximation of §4.1, with one
// indicator per summary and Σy_z ≥ ⌈pZ⌉ (size Θ(NZK)). The sample-average
// approximation of §3.1 (one indicator per scenario and Σy_j ≥ ⌈pM⌉, size
// Θ(NMK)) is FormulateCSA over M one-scenario summaries, because the
// α-summary of a single scenario is that scenario.
//
// It also derives finite decision-variable bounds from the query's
// deterministic structure (REPEAT, COUNT, positive-coefficient budget
// constraints), which both solvers need for valid big-M linearization.
package translate

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"

	"spq/internal/milp"
	"spq/internal/par"
	"spq/internal/relation"
	"spq/internal/rng"
	"spq/internal/scenario"
	"spq/internal/spaql"
	"spq/internal/stream"
)

// LinearCon is a deterministic or expectation constraint in per-tuple
// coefficient form: Lo ≤ Σ Coefs[i]·x_i ≤ Hi.
type LinearCon struct {
	Name  string
	Coefs []float64
	Lo    float64
	Hi    float64
}

// ProbCon is a normalized probabilistic constraint
// Pr(Σ f(t_i)·x_i ⊙ V) ≥ P with ⊙ = ≥ when Geq, ≤ otherwise.
type ProbCon struct {
	Name string
	Expr spaql.LinExpr
	Geq  bool
	V    float64
	P    float64
	// Mask marks the tuples the aggregate ranges over (PaQL general-form
	// filter); nil means all tuples.
	Mask []bool
}

// pins reports whether the constraint's summary rows pin tuples (pinner):
// a "≤" constraint with v ≥ 0 whose count row needs all z indicators.
func (c *ProbCon) pins(need float64, z int) bool {
	return need >= float64(z) && !c.Geq && c.V >= 0
}

// Direction returns the conservative summary direction for the constraint
// (Proposition 1: Min for ≥ inner constraints, Max for ≤).
func (c *ProbCon) Direction() scenario.Direction {
	if c.Geq {
		return scenario.Min
	}
	return scenario.Max
}

// ObjDirection is Direction for a probability objective's inner function
// Pr(Σ f(t_i)·x_i ⊙ ObjV).
func (s *SILP) ObjDirection() scenario.Direction {
	if s.ObjGeq {
		return scenario.Min
	}
	return scenario.Max
}

// ObjKind describes the canonicalized objective.
type ObjKind int

const (
	// ObjNone is a pure feasibility problem.
	ObjNone ObjKind = iota
	// ObjLinear minimizes/maximizes Σ c_i·x_i with deterministic c_i
	// (expectations already folded into the coefficients, §2.3).
	ObjLinear
	// ObjProbability maximizes Pr(Σ f(t_i)·x_i ⊙ V) (minimization is
	// normalized away by complementing the inner constraint).
	ObjProbability
)

// SILP is the canonical stochastic ILP for a query (§2.3): objective plus
// deterministic/expectation constraints and probabilistic constraints, with
// derived finite variable bounds.
//
// Treat a SILP as immutable once built: evaluations sharing it through the
// plan cache memoise on it what they derive from it alone (X0, ObjRange,
// Verdict).
type SILP struct {
	Query *spaql.Query
	// Rel is the relation after applying the WHERE clause.
	Rel *relation.Relation
	N   int

	Maximize bool
	ObjKind  ObjKind
	// ObjCoefs is the per-tuple objective coefficient vector for ObjLinear.
	ObjCoefs []float64
	// ObjExpr/ObjGeq/ObjV define the inner constraint for ObjProbability.
	ObjExpr spaql.LinExpr
	ObjGeq  bool
	ObjV    float64

	// ObjMask marks tuples the objective aggregate ranges over; nil = all.
	ObjMask []bool

	DetCons  []LinearCon
	ProbCons []ProbCon

	// VarLo/VarHi are the derived multiplicity bounds for each tuple.
	VarLo []float64
	VarHi []float64

	memo memo
	// models holds the models of finished formulations (Recycle), whose
	// memory the next formulation reuses. It is a free list, not a
	// sync.Pool: the formulations of one evaluation then take the same
	// model whichever P they run on, so what they allocate repeats run to
	// run. It goes with the SILP.
	models struct {
		sync.Mutex
		free []*milp.Model
	}
}

// maxObjRanges bounds the objective ranges memoised, one per validation seed.
const maxObjRanges = 4

// maxVerdicts bounds the validation verdicts memoised, one per validation
// stream and package.
const maxVerdicts = 256

// memo is what evaluations derive from a SILP alone. Concurrent first
// computations of one entry are identical, so either may store it.
type memo struct {
	mu       sync.Mutex
	x0       []float64
	x0Nodes  int
	x0Gap    float64
	ranges   map[uint64][2]float64
	verdicts map[string]any // core's *Validation, a type translate cannot name
}

// X0 returns the memoised x(0), Q0's optimal package (FormulateUnconstrained)
// under the branch-and-bound budget (nodes, gap), or nil. It is read only.
func (s *SILP) X0(nodes int, gap float64) []float64 {
	s.memo.mu.Lock()
	defer s.memo.mu.Unlock()
	if s.memo.x0Nodes != nodes || s.memo.x0Gap != gap {
		return nil
	}
	return s.memo.x0
}

// SetX0 memoises x, Q0's package from a solve that ended optimal under
// (nodes, gap), and keeps it. One slot: a new budget replaces the old, so
// clients varying budgets cannot grow a plan.
func (s *SILP) SetX0(nodes int, gap float64, x []float64) {
	s.memo.mu.Lock()
	defer s.memo.mu.Unlock()
	s.memo.x0, s.memo.x0Nodes, s.memo.x0Gap = x, nodes, gap
}

// ObjRange returns the memoised range [lo, hi] of the objective's inner
// function probed on the validation stream of seed (the §5.4 s̲, s̄).
func (s *SILP) ObjRange(seed uint64) (lo, hi float64, ok bool) {
	s.memo.mu.Lock()
	defer s.memo.mu.Unlock()
	r, ok := s.memo.ranges[seed]
	return r[0], r[1], ok
}

// SetObjRange memoises the objective range probed for seed. A seed past
// maxObjRanges starts the memo over.
func (s *SILP) SetObjRange(seed uint64, lo, hi float64) {
	s.memo.mu.Lock()
	defer s.memo.mu.Unlock()
	if s.memo.ranges == nil || len(s.memo.ranges) == maxObjRanges {
		s.memo.ranges = make(map[uint64][2]float64, maxObjRanges)
	}
	s.memo.ranges[seed] = [2]float64{lo, hi}
}

// Verdict returns the validation verdict memoised under key, which encodes
// the validation stream and the package it scored. It is read only.
func (s *SILP) Verdict(key []byte) (any, bool) {
	s.memo.mu.Lock()
	defer s.memo.mu.Unlock()
	v, ok := s.memo.verdicts[string(key)]
	return v, ok
}

// SetVerdict memoises v, the verdict of a validation that ran to completion,
// under key. A key past maxVerdicts starts the memo over.
func (s *SILP) SetVerdict(key []byte, v any) {
	s.memo.mu.Lock()
	defer s.memo.mu.Unlock()
	if _, dup := s.memo.verdicts[string(key)]; s.memo.verdicts == nil || !dup && len(s.memo.verdicts) == maxVerdicts {
		s.memo.verdicts = map[string]any{}
	}
	s.memo.verdicts[string(key)] = v
}

// Options tune the translation.
type Options struct {
	// MaxCopies caps tuple multiplicity when the query itself implies no
	// finite bound; indicator big-M derivation requires finite bounds.
	// Default 1000.
	MaxCopies int
}

func (o *Options) withDefaults() Options {
	out := Options{}
	if o != nil {
		out = *o
	}
	if out.MaxCopies == 0 {
		out.MaxCopies = 1000
	}
	return out
}

// applyMask zeroes values at tuples excluded by a general-form aggregate
// filter (nil mask = keep everything).
func applyMask(vals []float64, mask []bool) {
	if mask == nil {
		return
	}
	for i := range vals {
		if !mask[i] {
			vals[i] = 0
		}
	}
}

// exprColumn evaluates a linear expression per tuple using deterministic
// columns and (for stochastic attributes) cached means.
func exprColumn(rel *relation.Relation, e spaql.LinExpr) ([]float64, error) {
	out := make([]float64, rel.N())
	for i := range out {
		out[i] = e.Const
	}
	for _, t := range e.Terms {
		col, err := rel.Means(t.Attr)
		if err != nil {
			return nil, err
		}
		for i := range out {
			out[i] += t.Coef * col[i]
		}
	}
	return out, nil
}

// ExprEqual reports whether two linear expressions denote the same function
// (terms combined and compared attribute-wise). It is used to classify
// probabilistic constraints as supporting/counteracting an objective
// (Definition 2), which requires the same inner random variables.
func ExprEqual(a, b spaql.LinExpr) bool {
	norm := func(e spaql.LinExpr) map[string]float64 {
		m := map[string]float64{}
		for _, t := range e.Terms {
			m[t.Attr] += t.Coef
		}
		for k, v := range m {
			if v == 0 {
				delete(m, k)
			}
		}
		return m
	}
	na, nb := norm(a), norm(b)
	if a.Const != b.Const || len(na) != len(nb) {
		return false
	}
	for k, v := range na {
		if nb[k] != v {
			return false
		}
	}
	return true
}

// Build validates and lowers a query against a relation. Means for
// stochastic attributes referenced by EXPECTED clauses or expectation
// objectives must have been computed (relation.ComputeMeans) beforehand.
func Build(q *spaql.Query, rel *relation.Relation, o *Options) (*SILP, error) {
	opts := o.withDefaults()
	if err := q.Validate(rel); err != nil {
		return nil, err
	}
	if q.Where != nil {
		// Predicate pushdown: scan the referenced deterministic columns
		// block-by-block (no promotion of lazy columns, no scenario
		// generation) and gather only the surviving tuples into the view.
		attrs := q.Where.Attrs(nil)
		kept, err := stream.Filter(rel, attrs, func(get func(string) float64) bool {
			return q.Where.Eval(get)
		}, 0)
		if err != nil {
			return nil, err
		}
		if rel, err = rel.SelectIndices(kept); err != nil {
			return nil, err
		}
	}
	n := rel.N()
	if n == 0 {
		return nil, errors.New("translate: no tuples satisfy the WHERE clause")
	}
	s := &SILP{Query: q, Rel: rel, N: n}

	// filterMask evaluates a PaQL general-form aggregate filter over the
	// (already WHERE-filtered) relation's deterministic columns, block-wise.
	filterMask := func(f spaql.BoolExpr) ([]bool, error) {
		if f == nil {
			return nil, nil
		}
		return stream.MaskOf(rel, f.Attrs(nil), f.Eval, 0)
	}

	for i, c := range q.Constraints {
		name := fmt.Sprintf("c%d", i+1)
		mask, err := filterMask(c.Filter)
		if err != nil {
			return nil, fmt.Errorf("translate: constraint %d filter: %w", i+1, err)
		}
		if c.Prob != nil {
			pc := ProbCon{Name: name, Expr: c.Expr, V: c.Value, Geq: c.Op == spaql.OpGE, P: c.Prob.P, Mask: mask}
			if c.Prob.Op == spaql.OpLE {
				// Pr(inner) ≤ p  ⇔  Pr(¬inner) ≥ 1−p (§2.3).
				pc.Geq = !pc.Geq
				pc.P = 1 - pc.P
			}
			s.ProbCons = append(s.ProbCons, pc)
			continue
		}
		coefs, err := exprColumn(rel, c.Expr)
		if err != nil {
			return nil, fmt.Errorf("translate: constraint %d: %w", i+1, err)
		}
		applyMask(coefs, mask)
		lc := LinearCon{Name: name, Coefs: coefs, Lo: math.Inf(-1), Hi: math.Inf(1)}
		switch {
		case c.Between:
			lc.Lo, lc.Hi = c.Lo, c.Hi
		default:
			switch c.Op {
			case spaql.OpLE, spaql.OpLT:
				lc.Hi = c.Value
			case spaql.OpGE, spaql.OpGT:
				lc.Lo = c.Value
			case spaql.OpEQ:
				lc.Lo, lc.Hi = c.Value, c.Value
			default:
				return nil, fmt.Errorf("translate: constraint %d: operator %v not supported in package constraints", i+1, c.Op)
			}
		}
		s.DetCons = append(s.DetCons, lc)
	}

	if obj := q.Objective; obj != nil {
		s.Maximize = obj.Sense == spaql.Maximize
		mask, err := filterMask(obj.Filter)
		if err != nil {
			return nil, fmt.Errorf("translate: objective filter: %w", err)
		}
		s.ObjMask = mask
		switch obj.Kind {
		case spaql.ObjCount, spaql.ObjDeterministic, spaql.ObjExpected:
			coefs, err := exprColumn(rel, obj.Expr)
			if err != nil {
				return nil, fmt.Errorf("translate: objective: %w", err)
			}
			applyMask(coefs, mask)
			s.ObjKind = ObjLinear
			s.ObjCoefs = coefs
			// Keep the source expression: the approximation-bound machinery
			// (§5.4) probes the inner function's realized value range.
			s.ObjExpr = obj.Expr
		case spaql.ObjProbability:
			s.ObjKind = ObjProbability
			s.ObjExpr = obj.Expr
			s.ObjGeq = obj.Op == spaql.OpGE || obj.Op == spaql.OpGT
			s.ObjV = obj.Value
			if !s.Maximize {
				// min Pr(inner) = 1 − max Pr(¬inner): normalize to a
				// maximization of the complemented inner constraint.
				s.ObjGeq = !s.ObjGeq
				s.Maximize = true
			}
		}
	}

	s.deriveBounds(opts.MaxCopies)
	return s, nil
}

// deriveBounds computes finite per-tuple multiplicity bounds from REPEAT,
// COUNT upper bounds and positive-coefficient ≤-budget constraints.
func (s *SILP) deriveBounds(maxCopies int) {
	n := s.N
	s.VarLo = make([]float64, n)
	s.VarHi = make([]float64, n)
	cap := math.Inf(1)
	if s.Query.Repeat >= 0 {
		// REPEAT l allows l extra duplicates: at most l+1 copies (§2.1).
		cap = float64(s.Query.Repeat + 1)
	}
	for i := range s.VarHi {
		s.VarHi[i] = cap
	}
	for _, c := range s.DetCons {
		if math.IsInf(c.Hi, 1) {
			continue
		}
		// A budget row Σ a_i·x_i ≤ B with all a_i > 0 implies x_i ≤ B/a_i.
		allPos := true
		for _, a := range c.Coefs {
			if a <= 0 {
				allPos = false
				break
			}
		}
		if !allPos || c.Hi < 0 {
			continue
		}
		for i, a := range c.Coefs {
			if b := math.Floor(c.Hi / a); b < s.VarHi[i] {
				s.VarHi[i] = b
			}
		}
	}
	for i := range s.VarHi {
		if math.IsInf(s.VarHi[i], 1) || s.VarHi[i] > float64(maxCopies) {
			s.VarHi[i] = float64(maxCopies)
		}
		if s.VarHi[i] < 0 {
			s.VarHi[i] = 0
		}
	}
}

// VarMap records how the indicator variables of a formulation map back to
// the query: ConsY the indicator variables per probabilistic constraint,
// ObjY the objective indicator variables, and ObjDenom the divisor
// converting the objective indicator count into a probability estimate. The
// tuple-multiplicity variables need no map: x_i is variable i.
type VarMap struct {
	ConsY    [][]int
	ObjY     []int
	ObjDenom float64
}

// PackageOf extracts the tuple multiplicities, the first N entries, from a
// solver solution of one of the SILP's formulations into dst, which is
// grown only when it is too short.
func (s *SILP) PackageOf(dst, x []float64) []float64 {
	if cap(dst) < s.N {
		dst = make([]float64, s.N)
	}
	out := dst[:s.N]
	for i, v := range x[:s.N] {
		out[i] = math.Round(v)
	}
	return out
}

// FormulateUnconstrained builds the DILP of Q0, the query without its
// probabilistic constraints (Algorithm 2, line 2): x variables, objective and
// deterministic rows, which FormulateCSA extends. The model may be handed
// back with Recycle once its solve is done.
func (s *SILP) FormulateUnconstrained() (*milp.Model, *VarMap) {
	return s.formulate(0, 0)
}

// Recycle takes back a model FormulateUnconstrained or FormulateCSA
// returned, which the caller must not use again: the SILP's next
// formulation is built in its memory.
func (s *SILP) Recycle(m *milp.Model) {
	m.Reset()
	s.models.Lock()
	s.models.free = append(s.models.free, m)
	s.models.Unlock()
}

// model takes a recycled model, or makes one.
func (s *SILP) model() *milp.Model {
	s.models.Lock()
	defer s.models.Unlock()
	k := len(s.models.free) - 1
	if k < 0 {
		return milp.NewModel()
	}
	m := s.models.free[k]
	s.models.free[k] = nil
	s.models.free = s.models.free[:k]
	return m
}

// formulate builds Q0's DILP with room for the indicators (one binary
// each) and the counting rows a formulation adds, in a recycled model's
// memory when there is one. The x variables come first, so x_i is variable
// i and a row over every tuple is dense: the model reads its coefficients
// where they are.
func (s *SILP) formulate(indicators, rows int) (*milp.Model, *VarMap) {
	m := s.model()
	m.Reserve(s.N+indicators, len(s.DetCons)+rows, indicators)
	vm := &VarMap{}
	for i := 0; i < s.N; i++ {
		obj := 0.0
		if s.ObjKind == ObjLinear {
			obj = s.ObjCoefs[i]
			if s.Maximize {
				obj = -obj
			}
		}
		m.AddVar(s.VarLo[i], s.VarHi[i], obj, true)
	}
	for _, c := range s.DetCons {
		m.AddRow(nil, c.Coefs, c.Lo, c.Hi)
	}
	return m, vm
}

// addIndicator adds one scenario/summary indicator for a probabilistic
// inner constraint over realized values, one per tuple.
func addIndicator(m *milp.Model, vals []float64, geq bool, v float64) int {
	y := m.AddBinary(0)
	if geq {
		m.AddIndicatorGE(y, nil, vals, v)
	} else {
		m.AddIndicatorLE(y, nil, vals, v)
	}
	return y
}

// pinMargin is how far past v a summary value must lie, relative to it,
// for its row alone to pin the tuple (pinner.exclude). Presolve fixes the
// tuple at 0 from the same row once v/value is below 1 − 1e-6 or so: its
// integer rounding slack, plus rounding in the big-M arithmetic.
const pinMargin = 1e-5

// pinner pins, over one formulation, the tuple variables that a summary
// row alone excludes (milp.Model.SetPinned). Take a probabilistic "≤"
// constraint whose count row forces every indicator (⌈p·Z⌉ ≥ Z), with
// v ≥ 0, over the integer tuple variables, whose lower bounds are 0: a row
// of nonnegative values then holds only where every tuple whose value
// exceeds v is absent.
// Presolve finds this again from each such row, walking all of it; a
// pinned tuple leaves the rows presolve stores. Only tuples presolve fixes
// at 0 from the row itself are pinned, so the presolved problem does not
// change: the value must exceed v by pinMargin, and the row must be scaled
// so that rounding in its big-M arithmetic stays below that margin.
type pinner struct {
	m     *milp.Model
	off   bool // a tuple's lower bound is not 0: nothing is pinned
	maxHi float64
}

// newPinner returns the pinner of a model whose first len(lo) variables
// are the tuples with bounds lo and hi.
func newPinner(m *milp.Model, lo, hi []float64) *pinner {
	maxHi := 0.0
	for i := range lo {
		if math.Float64bits(lo[i]) != 0 {
			return &pinner{off: true}
		}
		if hi[i] > maxHi {
			maxHi = hi[i]
		}
	}
	return &pinner{m: m, maxHi: maxHi}
}

// excludes reports that a forced row Σ vals·x ≤ v pins a tuple of value a.
func excludes(a, v float64) bool { return v < a*(1-pinMargin) }

// exclude pins each tuple that a forced row Σ vals·x ≤ v (v ≥ 0)
// excludes. The row is checked first: one with a negative value, or one
// whose scale (as in milp's big-M derivation, over the tuple bounds)
// dwarfs the margin, pins nothing.
func (p *pinner) exclude(vals []float64, v float64) {
	if p.off {
		return
	}
	most := 0.0
	for _, a := range vals {
		if !(a >= 0) {
			return
		}
		if a > most {
			most = a
		}
	}
	// Presolve fixes a pinned tuple from this row when its margin, above
	// v·1e-5, exceeds the redundancy slack (1e-9) and the rounding of v and
	// of the row's activity against big-M, at most 1e-15·(v + Σ vals·hi + 1).
	if v*8e-6 <= 1.1e-9+1e-15*(v+(1+float64(len(vals))*p.maxHi)*most+1) {
		return
	}
	for i, a := range vals {
		// Both computed before the store, which is then no branch on data.
		ex, pinned := excludes(a, v), p.m.Pinned(i)
		p.m.SetPinned(i, pinned || ex)
	}
}

// FormulateCSA builds the CSA_{Q,M,Z} reduced DILP of §4.1: summaries
// replace scenarios. summaries must hold, per probabilistic constraint, the
// Z α-summaries of its partitions; objSummaries (may be nil when the
// objective is not probabilistic) replace the objective scenario set. A
// tuple that a forced summary row alone excludes is pinned (pinner). The
// model may be handed back with Recycle once its solve is done.
func (s *SILP) FormulateCSA(summaries [][]*scenario.Summary, objSummaries []*scenario.Summary) (*milp.Model, *VarMap, error) {
	if len(summaries) != len(s.ProbCons) {
		return nil, nil, fmt.Errorf("translate: got %d summary groups for %d probabilistic constraints", len(summaries), len(s.ProbCons))
	}
	indicators := 0
	for _, group := range summaries {
		indicators += len(group)
	}
	if s.ObjKind == ObjProbability {
		indicators += len(objSummaries)
	}
	m, vm := s.formulate(indicators, len(summaries))
	var pin *pinner // made for the first forced row
	for k, pc := range s.ProbCons {
		group := summaries[k]
		if len(group) == 0 {
			return nil, nil, fmt.Errorf("translate: constraint %s has no summaries", pc.Name)
		}
		ys := make([]int, len(group))
		for z, sm := range group {
			ys[z] = addIndicator(m, sm.Values, pc.Geq, pc.V)
		}
		need := math.Ceil(pc.P * float64(len(group)))
		if pc.pins(need, len(group)) {
			if pin == nil {
				pin = newPinner(m, s.VarLo, s.VarHi)
			}
			for _, sm := range group {
				pin.exclude(sm.Values, pc.V)
			}
		}
		ones := make([]float64, len(ys))
		for i := range ones {
			ones[i] = 1
		}
		m.AddRow(ys, ones, need, milp.Inf)
		vm.ConsY = append(vm.ConsY, ys)
	}
	if s.ObjKind == ObjProbability {
		if len(objSummaries) == 0 {
			return nil, nil, errors.New("translate: probability objective requires objective summaries")
		}
		vm.ObjDenom = float64(len(objSummaries))
		for _, sm := range objSummaries {
			y := addIndicator(m, sm.Values, s.ObjGeq, s.ObjV)
			m.SetObj(y, -1/vm.ObjDenom)
			vm.ObjY = append(vm.ObjY, y)
		}
	}
	return m, vm, nil
}

// realizeRows materializes rows for absolute scenario indices
// [first, first+m) of one inner-function expression through the row kernel:
// tuple-major, at most stream.RowChunk scenarios per Row call, tuples
// sharded across workers with one RowBuf per shard. Each value is a pure
// function of its (tuple, scenario) coordinate, so the rows are identical
// for any worker count.
func (s *SILP) realizeRows(ctx context.Context, src rng.Source, e spaql.LinExpr, mask []bool, first, m, workers int) ([][]float64, error) {
	kernel, err := s.ExprCursor("", src, e, mask, 0).Rows()
	if err != nil {
		return nil, err
	}
	rows := make([][]float64, m)
	for j := range rows {
		rows[j] = make([]float64, s.N)
	}
	err = par.Ranges(ctx, s.N, workers, func(_, lo, hi int) error {
		buf := stream.GetRowBuf()
		defer stream.PutRowBuf(buf)
		for i := lo; i < hi; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			for j0 := 0; j0 < m; j0 += stream.RowChunk {
				scens := buf.IDs[:min(stream.RowChunk, m-j0)]
				for k := range scens {
					scens[k] = first + j0 + k
				}
				vals, err := kernel.Row(i, scens, buf)
				if err != nil {
					return err
				}
				for k, v := range vals {
					rows[j0+k][i] = v
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// GenerateSetsP materializes scenario sets of inner-function values for
// every probabilistic constraint (and the probability objective, returned
// second), covering absolute scenario indices [first, first+m), with
// generation sharded across workers and cancellation via ctx. The sets are
// identical for any worker count, and hold the values the cursors of
// ConsCursor and ObjCursor realize.
func (s *SILP) GenerateSetsP(ctx context.Context, src rng.Source, first, m, workers int) ([]*scenario.Set, *scenario.Set, error) {
	sets := make([]*scenario.Set, len(s.ProbCons))
	for k, pc := range s.ProbCons {
		rows, err := s.realizeRows(ctx, src, pc.Expr, pc.Mask, first, m, workers)
		if err != nil {
			return nil, nil, err
		}
		set := scenario.FromRows(pc.Name, nil, nil)
		for j, row := range rows {
			set.AppendRow(first+j, row)
		}
		sets[k] = set
	}
	var objSet *scenario.Set
	if s.ObjKind == ObjProbability {
		rows, err := s.realizeRows(ctx, src, s.ObjExpr, s.ObjMask, first, m, workers)
		if err != nil {
			return nil, nil, err
		}
		objSet = scenario.FromRows("objective", nil, nil)
		for j, row := range rows {
			objSet.AppendRow(first+j, row)
		}
	}
	return sets, objSet, nil
}

// ExprCursor binds one inner-function expression to a streaming cursor
// over the SILP's relation.
func (s *SILP) ExprCursor(name string, src rng.Source, e spaql.LinExpr, mask []bool, block int) *stream.ScenarioCursor {
	terms := make([]stream.Term, len(e.Terms))
	for i, t := range e.Terms {
		terms[i] = stream.Term{Coef: t.Coef, Attr: t.Attr}
	}
	return &stream.ScenarioCursor{
		Name:  name,
		Src:   src,
		Rel:   s.Rel,
		Const: e.Const,
		Terms: terms,
		Mask:  mask,
		Block: block,
	}
}

// ConsCursor returns a streaming scenario cursor for probabilistic
// constraint k: realizations are produced block-wise on demand instead of
// materialized into a scenario set; GenerateSetsP materializes the same
// values through the same row kernel. block ≤ 0 uses the stream default.
func (s *SILP) ConsCursor(k int, src rng.Source, block int) *stream.ScenarioCursor {
	pc := &s.ProbCons[k]
	return s.ExprCursor(pc.Name, src, pc.Expr, pc.Mask, block)
}

// SummarizeParts folds, off the cursors over src, the summary of every
// scenario partition in parts with all of its scenarios chosen (α = 1), in
// partition order: one group per probabilistic constraint, and the group of
// a probability objective (nil otherwise). The summary of a one-scenario
// partition is that scenario, so FormulateCSA over parts {0}, …, {M−1} is
// SAA_{Q,M}.
func (s *SILP) SummarizeParts(ctx context.Context, src rng.Source, parts [][]int, workers int) ([][]*scenario.Summary, []*scenario.Summary, error) {
	summarize := func(cur *stream.ScenarioCursor, dir scenario.Direction) ([]*scenario.Summary, error) {
		group := make([]*scenario.Summary, len(parts))
		for z, part := range parts {
			sm, err := cur.Summarize(ctx, part, dir, nil, workers)
			if err != nil {
				return nil, err
			}
			group[z] = sm
		}
		return group, nil
	}
	sums := make([][]*scenario.Summary, len(s.ProbCons))
	for k := range s.ProbCons {
		group, err := summarize(s.ConsCursor(k, src, 0), s.ProbCons[k].Direction())
		if err != nil {
			return nil, nil, err
		}
		sums[k] = group
	}
	var objSums []*scenario.Summary
	if cur := s.ObjCursor(src, 0); cur != nil {
		var err error
		if objSums, err = summarize(cur, s.ObjDirection()); err != nil {
			return nil, nil, err
		}
	}
	return sums, objSums, nil
}

// ObjCursor returns the streaming cursor for a probability objective's inner
// function, or nil when the objective is not probabilistic.
func (s *SILP) ObjCursor(src rng.Source, block int) *stream.ScenarioCursor {
	if s.ObjKind != ObjProbability {
		return nil
	}
	return s.ExprCursor("objective", src, s.ObjExpr, s.ObjMask, block)
}
