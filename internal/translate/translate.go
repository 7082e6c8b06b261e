// Package translate lowers a validated sPaQL query over a Monte Carlo
// relation into the canonical stochastic ILP of §2.3 (type SILP), and builds
// the two deterministic approximations the paper studies:
//
//   - FormulateSAA — the sample-average approximation DILP of §3.1, with one
//     indicator variable per scenario per probabilistic constraint and the
//     counting constraint Σy_j ≥ ⌈pM⌉ (size Θ(NMK));
//   - FormulateCSA — the conservative summary approximation of §4.1, with
//     one indicator per summary and Σy_z ≥ ⌈pZ⌉ (size Θ(NZK)).
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

// Included reports whether tuple i participates in the constraint.
func (c *ProbCon) Included(i int) bool { return c.Mask == nil || c.Mask[i] }

// Direction returns the conservative summary direction for the constraint
// (Proposition 1: Min for ≥ inner constraints, Max for ≤).
func (c *ProbCon) Direction() scenario.Direction {
	if c.Geq {
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
// plan cache memoise on it what they derive from it alone (X0, ObjRange).
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
}

// maxObjRanges bounds the objective ranges memoised, one per validation seed.
const maxObjRanges = 4

// memo is what evaluations derive from a SILP alone. Concurrent first
// computations of one entry are identical, so either may store it.
type memo struct {
	mu      sync.Mutex
	x0      []float64
	x0Nodes int
	x0Gap   float64
	ranges  map[uint64][2]float64
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

// ExprRealize fills out with the realized per-tuple inner-function values
// Σ coef·attr + const for one scenario: stochastic attributes are realized
// under src, deterministic attributes use their column values.
func ExprRealize(src rng.Source, rel *relation.Relation, e spaql.LinExpr, scenarioID int, out []float64) error {
	for i := range out {
		out[i] = e.Const
	}
	buf := make([]float64, rel.N())
	for _, t := range e.Terms {
		if err := rel.Realize(src, t.Attr, scenarioID, buf); err != nil {
			return err
		}
		for i := range out {
			out[i] += t.Coef * buf[i]
		}
	}
	return nil
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
		rel = rel.SelectIndices(kept)
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

// VarMap records how model variables map back to the query: X lists the
// tuple-multiplicity variable indices, ConsY the indicator variables per
// probabilistic constraint, ObjY the objective indicator variables, and
// ObjDenom the divisor converting the objective indicator count into a
// probability estimate.
type VarMap struct {
	X        []int
	ConsY    [][]int
	ObjY     []int
	ObjDenom float64
}

// PackageOf extracts the tuple multiplicities from a solver solution.
func (vm *VarMap) PackageOf(x []float64) []float64 {
	out := make([]float64, len(vm.X))
	for i, j := range vm.X {
		out[i] = math.Round(x[j])
	}
	return out
}

// FormulateUnconstrained builds the DILP of Q0, the query without its
// probabilistic constraints (Algorithm 2, line 2): x variables, objective and
// deterministic rows, which the SAA and CSA formulations extend.
func (s *SILP) FormulateUnconstrained() (*milp.Model, *VarMap) {
	m := milp.NewModel()
	vm := &VarMap{X: make([]int, s.N)}
	for i := 0; i < s.N; i++ {
		obj := 0.0
		if s.ObjKind == ObjLinear {
			obj = s.ObjCoefs[i]
			if s.Maximize {
				obj = -obj
			}
		}
		vm.X[i] = m.AddVar(s.VarLo[i], s.VarHi[i], obj, true)
	}
	for _, c := range s.DetCons {
		idxs := make([]int, 0, s.N)
		coefs := make([]float64, 0, s.N)
		for i, a := range c.Coefs {
			if a != 0 {
				idxs = append(idxs, vm.X[i])
				coefs = append(coefs, a)
			}
		}
		m.AddRow(idxs, coefs, c.Lo, c.Hi)
	}
	return m, vm
}

// addIndicator adds one scenario/summary indicator for a probabilistic
// inner constraint over realized values.
func addIndicator(m *milp.Model, vm *VarMap, vals []float64, geq bool, v float64) int {
	y := m.AddBinary(0)
	idxs := make([]int, 0, len(vals))
	coefs := make([]float64, 0, len(vals))
	for i, a := range vals {
		if a != 0 {
			idxs = append(idxs, vm.X[i])
			coefs = append(coefs, a)
		}
	}
	if geq {
		m.AddIndicatorGE(y, idxs, coefs, v)
	} else {
		m.AddIndicatorLE(y, idxs, coefs, v)
	}
	return y
}

// FormulateSAA builds the SAA_{Q,M} DILP of §3.1. sets must hold one
// scenario set of realized inner-function values per probabilistic
// constraint (aligned with s.ProbCons); objSet is required iff the objective
// is probabilistic and supplies its inner-function realizations.
func (s *SILP) FormulateSAA(sets []*scenario.Set, objSet *scenario.Set) (*milp.Model, *VarMap, error) {
	if len(sets) != len(s.ProbCons) {
		return nil, nil, fmt.Errorf("translate: got %d scenario sets for %d probabilistic constraints", len(sets), len(s.ProbCons))
	}
	m, vm := s.FormulateUnconstrained()
	for k, pc := range s.ProbCons {
		set := sets[k]
		ys := make([]int, set.M())
		for j := 0; j < set.M(); j++ {
			ys[j] = addIndicator(m, vm, set.Row(j), pc.Geq, pc.V)
		}
		need := math.Ceil(pc.P * float64(set.M()))
		ones := make([]float64, len(ys))
		for i := range ones {
			ones[i] = 1
		}
		m.AddRow(ys, ones, need, milp.Inf)
		vm.ConsY = append(vm.ConsY, ys)
	}
	if s.ObjKind == ObjProbability {
		if objSet == nil {
			return nil, nil, errors.New("translate: probability objective requires an objective scenario set")
		}
		vm.ObjDenom = float64(objSet.M())
		for j := 0; j < objSet.M(); j++ {
			// Maximize the satisfied fraction: each indicator contributes
			// −1/M to the canonical minimization objective.
			y := addIndicator(m, vm, objSet.Row(j), s.ObjGeq, s.ObjV)
			m.SetObj(y, -1/vm.ObjDenom)
			vm.ObjY = append(vm.ObjY, y)
		}
	}
	return m, vm, nil
}

// FormulateCSA builds the CSA_{Q,M,Z} reduced DILP of §4.1: summaries
// replace scenarios. summaries must hold, per probabilistic constraint, the
// Z α-summaries of its partitions; objSummaries (may be nil when the
// objective is not probabilistic) replace the objective scenario set.
func (s *SILP) FormulateCSA(summaries [][]*scenario.Summary, objSummaries []*scenario.Summary) (*milp.Model, *VarMap, error) {
	if len(summaries) != len(s.ProbCons) {
		return nil, nil, fmt.Errorf("translate: got %d summary groups for %d probabilistic constraints", len(summaries), len(s.ProbCons))
	}
	m, vm := s.FormulateUnconstrained()
	for k, pc := range s.ProbCons {
		group := summaries[k]
		if len(group) == 0 {
			return nil, nil, fmt.Errorf("translate: constraint %s has no summaries", pc.Name)
		}
		ys := make([]int, len(group))
		for z, sm := range group {
			ys[z] = addIndicator(m, vm, sm.Values, pc.Geq, pc.V)
		}
		need := math.Ceil(pc.P * float64(len(group)))
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
			y := addIndicator(m, vm, sm.Values, s.ObjGeq, s.ObjV)
			m.SetObj(y, -1/vm.ObjDenom)
			vm.ObjY = append(vm.ObjY, y)
		}
	}
	return m, vm, nil
}

// realizeRows materializes rows for absolute scenario indices
// [first, first+m) of one inner-function expression, sharding scenarios
// across workers. Each row is a pure function of its scenario coordinate, so
// the result is identical for any worker count.
func (s *SILP) realizeRows(ctx context.Context, src rng.Source, e spaql.LinExpr, mask []bool, first, m, workers int) ([][]float64, error) {
	rows := make([][]float64, m)
	err := par.Ranges(ctx, m, workers, func(_, lo, hi int) error {
		for j := lo; j < hi; j++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			row := make([]float64, s.N)
			if err := ExprRealize(src, s.Rel, e, first+j, row); err != nil {
				return err
			}
			applyMask(row, mask)
			rows[j] = row
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// GenerateSets materializes scenario sets of inner-function values for every
// probabilistic constraint (and the probability objective, returned second),
// covering absolute scenario indices [first, first+m).
func (s *SILP) GenerateSets(src rng.Source, first, m int) ([]*scenario.Set, *scenario.Set, error) {
	return s.GenerateSetsP(context.Background(), src, first, m, 1)
}

// GenerateSetsP is GenerateSets with scenario generation sharded across
// workers and cancellation via ctx; results are identical to the sequential
// path for any worker count.
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
// materialized into a scenario set, and are bit-identical to the rows
// GenerateSetsP would build (same coordinates, same term order, same mask
// semantics). block ≤ 0 uses the stream default.
func (s *SILP) ConsCursor(k int, src rng.Source, block int) *stream.ScenarioCursor {
	pc := &s.ProbCons[k]
	return s.ExprCursor(pc.Name, src, pc.Expr, pc.Mask, block)
}

// ObjCursor returns the streaming cursor for a probability objective's inner
// function, or nil when the objective is not probabilistic.
func (s *SILP) ObjCursor(src rng.Source, block int) *stream.ScenarioCursor {
	if s.ObjKind != ObjProbability {
		return nil
	}
	return s.ExprCursor("objective", src, s.ObjExpr, s.ObjMask, block)
}
