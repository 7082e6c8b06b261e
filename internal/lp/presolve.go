// Presolve shrinks an LP before it ever reaches the simplex. The reductions
// are the classic safe set (Andersen & Andersen 1995, §2–4, restricted to
// the ones that never weaken the relaxation):
//
//	empty rows        0 ∈ [lo, hi] ⟹ drop; otherwise infeasible
//	singleton rows    lo ≤ a·x_j ≤ hi ⟹ tighten x_j's bounds, drop the row
//	redundant rows    activity range within [lo, hi] under the bounds ⟹ drop
//	bound tightening  per-entry implied bounds from each row's residual
//	                  activity; integer bounds round inward
//	fixed columns     lo_j = hi_j ⟹ substitute into row bounds, drop
//	empty columns     no rows ⟹ fix at the cost-minimizing finite bound
//
// Reductions run to a fixpoint. The result is a smaller Problem plus a
// postsolve map that restores eliminated variables in solution vectors. All
// reductions are integrality-aware (an `integer` mask rounds tightened
// bounds inward and keeps fixings integral), so the reduced problem is an
// equally valid MILP root: the branch-and-bound in internal/milp presolves
// once at the root and searches entirely in reduced space.
package lp

import "math"

const (
	presolveTol       = 1e-9 // redundancy / feasibility slack
	presolveIntTol    = 1e-6 // integrality slack when rounding bounds inward
	presolveMaxPasses = 16
)

func isPosInf(v float64) bool { return math.IsInf(v, 1) }
func isNegInf(v float64) bool { return math.IsInf(v, -1) }

// Presolved is the output of PresolveProblem: the reduced problem, the
// presolved bounds, and the mapping back to the original variable space.
type Presolved struct {
	// Reduced is the presolved problem; nil when Infeasible or Unbounded.
	Reduced *Problem
	// Lo, Hi are the presolved bounds of the reduced problem's variables
	// (tightened relative to the originals). Callers that solve with
	// per-node overrides should start from these.
	Lo, Hi []float64
	// ObjOffset is Σ c_j·v_j over eliminated variables: the constant the
	// reduced problem's objective is missing relative to the original.
	ObjOffset float64
	// RowsRemoved and ColsRemoved count eliminated rows and columns.
	RowsRemoved, ColsRemoved int
	// Infeasible reports that presolve proved the constraints unsatisfiable.
	Infeasible bool
	// Unbounded reports that presolve proved the objective unbounded (a
	// costed empty column with no finite bound in its improving direction).
	Unbounded bool

	n      int       // original variable count
	colMap []int     // reduced index → original index
	fixed  []float64 // original-space values of eliminated variables
	elim   []bool
}

// NumReduced returns the reduced problem's variable count.
func (pr *Presolved) NumReduced() int { return len(pr.colMap) }

// Col maps a reduced variable index to its original index.
func (pr *Presolved) Col(j int) int { return pr.colMap[j] }

// Postsolve expands a reduced-space solution vector to the original space,
// filling eliminated variables with their fixed values.
func (pr *Presolved) Postsolve(x []float64) []float64 {
	out := make([]float64, pr.n)
	for j := range out {
		if pr.elim[j] {
			out[j] = pr.fixed[j]
		}
	}
	for r, j := range pr.colMap {
		out[j] = x[r]
	}
	return out
}

// presolver is the working state of one PresolveProblem run.
type presolver struct {
	p        *Problem
	integer  []bool
	lo, hi   []float64
	rowLo    []float64
	rowHi    []float64
	rowAlive []bool
	colAlive []bool
	// Row i is rowCol/rowCoef[rowStart[i]:rowStart[i+1]], in column order:
	// p's nonzero entries transposed once (a cancelled zero would divide the
	// implied bounds by zero). colAlive skips eliminated columns.
	rowStart []int
	rowCol   []int32
	rowCoef  []float64

	fixed      []float64
	elim       []bool
	objOffset  float64
	changed    bool
	infeasible bool
	unbounded  bool
}

// PresolveProblem reduces the problem under the given bounds (nil uses the
// problem's own). integer may be nil (all continuous) or flag, per original
// variable, that only integral values are meaningful — presolve then rounds
// tightened bounds inward, which is valid for the MILP but not for its pure
// LP relaxation. The input problem and bound slices are not mutated.
func PresolveProblem(p *Problem, lo, hi []float64, integer []bool) *Presolved {
	ps := presolve(p, lo, hi, integer)
	out := &Presolved{n: p.nvars, fixed: ps.fixed, elim: ps.elim, ObjOffset: ps.objOffset,
		Infeasible: ps.infeasible, Unbounded: ps.unbounded}
	if !out.Infeasible && !out.Unbounded {
		ps.reduce(out)
	}
	return out
}

// presolve builds the row view, then applies the initial integrality
// rounding and the reduction passes to a fixpoint.
func presolve(p *Problem, lo, hi []float64, integer []bool) *presolver {
	if lo == nil {
		lo = p.varLo
	}
	if hi == nil {
		hi = p.varHi
	}
	n, m := p.nvars, len(p.rowLo)
	ps := &presolver{
		p:        p,
		integer:  integer,
		lo:       append([]float64(nil), lo...),
		hi:       append([]float64(nil), hi...),
		rowLo:    append([]float64(nil), p.rowLo...),
		rowHi:    append([]float64(nil), p.rowHi...),
		rowAlive: make([]bool, m),
		colAlive: make([]bool, n),
		rowStart: make([]int, m+1),
		rowCol:   make([]int32, len(p.rowIdx)),
		rowCoef:  make([]float64, len(p.coef)),
		fixed:    make([]float64, n),
		elim:     make([]bool, n),
	}
	for i := range ps.rowAlive {
		ps.rowAlive[i] = true
	}
	for j := range ps.colAlive {
		ps.colAlive[j] = true
	}
	for t, i := range p.rowIdx {
		if p.coef[t] != 0 {
			ps.rowStart[i+1]++
		}
	}
	for i := 0; i < m; i++ {
		ps.rowStart[i+1] += ps.rowStart[i]
	}
	next := append([]int(nil), ps.rowStart[:m]...)
	for j := 0; j < n; j++ {
		for t := p.colStart[j]; t < p.colStart[j+1]; t++ {
			if i := p.rowIdx[t]; p.coef[t] != 0 {
				ps.rowCol[next[i]], ps.rowCoef[next[i]] = int32(j), p.coef[t]
				next[i]++
			}
		}
	}
	for j := 0; j < n; j++ {
		ps.tighten(j, ps.lo[j], ps.hi[j])
	}
	for pass := 0; pass < presolveMaxPasses && !ps.infeasible && !ps.unbounded; pass++ {
		ps.changed = false
		ps.rowPass()
		if ps.infeasible {
			break
		}
		ps.colPass()
		if !ps.changed {
			break
		}
	}
	return ps
}

// reduce materializes the reduced problem by filtering the column store: a
// surviving column keeps its nonzero entries in surviving rows, in order.
func (ps *presolver) reduce(out *Presolved) {
	p := ps.p
	n, m := p.nvars, len(p.rowLo)
	rowMap := make([]int32, m)
	red := &Problem{obj: make([]float64, 0, n), colStart: make([]int, 1, n+1),
		rowIdx: make([]int32, 0, len(p.rowIdx)), coef: make([]float64, 0, len(p.coef))}
	for i := 0; i < m; i++ {
		if ps.rowAlive[i] {
			rowMap[i] = int32(len(red.rowLo))
			red.rowLo = append(red.rowLo, ps.rowLo[i])
			red.rowHi = append(red.rowHi, ps.rowHi[i])
		}
	}
	out.colMap, out.Lo, out.Hi = make([]int, 0, n), make([]float64, 0, n), make([]float64, 0, n)
	for j := 0; j < n; j++ {
		if !ps.colAlive[j] {
			continue
		}
		out.colMap = append(out.colMap, j)
		out.Lo, out.Hi = append(out.Lo, ps.lo[j]), append(out.Hi, ps.hi[j])
		red.obj = append(red.obj, p.obj[j])
		for t := p.colStart[j]; t < p.colStart[j+1]; t++ {
			if i := p.rowIdx[t]; ps.rowAlive[i] && p.coef[t] != 0 {
				red.rowIdx = append(red.rowIdx, rowMap[i])
				red.coef = append(red.coef, p.coef[t])
			}
		}
		red.colStart = append(red.colStart, len(red.rowIdx))
	}
	red.nvars = len(out.colMap)
	red.varLo, red.varHi = append([]float64(nil), out.Lo...), append([]float64(nil), out.Hi...)
	out.Reduced = red
	out.RowsRemoved = m - len(red.rowLo)
	out.ColsRemoved = n - red.nvars
}

// tighten intersects variable j's working bounds with [lo, hi], rounding
// inward for integer variables. Records a change only on real movement.
func (ps *presolver) tighten(j int, lo, hi float64) {
	if ps.integer != nil && ps.integer[j] {
		if !isNegInf(lo) {
			lo = math.Ceil(lo - presolveIntTol)
		}
		if !isPosInf(hi) {
			hi = math.Floor(hi + presolveIntTol)
		}
	}
	if lo > ps.lo[j]+presolveTol {
		ps.lo[j] = lo
		ps.changed = true
	}
	if hi < ps.hi[j]-presolveTol {
		ps.hi[j] = hi
		ps.changed = true
	}
	if ps.lo[j] > ps.hi[j]+presolveTol {
		ps.infeasible = true
	}
}

// contrib returns the activity range contribution of coefficient a over
// variable j's working bounds.
func (ps *presolver) contrib(j int, a float64) (cmin, cmax float64) {
	if a > 0 {
		return a * ps.lo[j], a * ps.hi[j]
	}
	return a * ps.hi[j], a * ps.lo[j]
}

// rowPass applies the row reductions: empty, singleton, redundancy, and
// per-entry implied-bound tightening.
func (ps *presolver) rowPass() {
	for i := range ps.rowAlive {
		if !ps.rowAlive[i] {
			continue
		}
		row := ps.rowStart[i]
		cols, coefs := ps.rowCol[row:ps.rowStart[i+1]], ps.rowCoef[row:ps.rowStart[i+1]]
		nnz := 0
		var sj int
		var sa float64
		for k, j := range cols {
			if ps.colAlive[j] {
				nnz++
				sj, sa = int(j), coefs[k]
			}
		}
		switch nnz {
		case 0:
			if ps.rowLo[i] > presolveTol || ps.rowHi[i] < -presolveTol {
				ps.infeasible = true
				return
			}
			ps.killRow(i)
			continue
		case 1:
			lo, hi := impliedFromRange(ps.rowLo[i], ps.rowHi[i], sa)
			ps.tighten(sj, lo, hi)
			if ps.infeasible {
				return
			}
			ps.killRow(i)
			continue
		}
		// Activity range with infinity counting.
		minSum, maxSum := 0.0, 0.0
		minInf, maxInf := 0, 0
		for k, j := range cols {
			if !ps.colAlive[j] {
				continue
			}
			cmin, cmax := ps.contrib(int(j), coefs[k])
			if isNegInf(cmin) {
				minInf++
			} else {
				minSum += cmin
			}
			if isPosInf(cmax) {
				maxInf++
			} else {
				maxSum += cmax
			}
		}
		actMin, actMax := minSum, maxSum
		if minInf > 0 {
			actMin = math.Inf(-1)
		}
		if maxInf > 0 {
			actMax = math.Inf(1)
		}
		if actMin > ps.rowHi[i]+presolveTol || actMax < ps.rowLo[i]-presolveTol {
			ps.infeasible = true
			return
		}
		if actMin >= ps.rowLo[i]-presolveTol && actMax <= ps.rowHi[i]+presolveTol {
			ps.killRow(i)
			continue
		}
		// Implied bounds per entry from the row's residual activity.
		for k, j := range cols {
			if !ps.colAlive[j] {
				continue
			}
			cmin, cmax := ps.contrib(int(j), coefs[k])
			lo, hi := impliedEntryBounds(ps.rowLo[i], ps.rowHi[i], coefs[k],
				residual(minSum, minInf, maxSum, maxInf, [2]float64{cmin, cmax}))
			ps.tighten(int(j), lo, hi)
			if ps.infeasible {
				return
			}
		}
	}
}

// residualRange is the activity range of a row excluding one entry.
type residualRange struct {
	min, max float64
}

// residual removes one entry's contribution from an inf-counted activity sum.
func residual(minSum float64, minInf int, maxSum float64, maxInf int, c [2]float64) residualRange {
	var r residualRange
	if isNegInf(c[0]) {
		minInf--
	} else {
		minSum -= c[0]
	}
	if isPosInf(c[1]) {
		maxInf--
	} else {
		maxSum -= c[1]
	}
	r.min, r.max = minSum, maxSum
	if minInf > 0 {
		r.min = math.Inf(-1)
	}
	if maxInf > 0 {
		r.max = math.Inf(1)
	}
	return r
}

// impliedFromRange solves lo ≤ a·x ≤ hi for x (singleton-row bounds).
func impliedFromRange(lo, hi, a float64) (float64, float64) {
	if a > 0 {
		return safeDiv(lo, a), safeDiv(hi, a)
	}
	return safeDiv(hi, a), safeDiv(lo, a)
}

// safeDiv divides preserving infinities (lo/hi are never NaN and a ≠ 0).
func safeDiv(v, a float64) float64 {
	if math.IsInf(v, 0) {
		if (v > 0) == (a > 0) {
			return math.Inf(1)
		}
		return math.Inf(-1)
	}
	return v / a
}

// impliedEntryBounds derives variable bounds from one row entry given the
// residual activity of the remaining entries:
//
//	rowLo − othersMax ≤ a·x_j ≤ rowHi − othersMin
//
// Unbounded residuals or row sides yield ±Inf (no information). A tiny
// relaxation keeps floating-point rounding from cutting the true optimum.
func impliedEntryBounds(rowLo, rowHi, a float64, oth residualRange) (float64, float64) {
	aLo, aHi := math.Inf(-1), math.Inf(1)
	if !isNegInf(rowLo) && !isPosInf(oth.max) {
		aLo = rowLo - oth.max
	}
	if !isPosInf(rowHi) && !isNegInf(oth.min) {
		aHi = rowHi - oth.min
	}
	lo, hi := impliedFromRange(aLo, aHi, a)
	if !isNegInf(lo) {
		lo -= presolveTol
	}
	if !isPosInf(hi) {
		hi += presolveTol
	}
	return lo, hi
}

// colPass eliminates fixed and empty columns.
func (ps *presolver) colPass() {
	for j := range ps.colAlive {
		if !ps.colAlive[j] {
			continue
		}
		if ps.hi[j]-ps.lo[j] <= presolveTol {
			v := ps.lo[j]
			if ps.integer != nil && ps.integer[j] {
				v = math.Round(v)
			}
			ps.fixColumn(j, v)
			continue
		}
		// Empty column: no surviving row touches it.
		empty := true
		for _, i := range ps.p.rowIdx[ps.p.colStart[j]:ps.p.colStart[j+1]] {
			if ps.rowAlive[i] {
				empty = false
				break
			}
		}
		if !empty {
			continue
		}
		c := ps.p.obj[j]
		switch {
		case c > presolveTol:
			if isNegInf(ps.lo[j]) {
				ps.unbounded = true
				return
			}
			ps.fixColumn(j, ps.lo[j])
		case c < -presolveTol:
			if isPosInf(ps.hi[j]) {
				ps.unbounded = true
				return
			}
			ps.fixColumn(j, ps.hi[j])
		default:
			switch {
			case ps.lo[j] <= 0 && ps.hi[j] >= 0:
				ps.fixColumn(j, 0)
			case !isNegInf(ps.lo[j]):
				ps.fixColumn(j, ps.lo[j])
			default:
				ps.fixColumn(j, ps.hi[j])
			}
		}
	}
}

// fixColumn eliminates variable j at value v, substituting its contribution
// into the bounds of every row it appears in.
func (ps *presolver) fixColumn(j int, v float64) {
	p := ps.p
	for t := p.colStart[j]; t < p.colStart[j+1]; t++ {
		i, a := p.rowIdx[t], p.coef[t]
		if !ps.rowAlive[i] {
			continue
		}
		if !isNegInf(ps.rowLo[i]) {
			ps.rowLo[i] -= a * v
		}
		if !isPosInf(ps.rowHi[i]) {
			ps.rowHi[i] -= a * v
		}
	}
	ps.colAlive[j] = false
	ps.elim[j] = true
	ps.fixed[j] = v
	ps.objOffset += ps.p.obj[j] * v
	ps.changed = true
}

func (ps *presolver) killRow(i int) {
	ps.rowAlive[i] = false
	ps.changed = true
}

// RowActivity caches per-row activity ranges (with infinity counting) over a
// fixed bound vector. The MILP search builds one over the presolved root
// bounds and uses ImpliedVarBounds for the per-node incremental tightening
// of the branched variable: O(nnz(column)) per node, no row rescans.
type RowActivity struct {
	lo, hi         []float64
	minSum, maxSum []float64
	minInf, maxInf []int32
}

// NewRowActivity computes the activity ranges of every row under lo/hi.
func (p *Problem) NewRowActivity(lo, hi []float64) *RowActivity {
	m := len(p.rowLo)
	act := &RowActivity{
		lo:     append([]float64(nil), lo...),
		hi:     append([]float64(nil), hi...),
		minSum: make([]float64, m),
		maxSum: make([]float64, m),
		minInf: make([]int32, m),
		maxInf: make([]int32, m),
	}
	for j := 0; j < p.nvars; j++ {
		for t := p.colStart[j]; t < p.colStart[j+1]; t++ {
			i := p.rowIdx[t]
			cmin, cmax := contribRange(p.coef[t], lo[j], hi[j])
			if isNegInf(cmin) {
				act.minInf[i]++
			} else {
				act.minSum[i] += cmin
			}
			if isPosInf(cmax) {
				act.maxInf[i]++
			} else {
				act.maxSum[i] += cmax
			}
		}
	}
	return act
}

func contribRange(a, lo, hi float64) (float64, float64) {
	if a > 0 {
		return a * lo, a * hi
	}
	return a * hi, a * lo
}

// ImpliedVarBounds intersects the implied bounds of variable j across every
// row it appears in, using the activity ranges act was built from (residuals
// must subtract the same contributions that were added). integer rounds the
// result inward. The returned interval may be empty (lo > hi), which proves
// no point satisfying the rows has x_j inside act's bound box — the MILP
// layer prunes such children without an LP solve.
func (p *Problem) ImpliedVarBounds(act *RowActivity, j int, integer bool) (float64, float64) {
	lo, hi := math.Inf(-1), math.Inf(1)
	for t := p.colStart[j]; t < p.colStart[j+1]; t++ {
		i, a := p.rowIdx[t], p.coef[t]
		cmin, cmax := contribRange(a, act.lo[j], act.hi[j])
		oth := residual(act.minSum[i], int(act.minInf[i]), act.maxSum[i], int(act.maxInf[i]), [2]float64{cmin, cmax})
		elo, ehi := impliedEntryBounds(p.rowLo[i], p.rowHi[i], a, oth)
		if elo > lo {
			lo = elo
		}
		if ehi < hi {
			hi = ehi
		}
	}
	if integer {
		if !isNegInf(lo) {
			lo = math.Ceil(lo - presolveIntTol)
		}
		if !isPosInf(hi) {
			hi = math.Floor(hi + presolveIntTol)
		}
	}
	return lo, hi
}
