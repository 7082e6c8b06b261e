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
// Reductions run to a fixpoint over a row store that PresolveRows fills
// from rows as a caller writes them (the MILP layer's model). A column
// whose bounds are [+0, 0] never enters the store: it is eliminated at 0
// before the first pass, and the rest reduces as it would with that column
// deleted. The result is a smaller Problem plus a postsolve map that
// restores eliminated variables in solution vectors. All reductions are
// integrality-aware (an `integer` mask rounds tightened bounds inward and
// keeps fixings integral), so the reduced problem is an equally valid MILP
// root: the branch-and-bound in internal/milp presolves once at the root
// and searches entirely in reduced space.
package lp

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

const (
	presolveTol       = 1e-9 // redundancy / feasibility slack
	presolveIntTol    = 1e-6 // integrality slack when rounding bounds inward
	presolveMaxPasses = 16
)

func isPosInf(v float64) bool { return math.IsInf(v, 1) }
func isNegInf(v float64) bool { return math.IsInf(v, -1) }

// Presolved is the output of a presolve: the reduced problem, the
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

// presolver is the working state of one presolve run. Its input is a row
// store that PresolveRows fills straight from rows (the tests'
// PresolveProblem by transposing a Problem's columns); the passes, the
// reduced problem and every float operation are the same after that. It
// also keeps the buffers the reduced problem's bounds, column map and fill
// cursor are built in, so a Presolver reuses every one of them.
type presolver struct {
	n, m     int
	obj      []float64
	integer  []bool
	lo, hi   []float64
	rowLo    []float64
	rowHi    []float64
	rowAlive []bool
	colAlive []bool
	// Row i is rowCol/rowCoef[rowStart[i]:rowEnd[i]], in column order, one
	// entry per column: a repeated index summed in term order, as the
	// column store sums it. An entry the sum cancelled to zero is kept, as
	// the column store keeps it: it makes its column non-empty but is never
	// a row term (it would divide the implied bounds by zero). The entries
	// of columns colPass eliminates are compacted out of the live rows when
	// their values are substituted, so a pass walks live columns only.
	rowStart []int
	rowEnd   []int
	rowCol   []int32
	rowCoef  []float64
	// colRows[j] counts the live rows holding an entry for column j; zero
	// makes j an empty column.
	colRows []int32
	// fracInt[j] flags an integer column with a fractional bound, which
	// quiet leaves to the full computation.
	fracInt []bool

	fixed      []float64
	elim       []bool
	objOffset  float64
	changed    bool // a pass moved a bound or eliminated a column
	fixedAny   bool // colPass eliminated a column since the last substitution
	infeasible bool
	unbounded  bool

	// The reduced problem's presolved bounds, column map and per-column
	// fill cursor (reduce).
	redLo, redHi []float64
	colMap, next []int
}

// Presolver is the memory of presolve runs: the working state, the row
// store, and the Presolved a run returns with its reduced Problem. A zero
// Presolver is ready. Every run re-initialises what it reads and grows each
// buffer to the exact size it needs, so a run on a Presolver that has
// reduced a problem as large allocates nothing, and a run on a fresh one
// allocates what PresolveRows does. The Presolved a run returns lives in
// the Presolver and is overwritten by its next run (Postsolve's vector is
// the caller's). Not safe for concurrent runs.
type Presolver struct {
	ps    presolver
	terms RowTerms
	red   Problem
	out   Presolved
}

// Poison overwrites the Presolver's float buffers with NaN and its index
// buffers with −1, so that a reader of a Presolved it returned, after the
// run that overwrites it should have started, or a run that read what the
// previous one left instead of re-initialising it, changes a result instead
// of passing by luck. It covers what the last run used: what lies past
// that, an earlier run used and Poison covered then. Tests of reusing
// callers switch it on.
func (a *Presolver) Poison() {
	ps, red := &a.ps, &a.red
	for _, f := range [][]float64{ps.obj, ps.lo, ps.hi, ps.rowLo, ps.rowHi, ps.rowCoef, ps.fixed, ps.redLo, ps.redHi,
		a.terms.coef, red.obj, red.coef, red.varLo, red.varHi, red.rowLo, red.rowHi} {
		for k := range f {
			f[k] = math.NaN()
		}
	}
	for _, ix := range [][]int{ps.rowStart, ps.rowEnd, ps.colMap, ps.next, red.colStart} {
		for k := range ix {
			ix[k] = -1
		}
	}
	for _, ix := range [][]int32{ps.rowCol, ps.colRows, a.terms.col, red.rowIdx} {
		for k := range ix {
			ix[k] = -1
		}
	}
}

// Rows is a problem in row form, the input of PresolveRows.
type Rows interface {
	// NumCols and NumRows give the problem's shape.
	NumCols() int
	NumRows() int
	// Col reports column j: its objective coefficient, bounds and
	// integrality.
	Col(j int) (obj, lo, hi float64, integer bool)
	// Row reports row i's terms through t and returns its bounds. Terms
	// follow AddRow's rules: zeros are skipped, a repeated index sums into
	// its first nonzero occurrence. Terms on a column whose bounds are
	// [+0, 0] are dropped unread.
	Row(i int, t *RowTerms) (lo, hi float64)
	// NumTerms bounds from above the count of terms on columns whose
	// bounds are not [+0, 0]; it sizes the row store, which grows past it if
	// it is short.
	NumTerms() int
}

// RowTerms receives one row's terms for PresolveRows.
type RowTerms struct {
	n      int
	alive  []bool // nil, or false where a column's terms are dropped
	col    []int32
	coef   []float64
	start  int  // the current row's first entry
	last   int  // the current row's last stored column
	sorted bool // the current row's stored columns strictly increase
}

// Add adds the term a·x_j.
func (t *RowTerms) Add(j int, a float64) {
	if a == 0 {
		return
	}
	if j < 0 || j >= t.n {
		panic(fmt.Sprintf("lp: row term variable index %d out of range", j))
	}
	if t.alive != nil && !t.alive[j] {
		return
	}
	if j <= t.last {
		t.sorted = false
	}
	t.last = j
	t.col = append(t.col, int32(j))
	t.coef = append(t.coef, a)
}

// AddDense adds the terms coefs[k]·x_k for every k.
func (t *RowTerms) AddDense(coefs []float64) {
	if len(coefs) > t.n {
		panic(fmt.Sprintf("lp: %d dense row terms over %d variables", len(coefs), t.n))
	}
	alive := t.alive
	for k, a := range coefs {
		if a == 0 || alive != nil && !alive[k] {
			continue
		}
		if k <= t.last {
			t.sorted = false
		}
		t.last = k
		t.col = append(t.col, int32(k))
		t.coef = append(t.coef, a)
	}
}

// next closes the current row and opens the following one. A row whose
// columns do not strictly increase is put in column order, a repeated
// column summed in term order; the common ascending row costs nothing.
func (t *RowTerms) next() {
	if !t.sorted {
		t.normalize()
	}
	t.start, t.last, t.sorted = len(t.col), -1, true
}

func (t *RowTerms) normalize() {
	type term struct {
		col  int32
		ord  int
		coef float64
	}
	terms := make([]term, len(t.col)-t.start)
	for k := range terms {
		terms[k] = term{t.col[t.start+k], k, t.coef[t.start+k]}
	}
	slices.SortFunc(terms, func(a, b term) int {
		return cmp.Or(cmp.Compare(a.col, b.col), cmp.Compare(a.ord, b.ord))
	})
	t.col, t.coef = t.col[:t.start], t.coef[:t.start]
	for k, e := range terms {
		if k > 0 && e.col == terms[k-1].col {
			t.coef[len(t.coef)-1] += e.coef
			continue
		}
		t.col = append(t.col, e.col)
		t.coef = append(t.coef, e.coef)
	}
}

// PresolveRows reduces a problem given in row form. It reduces the Problem
// the same rows would build through AddRows, less the columns whose bounds
// are [+0, 0], bit for bit, without building it: the rows go straight into
// the presolver's row store. It is Presolver.Rows on fresh memory.
func PresolveRows(r Rows) *Presolved { return new(Presolver).Rows(r) }

// Rows is PresolveRows in the Presolver's memory: the Presolved it returns
// is valid until the Presolver's next run.
func (a *Presolver) Rows(r Rows) *Presolved {
	ps := a.fill(r)
	ps.run()
	return ps.result(&a.out, &a.red)
}

// fill loads r into the working state: its columns, and its rows into the
// row store.
func (a *Presolver) fill(r Rows) *presolver {
	ps := &a.ps
	n, m := r.NumCols(), r.NumRows()
	ps.reset(n, m, 0)
	ps.obj, ps.integer = grow(ps.obj, n), grow(ps.integer, n)
	for j := 0; j < n; j++ {
		ps.obj[j], ps.lo[j], ps.hi[j], ps.integer[j] = r.Col(j)
	}
	nt := r.NumTerms()
	t := &a.terms
	*t = RowTerms{n: n, col: emptyWithCap(t.col, nt), coef: emptyWithCap(t.coef, nt), last: -1, sorted: true}
	if ps.dropZeroFixed() {
		t.alive = ps.colAlive
	}
	for i := 0; i < m; i++ {
		ps.rowLo[i], ps.rowHi[i] = r.Row(i, t)
		t.next()
		ps.rowStart[i+1], ps.rowEnd[i] = len(t.col), len(t.col)
	}
	ps.rowCol, ps.rowCoef = t.col, t.coef
	for _, j := range ps.rowCol {
		ps.colRows[j]++
	}
	return ps
}

// emptyWithCap returns buf emptied with room for n elements, reallocating,
// to exactly n, only when its capacity falls short.
func emptyWithCap[T any](buf []T, n int) []T {
	if cap(buf) >= n {
		return buf[:0]
	}
	return make([]T, 0, n)
}

// reset re-initialises the working state for an n-column, m-row problem
// with nnz stored entries, every row and column alive, in the buffers of
// the previous run. The caller sets obj and integer, the bounds and the row
// store.
func (ps *presolver) reset(n, m, nnz int) {
	*ps = presolver{
		n:        n,
		m:        m,
		obj:      ps.obj,
		integer:  ps.integer,
		lo:       grow(ps.lo, n),
		hi:       grow(ps.hi, n),
		rowLo:    grow(ps.rowLo, m),
		rowHi:    grow(ps.rowHi, m),
		rowAlive: grow(ps.rowAlive, m),
		colAlive: grow(ps.colAlive, n),
		rowStart: grow(ps.rowStart, m+1),
		rowEnd:   grow(ps.rowEnd, m),
		rowCol:   grow(ps.rowCol, nnz),
		rowCoef:  grow(ps.rowCoef, nnz),
		colRows:  grow(ps.colRows, n),
		fracInt:  grow(ps.fracInt, n),
		fixed:    grow(ps.fixed, n),
		elim:     grow(ps.elim, n),
		redLo:    ps.redLo,
		redHi:    ps.redHi,
		colMap:   ps.colMap,
		next:     ps.next,
	}
	for i := range ps.rowAlive {
		ps.rowAlive[i] = true
	}
	for j := range ps.colAlive {
		ps.colAlive[j] = true
	}
	clear(ps.rowStart)
	clear(ps.rowCol)
	clear(ps.rowCoef)
	clear(ps.colRows)
	clear(ps.fracInt)
	clear(ps.fixed)
	clear(ps.elim)
}

// dropZeroFixed eliminates at +0 every column whose bounds are [+0, 0],
// before the row store is built, so that none of its terms enters it and
// presolve reduces the rest as it would with the column deleted (a pinned
// column, milp.Model.SetPinned, is one). It reports whether it dropped one.
func (ps *presolver) dropZeroFixed() bool {
	dropped := false
	for j := 0; j < ps.n; j++ {
		if math.Float64bits(ps.lo[j]) == 0 && ps.hi[j] == 0 {
			ps.colAlive[j], ps.elim[j] = false, true
			dropped = true
		}
	}
	return dropped
}

// run applies the initial integrality rounding and the reduction passes to
// a fixpoint. A pass that moved no bound and eliminated no column only
// dropped rows, and leaves the next pass nothing to do: the loop ends
// there.
func (ps *presolver) run() {
	// Rounding moves only an integer column's fractional bound; any other
	// column gets only tighten's crossed-bounds check.
	for j := 0; j < ps.n; j++ {
		if lo, hi := ps.lo[j], ps.hi[j]; ps.integer != nil && ps.integer[j] && (lo != math.Floor(lo) || hi != math.Floor(hi)) {
			ps.tighten(j, lo, hi)
		} else if lo > hi+presolveTol {
			ps.infeasible = true
		}
	}
	for pass := 0; pass < presolveMaxPasses && !ps.infeasible && !ps.unbounded; pass++ {
		ps.changed = false
		ps.rowPass()
		if ps.infeasible {
			break
		}
		ps.colPass()
		if ps.unbounded {
			break
		}
		if ps.fixedAny {
			ps.substitute()
		}
		if !ps.changed {
			break
		}
	}
}

// result writes the Presolved of a finished run into out, its reduced
// problem into red.
func (ps *presolver) result(out *Presolved, red *Problem) *Presolved {
	*out = Presolved{n: ps.n, fixed: ps.fixed, elim: ps.elim, ObjOffset: ps.objOffset,
		Infeasible: ps.infeasible, Unbounded: ps.unbounded}
	if !out.Infeasible && !out.Unbounded {
		ps.reduce(out, red)
	}
	return out
}

// reduce materializes the reduced problem from the row store into red: a
// surviving column keeps its nonzero entries in surviving rows, in row
// order. After the last substitution the surviving rows hold surviving
// columns only.
func (ps *presolver) reduce(out *Presolved, red *Problem) {
	n, m := ps.n, ps.m
	nred, mred := 0, 0
	redCol := ps.colRows // no longer needed: reused as the reduced column index
	for j := 0; j < n; j++ {
		redCol[j] = -1
		if ps.colAlive[j] {
			redCol[j] = int32(nred)
			nred++
		}
	}
	for i := 0; i < m; i++ {
		if ps.rowAlive[i] {
			mred++
		}
	}
	// red's buffers are reused; gen moves on, so a Scratch that priced a
	// seed for the problem red held before cannot take it for this one.
	*red = Problem{nvars: nred, obj: grow(red.obj, nred), colStart: grow(red.colStart, nred+1),
		rowIdx: red.rowIdx, coef: red.coef, varLo: red.varLo, varHi: red.varHi,
		rowLo: grow(red.rowLo, mred), rowHi: grow(red.rowHi, mred), gen: red.gen + 1}
	ps.colMap, ps.redLo, ps.redHi = grow(ps.colMap, nred), grow(ps.redLo, nred), grow(ps.redHi, nred)
	out.colMap, out.Lo, out.Hi = ps.colMap, ps.redLo, ps.redHi
	for j := 0; j < n; j++ {
		if r := redCol[j]; r >= 0 {
			out.colMap[r] = j
			out.Lo[r], out.Hi[r] = ps.lo[j], ps.hi[j]
			red.obj[r] = ps.obj[j]
		}
	}
	clear(red.colStart)
	nnz := 0
	for i := 0; i < m; i++ {
		if !ps.rowAlive[i] {
			continue
		}
		for t := ps.rowStart[i]; t < ps.rowEnd[i]; t++ {
			if ps.rowCoef[t] != 0 {
				red.colStart[redCol[ps.rowCol[t]]+1]++
				nnz++
			}
		}
	}
	for r := 0; r < nred; r++ {
		red.colStart[r+1] += red.colStart[r]
	}
	red.rowIdx, red.coef = grow(red.rowIdx, nnz), grow(red.coef, nnz)
	ps.next = grow(ps.next, nred)
	next := ps.next
	copy(next, red.colStart[:nred])
	row := int32(0)
	for i := 0; i < m; i++ {
		if !ps.rowAlive[i] {
			continue
		}
		red.rowLo[row], red.rowHi[row] = ps.rowLo[i], ps.rowHi[i]
		for t := ps.rowStart[i]; t < ps.rowEnd[i]; t++ {
			if a := ps.rowCoef[t]; a != 0 {
				r := redCol[ps.rowCol[t]]
				red.rowIdx[next[r]], red.coef[next[r]] = row, a
				next[r]++
			}
		}
		row++
	}
	red.varLo, red.varHi = grow(red.varLo, nred), grow(red.varHi, nred)
	copy(red.varLo, out.Lo)
	copy(red.varHi, out.Hi)
	out.Reduced = red
	out.RowsRemoved = m - mred
	out.ColsRemoved = n - nred
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
	loMoved, hiMoved := lo > ps.lo[j]+presolveTol, hi < ps.hi[j]-presolveTol
	if loMoved {
		ps.lo[j] = lo
		ps.changed = true
	}
	if hiMoved {
		ps.hi[j] = hi
		ps.changed = true
	}
	if ps.lo[j] > ps.hi[j]+presolveTol {
		ps.infeasible = true
		return
	}
	// An implied bound carries presolveTol of slack. When it closes the
	// interval to within that slack, the end it did not move is exact: fix
	// the column there, not at the slack, which substituted into a row and
	// divided by a smaller coefficient elsewhere grows past the tolerance.
	if ps.hi[j]-ps.lo[j] <= presolveTol {
		switch {
		case loMoved && !hiMoved:
			ps.lo[j] = ps.hi[j]
		case hiMoved && !loMoved:
			ps.hi[j] = ps.lo[j]
		}
	}
	if ps.integer != nil && ps.integer[j] {
		ps.fracInt[j] = ps.lo[j] != math.Floor(ps.lo[j]) || ps.hi[j] != math.Floor(ps.hi[j])
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
		ps.reduceRow(i)
		if ps.infeasible {
			return
		}
	}
}

// reduceRow reduces row i over its stored terms.
func (ps *presolver) reduceRow(i int) {
	cols, coefs := ps.rowCol[ps.rowStart[i]:ps.rowEnd[i]], ps.rowCoef[ps.rowStart[i]:ps.rowEnd[i]]
	// Term count and activity range with infinity counting, in one walk.
	nnz := 0
	var sj int
	var sa float64
	minSum, maxSum := 0.0, 0.0
	minInf, maxInf := 0, 0
	for k, j := range cols {
		a := coefs[k]
		if a == 0 {
			continue
		}
		nnz++
		sj, sa = int(j), a
		cmin, cmax := ps.contrib(int(j), a)
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
	switch nnz {
	case 0:
		if ps.rowLo[i] > presolveTol || ps.rowHi[i] < -presolveTol {
			ps.infeasible = true
			return
		}
		ps.killRow(i)
		return
	case 1:
		lo, hi := impliedFromRange(ps.rowLo[i], ps.rowHi[i], sa)
		ps.tighten(sj, lo, hi)
		if !ps.infeasible {
			ps.killRow(i)
		}
		return
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
		return
	}
	// Implied bounds per entry from the row's residual activity.
	for k, j := range cols {
		a := coefs[k]
		if a == 0 {
			continue
		}
		cmin, cmax := ps.contrib(int(j), a)
		aLo, aHi := impliedSides(ps.rowLo[i], ps.rowHi[i],
			residual(minSum, minInf, maxSum, maxInf, [2]float64{cmin, cmax}))
		if ps.quiet(int(j), a, aLo, aHi) {
			continue
		}
		lo, hi := impliedEntryRange(aLo, aHi, a)
		ps.tighten(int(j), lo, hi)
		if ps.infeasible {
			return
		}
	}
}

// quiet reports that aLo ≤ a·x_j ≤ aHi provably leaves x_j's bounds where
// they are, so tighten would change nothing and the divisions can be
// skipped. With exact products (one rounding, whose sign is the exact
// sign), a·hi_j ≤ aHi gives aHi/a ≥ hi_j for a > 0, so the rounded quotient
// is at least hi_j (a tie divides back to hi_j exactly), the slack only
// raises it, and integer rounding keeps an integral hi_j; the other three
// sides are symmetric. Anything not proved this way (an infinite or
// fractional bound) is computed.
func (ps *presolver) quiet(j int, a, aLo, aHi float64) bool {
	if ps.fracInt[j] {
		return false
	}
	lo, hi := ps.lo[j], ps.hi[j]
	if a > 0 {
		return (isPosInf(aHi) || math.FMA(a, hi, -aHi) <= 0) &&
			(isNegInf(aLo) || math.FMA(a, lo, -aLo) >= 0)
	}
	return (isPosInf(aHi) || math.FMA(a, lo, -aHi) <= 0) &&
		(isNegInf(aLo) || math.FMA(a, hi, -aLo) >= 0)
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

// impliedSides bounds one row entry's activity by the row's sides less the
// residual activity of the remaining entries:
//
//	rowLo − othersMax ≤ a·x_j ≤ rowHi − othersMin
//
// Unbounded residuals or row sides yield ±Inf (no information).
func impliedSides(rowLo, rowHi float64, oth residualRange) (aLo, aHi float64) {
	aLo, aHi = math.Inf(-1), math.Inf(1)
	if !isNegInf(rowLo) && !isPosInf(oth.max) {
		aLo = rowLo - oth.max
	}
	if !isPosInf(rowHi) && !isNegInf(oth.min) {
		aHi = rowHi - oth.min
	}
	return aLo, aHi
}

// impliedEntryRange turns an entry's activity bounds into bounds on x_j. A
// tiny relaxation keeps floating-point rounding from cutting the true
// optimum.
func impliedEntryRange(aLo, aHi, a float64) (float64, float64) {
	lo, hi := impliedFromRange(aLo, aHi, a)
	if !isNegInf(lo) {
		lo -= presolveTol
	}
	if !isPosInf(hi) {
		hi += presolveTol
	}
	return lo, hi
}

// colPass eliminates fixed and empty columns. Their values reach the row
// bounds in substitute, once the pass has decided every column: no decision
// here reads a row bound.
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
		if ps.colRows[j] > 0 {
			continue
		}
		// Empty column: no surviving row touches it.
		c := ps.obj[j]
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

// fixColumn eliminates variable j at value v.
func (ps *presolver) fixColumn(j int, v float64) {
	ps.colAlive[j] = false
	ps.elim[j] = true
	ps.fixed[j] = v
	ps.objOffset += ps.obj[j] * v
	ps.changed = true
	ps.fixedAny = true
}

// substitute moves the columns colPass eliminated into the bounds of every
// live row they appear in and compacts them out of those rows, keeping the
// order of the rest. A row meets its eliminated columns in column order,
// the order in which eliminating them one column at a time would subtract.
func (ps *presolver) substitute() {
	for i := range ps.rowAlive {
		if !ps.rowAlive[i] {
			continue
		}
		w := ps.rowStart[i]
		for t := w; t < ps.rowEnd[i]; t++ {
			j, a := ps.rowCol[t], ps.rowCoef[t]
			if ps.colAlive[j] {
				ps.rowCol[w], ps.rowCoef[w] = j, a
				w++
				continue
			}
			v := ps.fixed[j]
			if !isNegInf(ps.rowLo[i]) {
				ps.rowLo[i] -= a * v
			}
			if !isPosInf(ps.rowHi[i]) {
				ps.rowHi[i] -= a * v
			}
		}
		ps.rowEnd[i] = w
	}
	ps.fixedAny = false
}

// killRow drops row i; its columns lose one live row each. A drop alone is
// no change: the rows left see the same bounds in the next pass.
func (ps *presolver) killRow(i int) {
	ps.rowAlive[i] = false
	for _, j := range ps.rowCol[ps.rowStart[i]:ps.rowEnd[i]] {
		ps.colRows[j]--
	}
}
