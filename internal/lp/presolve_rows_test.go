package lp

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"spq/internal/rng"
)

// testRows is a problem in row form; a row with nil idxs is dense, its
// coefs[k] on column k.
type testRows struct {
	obj, lo, hi []float64
	integer     []bool
	rows        []oracleRow
	short       bool // NumTerms understates the terms, so the store must grow
}

func (r *testRows) NumCols() int { return len(r.obj) }
func (r *testRows) NumRows() int { return len(r.rows) }

func (r *testRows) NumTerms() int {
	n := 0
	for _, row := range r.rows {
		for k, a := range row.coefs {
			j := k
			if row.idxs != nil {
				j = row.idxs[k]
			}
			if a != 0 && (r.lo[j] != 0 || r.hi[j] != 0) {
				n++
			}
		}
	}
	if r.short {
		return n / 2
	}
	return n
}

func (r *testRows) Col(j int) (obj, lo, hi float64, integer bool) {
	return r.obj[j], r.lo[j], r.hi[j], r.integer != nil && r.integer[j]
}

func (r *testRows) Row(i int, t *RowTerms) (lo, hi float64) {
	row := &r.rows[i]
	if row.idxs == nil {
		t.AddDense(row.coefs)
	} else {
		for k, j := range row.idxs {
			t.Add(j, row.coefs[k])
		}
	}
	return row.lo, row.hi
}

// csc builds the same problem column-major through AddRows.
func (r *testRows) csc() *Problem {
	p := NewProblem(len(r.obj))
	for j := range r.obj {
		p.SetObj(j, r.obj[j])
		p.SetVarBounds(j, r.lo[j], r.hi[j])
	}
	p.AddRows(len(r.rows), func(i int, add func(int, float64)) (float64, float64) {
		row := &r.rows[i]
		for k, a := range row.coefs {
			j := k
			if row.idxs != nil {
				j = row.idxs[k]
			}
			add(j, a)
		}
		return row.lo, row.hi
	})
	return p
}

// oracleRowPass is rowPass as it was before the row store was compacted and
// before quiet: it walks every entry and tests each column for life, counts
// the terms in one walk and sums the activity in another, and computes
// every entry's implied bounds.
func (ps *presolver) oracleRowPass() {
	for i := range ps.rowAlive {
		if !ps.rowAlive[i] {
			continue
		}
		cols, coefs := ps.rowCol[ps.rowStart[i]:ps.rowEnd[i]], ps.rowCoef[ps.rowStart[i]:ps.rowEnd[i]]
		live := func(k int) bool { return ps.colAlive[cols[k]] && coefs[k] != 0 }
		nnz := 0
		var sj int
		var sa float64
		for k, j := range cols {
			if live(k) {
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
		minSum, maxSum := 0.0, 0.0
		minInf, maxInf := 0, 0
		for k, j := range cols {
			if !live(k) {
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
		for k, j := range cols {
			if !live(k) {
				continue
			}
			cmin, cmax := ps.contrib(int(j), coefs[k])
			aLo, aHi := impliedSides(ps.rowLo[i], ps.rowHi[i],
				residual(minSum, minInf, maxSum, maxInf, [2]float64{cmin, cmax}))
			lo, hi := impliedEntryRange(aLo, aHi, coefs[k])
			ps.tighten(int(j), lo, hi)
			if ps.infeasible {
				return
			}
		}
	}
}

// oracleColPass is colPass as it was before substitute: the empty-column
// test scans p's column, and fixColumn subtracts a fixed column from the
// bounds of its rows at once, column by column.
func (ps *presolver) oracleColPass(p *Problem) {
	fix := func(j int, v float64) {
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
		ps.fixColumn(j, v)
	}
	for j := range ps.colAlive {
		if !ps.colAlive[j] {
			continue
		}
		if ps.hi[j]-ps.lo[j] <= presolveTol {
			v := ps.lo[j]
			if ps.integer != nil && ps.integer[j] {
				v = math.Round(v)
			}
			fix(j, v)
			continue
		}
		empty := true
		for _, i := range p.rowIdx[p.colStart[j]:p.colStart[j+1]] {
			if ps.rowAlive[i] {
				empty = false
				break
			}
		}
		if !empty {
			continue
		}
		c := ps.obj[j]
		switch {
		case c > presolveTol:
			if isNegInf(ps.lo[j]) {
				ps.unbounded = true
				return
			}
			fix(j, ps.lo[j])
		case c < -presolveTol:
			if isPosInf(ps.hi[j]) {
				ps.unbounded = true
				return
			}
			fix(j, ps.hi[j])
		default:
			switch {
			case ps.lo[j] <= 0 && ps.hi[j] >= 0:
				fix(j, 0)
			case !isNegInf(ps.lo[j]):
				fix(j, ps.lo[j])
			default:
				fix(j, ps.hi[j])
			}
		}
	}
}

// oraclePresolve is PresolveProblem with the passes as they were before
// the row store was compacted: oracleRowPass and oracleColPass to a
// fixpoint, over the store less the columns whose bounds are [+0, 0], and
// until a pass neither changes a bound nor drops a row (killOnly counts the
// passes that only dropped rows). The columns oracleColPass fixed leave the
// rows, untouched, only for reduce.
func oraclePresolve(p *Problem, integer []bool) (pr *Presolved, killOnly int) {
	ps := cscPresolver(p, nil, nil, integer)
	for j := 0; j < ps.n; j++ {
		ps.tighten(j, ps.lo[j], ps.hi[j])
	}
	liveRows := func() int {
		n := 0
		for _, alive := range ps.rowAlive {
			if alive {
				n++
			}
		}
		return n
	}
	for pass := 0; pass < presolveMaxPasses && !ps.infeasible && !ps.unbounded; pass++ {
		ps.changed = false
		rows := liveRows()
		ps.oracleRowPass()
		if ps.infeasible {
			break
		}
		ps.oracleColPass(p)
		if !ps.changed {
			if liveRows() == rows {
				break
			}
			killOnly++
		}
	}
	for i := range ps.rowAlive {
		w := ps.rowStart[i]
		for t := w; t < ps.rowEnd[i]; t++ {
			if ps.colAlive[ps.rowCol[t]] {
				ps.rowCol[w], ps.rowCoef[w] = ps.rowCol[t], ps.rowCoef[t]
				w++
			}
		}
		ps.rowEnd[i] = w
	}
	return ps.result(new(Presolved), new(Problem)), killOnly
}

// nearTies are one-row problems whose implied bound lands just inside,
// on, or just outside a column's bound, from each side and sign of the
// coefficient: where quiet must stop skipping. The box of an integer
// column may sit a rounding slack off the integers, where presolve keeps
// it fractional.
func nearTies() []*testRows {
	var out []*testRows
	for _, box := range [][2]float64{{1, 4}, {1 + 5e-7, 4 + 5e-10}, {1 - 5e-10, 4 - 5e-7}} {
		lo, hi := box[0], box[1]
		for _, a := range []float64{1, 3, 0.1, -2, -0.5} {
			for _, d := range []float64{-1e-3, -1e-6, -3e-9, -1e-9, -1e-12, 0, 1e-12, 1e-6} {
				for _, integer := range []bool{false, true} {
					for _, le := range []bool{true, false} {
						r := &testRows{obj: []float64{-1, 1}, lo: []float64{lo, 0}, hi: []float64{hi, 1}, integer: []bool{integer, false}}
						row := oracleRow{idxs: []int{0, 1}, coefs: []float64{a, 1}, lo: math.Inf(-1), hi: math.Inf(1)}
						switch {
						case a > 0 && le: // x ≤ hi + d/a
							row.hi = a*hi + d
						case a > 0: // x ≥ lo − d/a
							row.lo = a*lo - d + 1
						case le: // x ≥ lo + d/a
							row.hi = a*lo + d
						default: // x ≤ hi − d/a
							row.lo = a*hi - d + 1
						}
						r.rows = []oracleRow{row}
						out = append(out, r)
					}
				}
			}
		}
	}
	return out
}

func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameBits(a[i], b[i]) {
			return false
		}
	}
	return true
}

func sameInts[T int | int32](a, b []T) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// samePresolved compares two presolves bit for bit: verdicts, offset,
// removal counts, bounds, column map, postsolve values and reduced problem.
func samePresolved(t *testing.T, label string, got, want *Presolved) {
	t.Helper()
	if got.Infeasible != want.Infeasible || got.Unbounded != want.Unbounded ||
		!sameBits(got.ObjOffset, want.ObjOffset) || got.RowsRemoved != want.RowsRemoved || got.ColsRemoved != want.ColsRemoved {
		t.Fatalf("%s: infeasible %t unbounded %t offset %v removed %d×%d, want %t %t %v %d×%d", label,
			got.Infeasible, got.Unbounded, got.ObjOffset, got.RowsRemoved, got.ColsRemoved,
			want.Infeasible, want.Unbounded, want.ObjOffset, want.RowsRemoved, want.ColsRemoved)
	}
	if !sameFloats(got.Lo, want.Lo) || !sameFloats(got.Hi, want.Hi) || !sameInts(got.colMap, want.colMap) ||
		!sameFloats(got.fixed, want.fixed) {
		t.Fatalf("%s: presolved bounds, column map or fixed values differ", label)
	}
	g, w := got.Reduced, want.Reduced
	if (g == nil) != (w == nil) {
		t.Fatalf("%s: reduced problem %v, want %v", label, g != nil, w != nil)
	}
	if g == nil {
		return
	}
	if g.nvars != w.nvars || !sameInts(g.colStart, w.colStart) || !sameInts(g.rowIdx, w.rowIdx) || !sameFloats(g.coef, w.coef) ||
		!sameFloats(g.obj, w.obj) || !sameFloats(g.varLo, w.varLo) || !sameFloats(g.varHi, w.varHi) ||
		!sameFloats(g.rowLo, w.rowLo) || !sameFloats(g.rowHi, w.rowHi) {
		t.Fatalf("%s: reduced problems differ", label)
	}
}

// sameStore compares the presolver inputs two front ends built: columns,
// row bounds, and the row store entry for entry.
func sameStore(t *testing.T, label string, got, want *presolver) {
	t.Helper()
	if got.n != want.n || got.m != want.m || !sameFloats(got.obj, want.obj) || !sameFloats(got.lo, want.lo) ||
		!sameFloats(got.hi, want.hi) || !sameFloats(got.rowLo, want.rowLo) || !sameFloats(got.rowHi, want.rowHi) ||
		!sameInts(got.colRows, want.colRows) {
		t.Fatalf("%s: front ends disagree on the columns or the row bounds", label)
	}
	for j := 0; j < got.n; j++ {
		if got.integer[j] != (want.integer != nil && want.integer[j]) {
			t.Fatalf("%s: column %d integrality %t, want %t", label, j, got.integer[j], !got.integer[j])
		}
	}
	for i := 0; i < got.m; i++ {
		g0, g1, w0, w1 := got.rowStart[i], got.rowEnd[i], want.rowStart[i], want.rowEnd[i]
		if !sameInts(got.rowCol[g0:g1], want.rowCol[w0:w1]) || !sameFloats(got.rowCoef[g0:g1], want.rowCoef[w0:w1]) {
			t.Fatalf("%s: row %d is %v %v in the row front end, %v %v transposed", label, i,
				got.rowCol[g0:g1], got.rowCoef[g0:g1], want.rowCol[w0:w1], want.rowCoef[w0:w1])
		}
	}
}

// csaRows is a CSA-shaped root: n integer tuple columns, z indicator
// binaries, a knapsack row, z dense indicator rows with their big-M entry
// on the binary, and the counting row Σy ≥ need that fixes the binaries
// and turns the indicator rows into knapsacks. Some columns and row sides
// are infinite. A messy root's rows also repeat indices, cancel
// coefficients to zero and list them out of order, and NumTerms
// understates them; a clean one's rows are as the MILP layer writes them.
func csaRows(s *rng.Stream, n, z int, messy bool) *testRows {
	nv := n + z
	r := &testRows{obj: make([]float64, nv), lo: make([]float64, nv), hi: make([]float64, nv), integer: make([]bool, nv), short: messy}
	for j := 0; j < n; j++ {
		r.obj[j] = -s.Float64() * 10
		r.hi[j] = float64(1 + s.IntN(3))
		r.integer[j] = s.IntN(8) != 0
		if s.IntN(50) == 0 {
			r.hi[j] = math.Inf(1) // no indicator row may hold it, see below
		}
	}
	for k := 0; k < z; k++ {
		r.hi[n+k], r.integer[n+k] = 1, true
	}
	finite := func(j int) bool { return !math.IsInf(r.hi[j], 1) }
	dense := func(scale, shift float64, infinite bool) []float64 {
		coefs := make([]float64, n)
		for j := range coefs {
			if finite(j) && s.IntN(10) != 0 || !finite(j) && infinite {
				coefs[j] = s.Float64()*scale + shift
			}
		}
		return coefs
	}
	// The knapsack bounds the columns no indicator row may hold.
	r.rows = append(r.rows, oracleRow{coefs: dense(100, 1, true), lo: math.Inf(-1), hi: 50 + s.Float64()*1000})
	for k := 0; k < z; k++ {
		// Once Σy fixes the binaries, a "≤" row of positive coefficients
		// (or a "≥" row of negative ones) bounds every column it holds by
		// rhs/a: those with a > rhs are fixed at 0.
		ge := s.IntN(2) == 0
		sign := 1.0
		if ge {
			sign = -1
		}
		coefs := dense(40*sign, 0.5*sign, false)
		sum := append([]float64(nil), coefs...) // each column's coefficient
		idxs := make([]int, n, n+6)
		for j := range idxs {
			idxs[j] = j
		}
		if messy {
			// A repeated index, a pair that cancels to zero exactly, a
			// triple whose sum depends on its order, and an out-of-order
			// tail.
			a, b, c := s.IntN(n), s.IntN(n), s.IntN(n)
			for !finite(a) || !finite(b) || !finite(c) || a == b || b == c || a == c {
				a, b, c = s.IntN(n), s.IntN(n), s.IntN(n)
			}
			coefs[b], coefs[c] = 0.5, 0.1*sign
			idxs = append(idxs, a, c, b, b, c)
			coefs = append(coefs, 0.5, 0.2*sign, 2, -2.5, 0.3*sign)
			sum[a], sum[b], sum[c] = sum[a]+0.5, 0, 0.6*sign
		}
		minV, maxV := 0.0, 0.0
		for j, v := range sum {
			switch {
			case v > 0:
				maxV += v * r.hi[j]
			case v < 0:
				minV += v * r.hi[j]
			}
		}
		rhs := sign * (5 + s.Float64()*20)
		if ge {
			bigM := max(rhs-minV, 0)*1.01 + 1
			r.rows = append(r.rows, oracleRow{idxs: append(idxs, n+k), coefs: append(coefs, -bigM), lo: rhs - bigM, hi: math.Inf(1)})
		} else {
			bigM := max(maxV-rhs, 0)*1.01 + 1
			r.rows = append(r.rows, oracleRow{idxs: append(idxs, n+k), coefs: append(coefs, bigM), lo: math.Inf(-1), hi: rhs + bigM})
		}
	}
	ys := oracleRow{lo: float64(z - s.IntN(3)/2), hi: math.Inf(1)}
	for k := range z {
		ys.idxs = append(ys.idxs, n+k)
		ys.coefs = append(ys.coefs, 1)
	}
	if messy {
		slices.Reverse(ys.idxs) // descending: the front end must sort it
	}
	r.rows = append(r.rows, ys)
	return r
}

// zeroFixed returns r with about a third of its columns fixed at [0, 0],
// some integer and some continuous.
func zeroFixed(s *rng.Stream, r *testRows) *testRows {
	z := &testRows{obj: r.obj, lo: slices.Clone(r.lo), hi: slices.Clone(r.hi), integer: r.integer, rows: r.rows, short: r.short}
	for j := range z.lo {
		if s.IntN(3) == 0 {
			z.lo[j], z.hi[j] = 0, 0
		}
	}
	return z
}

// dropShapes counts, among the rows of r with a term on a zero-fixed
// column, those that dropping these columns leaves with no term and with
// one.
func dropShapes(r *testRows) (none, one int) {
	for _, row := range r.rows {
		sum := map[int]float64{}
		for k, a := range row.coefs {
			j := k
			if row.idxs != nil {
				j = row.idxs[k]
			}
			sum[j] += a
		}
		live, dead := 0, 0
		for j, a := range sum {
			switch {
			case a == 0:
			case r.lo[j] == 0 && r.hi[j] == 0:
				dead++
			default:
				live++
			}
		}
		if dead > 0 && live == 0 {
			none++
		}
		if dead > 0 && live == 1 {
			one++
		}
	}
	return none, one
}

// zeroFixedTies are one-row problems over up to two columns in [0, 1] and
// one or two zero-fixed ones, whose live terms miss a side of the row by
// about presolveTol, on either side of it: where an implied bound of a
// stored zero-fixed column could find the problem infeasible, and where the
// singleton and empty-row tests would count its terms; some repeat a
// zero-fixed column. Others have a side of −0 that subtracting a stored
// zero-fixed term of −0 would turn +0.
func zeroFixedTies() []*testRows {
	var out []*testRows
	for live := 0; live <= 2; live++ {
		for _, a := range []float64{1e-4, 0.1, 1, 10, -0.1, -10} {
			for _, d := range []float64{-1e-9, -1e-12, 0, 1e-12, 5e-10, 1e-9, 2e-9, 1e-7, 1e-5} {
				for _, integer := range []bool{false, true} {
					for _, dead := range []int{1, 2} {
						for _, ge := range []bool{true, false} {
							n := live + dead
							r := &testRows{obj: make([]float64, n), lo: make([]float64, n), hi: make([]float64, n), integer: make([]bool, n)}
							row := oracleRow{lo: math.Inf(-1), hi: math.Inf(1)}
							for j := 0; j < n; j++ {
								r.obj[j] = float64(j%3) - 1
								row.idxs = append(row.idxs, j)
								if j < live {
									r.hi[j] = 1
									row.coefs = append(row.coefs, 1)
								} else {
									r.integer[j] = integer
									row.coefs = append(row.coefs, a*float64(j-live+1))
								}
							}
							if ge { // the live terms reach at most live
								row.lo = float64(live) + d
							} else { // and at least 0
								row.hi = -d
							}
							r.rows = []oracleRow{row}
							out = append(out, r)
						}
					}
				}
			}
		}
	}
	// A zero-fixed column repeated: its terms cancel beside a continuous
	// live term, which is a singleton row then, or sum to one term whose
	// implied bound and the empty-row test disagree on a side of 2e-9.
	for _, a := range []float64{10, 0.1} {
		for _, cancel := range []bool{false, true} {
			r := &testRows{obj: []float64{-1, 0}, lo: []float64{0, 0}, hi: []float64{3, 0}}
			row := oracleRow{idxs: []int{1, 0, 1}, coefs: []float64{a / 2, 1, a / 2}, lo: math.Inf(-1), hi: 2.5}
			if cancel {
				row.coefs[2] = -a / 2
			} else {
				row = oracleRow{idxs: []int{1, 1}, coefs: []float64{a / 2, a / 2}, lo: 2e-9, hi: math.Inf(1)}
			}
			r.rows = []oracleRow{row}
			out = append(out, r)
		}
	}
	for _, side := range []float64{math.Copysign(0, -1), 0} {
		for _, a := range []float64{-2, 2} {
			for _, ge := range []bool{true, false} {
				// x − y + a·z over x, y in [0, 1] and z fixed at 0: the row
				// survives presolve with its side of ±0.
				r := &testRows{obj: []float64{1, -1, 0}, lo: make([]float64, 3), hi: []float64{1, 1, 0}}
				row := oracleRow{idxs: []int{0, 1, 2}, coefs: []float64{1, -1, a}, lo: side, hi: math.Inf(1)}
				if !ge {
					row.lo, row.hi = math.Inf(-1), side
				}
				r.rows = []oracleRow{row}
				out = append(out, r)
			}
		}
	}
	return out
}

// killOnlyPasses are problems one of whose passes only drops a row: a
// singleton row tightens x after a row that its new bound makes redundant,
// beside a row that bounds nothing; one variant holds a zero-fixed column.
// In the last, the zero-fixed column's deletion leaves a singleton row.
func killOnlyPasses() []*testRows {
	var out []*testRows
	for _, integer := range []bool{false, true} {
		for _, zero := range []bool{false, true} {
			r := &testRows{obj: []float64{-1, -1, 1}, lo: []float64{0, 0, 0}, hi: []float64{3, 3, 2}, integer: []bool{integer, integer, false}}
			if zero {
				r.hi[2] = 0
			}
			r.rows = []oracleRow{
				{idxs: []int{0, 1, 2}, coefs: []float64{1, 1, 1}, lo: math.Inf(-1), hi: 5.5},
				{idxs: []int{0}, coefs: []float64{1}, lo: math.Inf(-1), hi: 2},
				{idxs: []int{0, 1}, coefs: []float64{1, 1}, lo: 0.5, hi: math.Inf(1)},
			}
			if !zero {
				r.rows[0].hi = 7.5 // redundant once x ≤ 2
			}
			out = append(out, r)
		}
	}
	// x + 2z ≤ 3 − 5e-7 bounds the integer x in [0, 3] to within its
	// rounding slack, so the row would be neither redundant nor a singleton
	// while z's term counted.
	out = append(out, &testRows{obj: []float64{-1, 1}, lo: []float64{0, 0}, hi: []float64{3, 0}, integer: []bool{true, true},
		rows: []oracleRow{{idxs: []int{0, 1}, coefs: []float64{1, 2}, lo: math.Inf(-1), hi: 3 - 5e-7}}})
	return out
}

// pinnedCSA is a CSA-shaped root as milp.Solve writes it, the Σy row ahead
// of the indicator rows, with every other tuple column pinned at [0, 0]
// (the big-M values still from its declared box).
func pinnedCSA(s *rng.Stream, n, z int, messy bool) *testRows {
	return pinnedRoot(csaRows(s, n, z, messy))
}

// pinnedRoot is a copy of the CSA-shaped root r with its last row, Σy,
// moved first and every other tuple column pinned.
func pinnedRoot(r *testRows) *testRows {
	p := &testRows{obj: r.obj, lo: r.lo, hi: slices.Clone(r.hi), integer: r.integer, short: r.short}
	last := len(r.rows) - 1
	p.rows = append(slices.Clone(r.rows[last:]), r.rows[:last]...)
	for j := 0; j < len(p.hi)-4; j += 2 {
		p.hi[j] = 0
	}
	return p
}

// fuzzRows is FuzzLP's problem of seed under random integrality, and the
// same with a third of its columns fixed at 0.
func fuzzRows(seed uint64) (r, zero *testRows) {
	s := rng.NewStream(seed)
	f := randomFuzzLP(s)
	r = &testRows{obj: f.p.obj, lo: f.lo, hi: f.hi, integer: make([]bool, len(f.lo)), rows: f.rows, short: true}
	for j := range r.integer {
		r.integer[j] = s.IntN(2) == 0
	}
	return r, zeroFixed(s, r)
}

// TestPresolveRowsMatchesCSC: presolving rows straight from their source
// gives, bit for bit, PresolveProblem over the AddRows matrix of the same
// rows, on FuzzLP's generator (under random integrality, and with a third
// of its columns fixed at 0), on near ties of an implied bound, of a row
// side that only zero-fixed columns reach, on passes that only drop rows
// and on CSA-shaped 6 × 20 000 roots, half of them pinned; and so does
// presolve with the passes as they were before compaction, quiet,
// substitute and the end at a pass that only drops rows (oraclePresolve).
func TestPresolveRowsMatchesCSC(t *testing.T) {
	var inputs []*testRows
	for seed := uint64(1); seed <= 400; seed++ {
		r, zero := fuzzRows(seed)
		inputs = append(inputs, r, zero)
	}
	inputs = append(inputs, nearTies()...)
	inputs = append(inputs, zeroFixedTies()...)
	inputs = append(inputs, killOnlyPasses()...)
	s := rng.NewStream(99)
	for k := 0; k < 6; k++ {
		inputs = append(inputs, csaRows(s, 20000, 4, k < 4))
	}
	for k := 0; k < 6; k++ {
		inputs = append(inputs, pinnedCSA(s, 20000, 4, k < 2))
	}
	reduced, eliminated, killOnly, noneLive, oneLive, infeasible := 0, 0, 0, 0, 0, 0
	for i, r := range inputs {
		label := fmt.Sprintf("input %d (%d×%d)", i, len(r.rows), len(r.obj))
		p := r.csc()
		sameStore(t, label, new(Presolver).fill(r), cscPresolver(p, nil, nil, r.integer))
		want := PresolveProblem(p, nil, nil, r.integer)
		samePresolved(t, label+" rows", PresolveRows(r), want)
		oracle, kills := oraclePresolve(p, r.integer)
		samePresolved(t, label+" oracle passes", oracle, want)
		killOnly += kills
		none, one := dropShapes(r)
		noneLive, oneLive = noneLive+none, oneLive+one
		if want.Infeasible {
			infeasible++
		}
		if want.Reduced != nil && want.ColsRemoved > 0 {
			reduced++
			if len(r.obj) > 1000 {
				eliminated += want.ColsRemoved
			}
		}
	}
	if reduced < 50 || eliminated < 12*5000 || killOnly < 50 || noneLive < 100 || oneLive < 100 || infeasible < 100 {
		t.Fatalf("corpus too tame: %d partly reduced problems, %d CSA columns eliminated, %d passes that only drop rows, "+
			"%d and %d rows left with no and one term by zero-fixed columns, %d infeasible", reduced, eliminated, killOnly, noneLive, oneLive, infeasible)
	}
	t.Logf("%d partly reduced problems, %d CSA columns eliminated, %d passes that only drop rows, "+
		"%d and %d rows left with no and one term by zero-fixed columns, %d infeasible", reduced, eliminated, killOnly, noneLive, oneLive, infeasible)
}

// withoutZeroFixed is r with its [+0, 0] columns deleted, and idx, each
// original column's index in it (−1 where deleted).
func withoutZeroFixed(r *testRows) (d *testRows, idx []int) {
	idx = make([]int, len(r.obj))
	d = &testRows{short: r.short}
	for j := range r.obj {
		idx[j] = -1
		if math.Float64bits(r.lo[j]) == 0 && r.hi[j] == 0 {
			continue
		}
		idx[j] = len(d.obj)
		d.obj, d.lo, d.hi = append(d.obj, r.obj[j]), append(d.lo, r.lo[j]), append(d.hi, r.hi[j])
		d.integer = append(d.integer, r.integer != nil && r.integer[j])
	}
	for _, row := range r.rows {
		out := oracleRow{idxs: []int{}, lo: row.lo, hi: row.hi} // sparse, even when empty
		for k, a := range row.coefs {
			j := k
			if row.idxs != nil {
				j = row.idxs[k]
			}
			if idx[j] >= 0 {
				out.idxs, out.coefs = append(out.idxs, idx[j]), append(out.coefs, a)
			}
		}
		d.rows = append(d.rows, out)
	}
	return d, idx
}

// TestPresolveZeroFixedColumnIsAbsent: presolving a problem gives, bit for
// bit, the presolve of the same problem with its [+0, 0] columns deleted
// (verdicts, offset, counts, bounds, column map, reduced problem), and
// Postsolve writes +0 at the deleted columns; on FuzzLP's generator with a
// third of its columns fixed at 0, on the near ties of a row side that only
// zero-fixed columns reach and on pinned CSA-shaped 6 × 20 000 roots.
func TestPresolveZeroFixedColumnIsAbsent(t *testing.T) {
	var inputs []*testRows
	for seed := uint64(1); seed <= 400; seed++ {
		_, zero := fuzzRows(seed)
		inputs = append(inputs, zero)
	}
	inputs = append(inputs, zeroFixedTies()...)
	s := rng.NewStream(99)
	for k := 0; k < 4; k++ {
		inputs = append(inputs, pinnedCSA(s, 20000, 4, k < 2))
	}
	deleted, feasible := 0, 0
	for i, r := range inputs {
		label := fmt.Sprintf("input %d (%d×%d)", i, len(r.rows), len(r.obj))
		d, idx := withoutZeroFixed(r)
		got, want := PresolveRows(r), PresolveRows(d)
		// got in the deleted problem's columns; a verdict counts nothing.
		gone := len(r.obj) - len(d.obj)
		inDeleted := *got
		inDeleted.n = len(d.obj)
		if got.Reduced != nil {
			inDeleted.ColsRemoved -= gone
		}
		inDeleted.fixed, inDeleted.elim = make([]float64, len(d.obj)), make([]bool, len(d.obj))
		for j, k := range idx {
			if k >= 0 {
				inDeleted.fixed[k], inDeleted.elim[k] = got.fixed[j], got.elim[j]
			} else if !got.elim[j] || math.Float64bits(got.fixed[j]) != 0 {
				t.Fatalf("%s: deleted column %d eliminated %t at %v, want at +0", label, j, got.elim[j], got.fixed[j])
			}
		}
		inDeleted.colMap = make([]int, len(got.colMap))
		for c, j := range got.colMap {
			if idx[j] < 0 {
				t.Fatalf("%s: deleted column %d left in the reduced problem", label, j)
			}
			inDeleted.colMap[c] = idx[j]
		}
		samePresolved(t, label, &inDeleted, want)
		deleted += gone
		if got.Reduced == nil {
			continue
		}
		feasible++
		x, dx := got.Postsolve(got.Lo), want.Postsolve(want.Lo)
		for j, k := range idx {
			if k >= 0 && !sameBits(x[j], dx[k]) || k < 0 && math.Float64bits(x[j]) != 0 {
				t.Fatalf("%s: postsolve writes %v at column %d", label, x[j], j)
			}
		}
	}
	if deleted < 20000 || feasible < 100 {
		t.Fatalf("corpus too tame: %d columns deleted, %d problems left feasible", deleted, feasible)
	}
	t.Logf("%d columns deleted, %d problems left feasible", deleted, feasible)
}

// BenchmarkPresolveWide presolves a CSA-shaped 6 × 20 000 root (4
// indicators) from its rows, as the MILP layer does, and through the
// column-major problem the same rows build, matrix prebuilt; and, from its
// rows, the same root as milp.Solve orders it, the Σy row first, with every
// other tuple column pinned at [0, 0] (pinned), on fresh memory and again
// in a Presolver that has presolved it before (pinned-reused), as a solve
// on a warm arena does.
func BenchmarkPresolveWide(b *testing.B) {
	s := rng.NewStream(99)
	r := csaRows(s, 20000, 4, false)
	for r.rows[len(r.rows)-1].lo != 4 { // a root whose Σy row fixes the binaries
		r = csaRows(s, 20000, 4, false)
	}
	p := r.csc()
	pinned := pinnedRoot(r)
	b.Run("pinned", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			PresolveRows(pinned)
		}
	})
	b.Run("pinned-reused", func(b *testing.B) {
		var a Presolver
		a.Rows(pinned)
		b.ReportAllocs()
		for b.Loop() {
			a.Rows(pinned)
		}
	})
	b.Run("rows", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			PresolveRows(r)
		}
	})
	b.Run("csc", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			PresolveProblem(p, nil, nil, r.integer)
		}
	})
}
