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
		n += len(row.coefs)
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
// fixpoint. The dead columns leave the rows, untouched, only for reduce.
func oraclePresolve(p *Problem, integer []bool) *Presolved {
	ps := cscPresolver(p, nil, nil, integer)
	for j := 0; j < ps.n; j++ {
		ps.tighten(j, ps.lo[j], ps.hi[j])
	}
	for pass := 0; pass < presolveMaxPasses && !ps.infeasible && !ps.unbounded; pass++ {
		ps.changed = false
		ps.oracleRowPass()
		if ps.infeasible {
			break
		}
		ps.oracleColPass(p)
		if !ps.changed {
			break
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
	return ps.result()
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

// TestPresolveRowsMatchesCSC: presolving rows straight from their source
// gives, bit for bit, PresolveProblem over the AddRows matrix of the same
// rows, on FuzzLP's generator (under random integrality), on near ties of
// an implied bound and on CSA-shaped 6 × 20 000 roots; and so does
// presolve with the passes as they were before compaction, quiet and
// substitute (oraclePresolve).
func TestPresolveRowsMatchesCSC(t *testing.T) {
	var inputs []*testRows
	for seed := uint64(1); seed <= 400; seed++ {
		s := rng.NewStream(seed)
		f := randomFuzzLP(s)
		r := &testRows{obj: f.p.obj, lo: f.lo, hi: f.hi, integer: make([]bool, len(f.lo)), rows: f.rows, short: true}
		for j := range r.integer {
			r.integer[j] = s.IntN(2) == 0
		}
		inputs = append(inputs, r)
	}
	inputs = append(inputs, nearTies()...)
	s := rng.NewStream(99)
	for k := 0; k < 6; k++ {
		inputs = append(inputs, csaRows(s, 20000, 4, k < 4))
	}
	reduced, eliminated := 0, 0
	for i, r := range inputs {
		label := fmt.Sprintf("input %d (%d×%d)", i, len(r.rows), len(r.obj))
		p := r.csc()
		sameStore(t, label, rowsPresolver(r), cscPresolver(p, nil, nil, r.integer))
		want := PresolveProblem(p, nil, nil, r.integer)
		samePresolved(t, label+" rows", PresolveRows(r), want)
		samePresolved(t, label+" oracle passes", oraclePresolve(p, r.integer), want)
		if want.Reduced != nil && want.ColsRemoved > 0 {
			reduced++
			if len(r.obj) > 1000 {
				eliminated += want.ColsRemoved
			}
		}
	}
	if reduced < 50 || eliminated < 6*5000 {
		t.Fatalf("corpus too tame: %d partly reduced problems, %d CSA columns eliminated", reduced, eliminated)
	}
	t.Logf("%d partly reduced problems, %d CSA columns eliminated", reduced, eliminated)
}

// BenchmarkPresolveWide presolves a CSA-shaped 6 × 20 000 root (4
// indicators) from its rows, as the MILP layer does, and through the
// column-major problem the same rows build, matrix prebuilt.
func BenchmarkPresolveWide(b *testing.B) {
	s := rng.NewStream(99)
	r := csaRows(s, 20000, 4, false)
	for r.rows[len(r.rows)-1].lo != 4 { // a root whose Σy row fixes the binaries
		r = csaRows(s, 20000, 4, false)
	}
	p := r.csc()
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
