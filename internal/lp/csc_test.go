package lp

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"spq/internal/rng"
)

// oracleEntry and oracleProblem are the column store as it was built before
// the CSC matrix: a per-row map de-duplicating into one entry slice per
// column. They are the reference the CSC builder, the presolver's row store
// and the reduced problem are held to, entry for entry.
type oracleEntry struct {
	row  int
	coef float64
}

type oracleProblem struct {
	cols         [][]oracleEntry
	rowLo, rowHi []float64
}

func (o *oracleProblem) addRow(idxs []int, coefs []float64, lo, hi float64) {
	row := len(o.rowLo)
	o.rowLo = append(o.rowLo, lo)
	o.rowHi = append(o.rowHi, hi)
	seen := make(map[int]int, len(idxs))
	for k, j := range idxs {
		if coefs[k] == 0 {
			continue
		}
		if pos, dup := seen[j]; dup {
			o.cols[j][pos].coef += coefs[k]
			continue
		}
		o.cols[j] = append(o.cols[j], oracleEntry{row: row, coef: coefs[k]})
		seen[j] = len(o.cols[j]) - 1
	}
}

// transpose is the presolver's row store: rows[i] lists (column, coef) in
// column order, the column index kept in oracleEntry.row. An entry a
// repeated index cancelled to zero stays, as it stays in the column store;
// the row reductions skip it (see TestPresolveCancelledCoefficient).
func (o *oracleProblem) transpose() [][]oracleEntry {
	rows := make([][]oracleEntry, len(o.rowLo))
	for j, col := range o.cols {
		for _, e := range col {
			rows[e.row] = append(rows[e.row], oracleEntry{row: j, coef: e.coef})
		}
	}
	return rows
}

type oracleRow struct {
	idxs   []int
	coefs  []float64
	lo, hi float64
}

// randomRows draws rows over n columns with repeated indices and with zero
// and cancelling coefficients: the coefficient set makes x + (−x) = 0 common.
func randomRows(s *rng.Stream, n, m int) []oracleRow {
	vals := []float64{0, 1, -1, 2, -2, 0.5, -0.5, 0.1, 0.2, -0.3, 3}
	rows := make([]oracleRow, m)
	for i := range rows {
		r := &rows[i]
		for k := s.IntN(2*n + 1); k > 0; k-- {
			r.idxs = append(r.idxs, s.IntN(n))
			r.coefs = append(r.coefs, vals[s.IntN(len(vals))])
		}
		b := float64(s.IntN(9) - 4)
		r.lo, r.hi = b-float64(s.IntN(6)), b+float64(s.IntN(6))
		switch s.IntN(4) {
		case 0:
			r.lo = math.Inf(-1)
		case 1:
			r.hi = math.Inf(1)
		}
	}
	return rows
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// assertColumns checks the CSC matrix against per-column entry lists.
func assertColumns(t *testing.T, label string, p *Problem, cols [][]oracleEntry) {
	t.Helper()
	if len(p.colStart) != len(cols)+1 || p.colStart[0] != 0 || len(p.rowIdx) != len(p.coef) {
		t.Fatalf("%s: malformed CSC: %d column starts for %d columns, %d rows / %d coefficients",
			label, len(p.colStart), len(cols), len(p.rowIdx), len(p.coef))
	}
	for j, col := range cols {
		lo, hi := p.colStart[j], p.colStart[j+1]
		if hi-lo != len(col) {
			t.Fatalf("%s: column %d has %d entries, oracle %d", label, j, hi-lo, len(col))
		}
		for k, e := range col {
			if int(p.rowIdx[lo+k]) != e.row || !sameBits(p.coef[lo+k], e.coef) {
				t.Fatalf("%s: column %d entry %d is (%d, %v), oracle (%d, %v)",
					label, j, k, p.rowIdx[lo+k], p.coef[lo+k], e.row, e.coef)
			}
		}
	}
	if p.colStart[len(cols)] != len(p.coef) {
		t.Fatalf("%s: %d coefficients past the last column", label, len(p.coef)-p.colStart[len(cols)])
	}
}

// TestCSCMatchesMapBuilder: the CSC matrix, built row by row (AddRow), in
// one batch (AddRows) or both in turn, holds exactly the entries the map
// builder held; the presolver's row store is their transpose, cancelled
// zeros included, less the columns whose bounds are [+0, 0]; and the reduced problem presolve builds is the one the map
// builder re-assembled row by row from that store.
func TestCSCMatchesMapBuilder(t *testing.T) {
	s := rng.NewStream(11)
	// Coverage: zero sums stored, presolve that removed part of a problem,
	// zero sums in a surviving row and column (which reduce must drop).
	cancelled, reducedSome, zeroKept := 0, 0, 0
	for trial := 0; trial < 500; trial++ {
		n, m := 1+s.IntN(12), s.IntN(9)
		rows := randomRows(s, n, m)
		ora := &oracleProblem{cols: make([][]oracleEntry, n)}
		byRow, batched, mixed := NewProblem(n), NewProblem(n), NewProblem(n)
		split := s.IntN(m + 1)
		for i, r := range rows {
			ora.addRow(r.idxs, r.coefs, r.lo, r.hi)
			byRow.AddRow(r.idxs, r.coefs, r.lo, r.hi)
			if i < split {
				mixed.AddRow(r.idxs, r.coefs, r.lo, r.hi)
			}
		}
		addAll := func(p *Problem, rows []oracleRow) {
			p.AddRows(len(rows), func(i int, add func(int, float64)) (float64, float64) {
				for k, j := range rows[i].idxs {
					add(j, rows[i].coefs[k])
				}
				return rows[i].lo, rows[i].hi
			})
		}
		addAll(batched, rows)
		addAll(mixed, rows[split:])
		for _, c := range []struct {
			name string
			p    *Problem
		}{{"AddRow", byRow}, {"AddRows", batched}, {"mixed", mixed}} {
			label := fmt.Sprintf("trial %d %s", trial, c.name)
			assertColumns(t, label, c.p, ora.cols)
			for i := range rows {
				if c.p.rowLo[i] != ora.rowLo[i] || c.p.rowHi[i] != ora.rowHi[i] {
					t.Fatalf("%s: row %d bounds [%v, %v], oracle [%v, %v]", label, i, c.p.rowLo[i], c.p.rowHi[i], ora.rowLo[i], ora.rowHi[i])
				}
			}
		}

		// Presolve under random boxes, some fixed, some integer.
		p := byRow
		for _, a := range p.coef {
			if a == 0 {
				cancelled++
			}
		}
		integer := make([]bool, n)
		for j := 0; j < n; j++ {
			p.SetObj(j, float64(s.IntN(7)-3))
			lo := float64(s.IntN(3) - 1)
			p.SetVarBounds(j, lo, lo+float64(s.IntN(4)))
			integer[j] = s.IntN(2) == 0
		}
		label := fmt.Sprintf("trial %d", trial)
		ps := cscPresolver(p, nil, nil, integer)
		oraRows := ora.transpose()
		for i, row := range oraRows {
			row = slices.DeleteFunc(row, func(e oracleEntry) bool { return !ps.colAlive[e.row] })
			oraRows[i] = row
			lo := ps.rowStart[i]
			if got := ps.rowEnd[i] - lo; got != len(row) {
				t.Fatalf("%s: row store %d has %d entries, oracle %d", label, i, got, len(row))
			}
			for k, e := range row {
				if int(ps.rowCol[lo+k]) != e.row || !sameBits(ps.rowCoef[lo+k], e.coef) {
					t.Fatalf("%s: row store %d entry %d is (%d, %v), oracle (%d, %v)", label, i, k, ps.rowCol[lo+k], ps.rowCoef[lo+k], e.row, e.coef)
				}
			}
		}
		ps.run()
		pr := PresolveProblem(p, nil, nil, integer)
		if pr.Infeasible || pr.Unbounded {
			continue
		}
		// The map builder's reduced problem: surviving rows in order, each
		// re-added through the row store over surviving columns.
		redIdx := make([]int, n)
		nred := 0
		for j := range redIdx {
			redIdx[j] = -1
			if ps.colAlive[j] {
				redIdx[j] = nred
				nred++
			}
		}
		want := &oracleProblem{cols: make([][]oracleEntry, nred)}
		for i, row := range oraRows {
			if !ps.rowAlive[i] {
				continue
			}
			var idxs []int
			var coefs []float64
			for _, e := range row {
				if ps.colAlive[e.row] {
					idxs = append(idxs, redIdx[e.row])
					coefs = append(coefs, e.coef)
				}
			}
			want.addRow(idxs, coefs, ps.rowLo[i], ps.rowHi[i])
		}
		red := pr.Reduced
		if nred > 0 && pr.RowsRemoved+pr.ColsRemoved > 0 {
			reducedSome++
		}
		for j := 0; j < n; j++ {
			for t := p.colStart[j]; t < p.colStart[j+1]; t++ {
				if p.coef[t] == 0 && ps.colAlive[j] && ps.rowAlive[p.rowIdx[t]] {
					zeroKept++
				}
			}
		}
		assertColumns(t, label+" reduced", red, want.cols)
		if red.NumRows() != len(want.rowLo) || red.NumVars() != nred {
			t.Fatalf("%s: reduced is %d×%d, oracle %d×%d", label, red.NumRows(), red.NumVars(), len(want.rowLo), nred)
		}
		for i := range want.rowLo {
			if !sameBits(red.rowLo[i], want.rowLo[i]) || !sameBits(red.rowHi[i], want.rowHi[i]) {
				t.Fatalf("%s: reduced row %d bounds [%v, %v], oracle [%v, %v]", label, i, red.rowLo[i], red.rowHi[i], want.rowLo[i], want.rowHi[i])
			}
		}
		for r := 0; r < nred; r++ {
			j := pr.Col(r)
			if red.obj[r] != p.obj[j] || red.varLo[r] != pr.Lo[r] || red.varHi[r] != pr.Hi[r] || &red.varLo[0] == &pr.Lo[0] {
				t.Fatalf("%s: reduced column %d (original %d): obj %v bounds [%v, %v], want obj %v bounds [%v, %v] in their own arrays",
					label, r, j, red.obj[r], red.varLo[r], red.varHi[r], p.obj[j], pr.Lo[r], pr.Hi[r])
			}
		}
	}
	if cancelled == 0 || reducedSome == 0 || zeroKept == 0 {
		t.Fatalf("corpus too tame: %d cancelled entries, %d partly reduced problems, %d cancelled entries kept", cancelled, reducedSome, zeroKept)
	}
	t.Logf("%d cancelled entries, %d partly reduced problems, %d cancelled entries kept", cancelled, reducedSome, zeroKept)
}
