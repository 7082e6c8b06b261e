package milp

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"spq/internal/lp"
	"spq/internal/rng"
)

// oracleMILP is a small random integer program in a form exhaustive
// enumeration can check. Column 0 is a binary that switches on one
// indicator row; the other columns are integers in 0..ub[j] with ub[j] ≤ 3.
// Every row and objective coefficient is an integer and every row bound lies
// halfway between two integers, so no point sits within a tolerance of a
// bound and every objective value is an exact integer.
type oracleMILP struct {
	ub   []int
	obj  []float64
	rows []oracleRow // plain rows
	ind  oracleRow   // x0 = 1 ⟹ ind.coefs·x ≥ ind.lo (ind.coefs[0] = 0)
}

type oracleRow struct {
	coefs  []float64
	lo, hi float64
}

// randomOracleMILP draws 4–9 columns, 1–3 plain rows and the indicator row,
// with mixed-sign coefficients.
func randomOracleMILP(s *rng.Stream) *oracleMILP {
	n := 4 + s.IntN(6)
	halfInt := func() float64 { return float64(s.IntN(13)-6) + 0.5 }
	coefs := func() []float64 {
		c := make([]float64, n)
		for j := range c {
			c[j] = float64(s.IntN(7) - 3)
		}
		return c
	}
	o := &oracleMILP{ub: make([]int, n), obj: make([]float64, n)}
	for j := range o.ub {
		o.ub[j] = 1 + s.IntN(3)
		o.obj[j] = float64(s.IntN(11) - 5)
	}
	o.ub[0] = 1
	for r := 1 + s.IntN(3); r > 0; r-- {
		row := oracleRow{coefs: coefs(), lo: math.Inf(-1), hi: math.Inf(1)}
		switch s.IntN(3) {
		case 0:
			row.hi = halfInt()
		case 1:
			row.lo = halfInt()
		default:
			row.lo = halfInt()
			row.hi = row.lo + float64(1+s.IntN(6))
		}
		o.rows = append(o.rows, row)
	}
	o.ind = oracleRow{coefs: coefs(), lo: halfInt()}
	o.ind.coefs[0] = 0
	return o
}

func (o *oracleMILP) model() *Model {
	m := NewModel()
	all := make([]int, len(o.ub))
	for j, ub := range o.ub {
		all[j] = m.AddVar(0, float64(ub), o.obj[j], true)
	}
	for _, r := range o.rows {
		m.AddRow(all, r.coefs, r.lo, r.hi)
	}
	m.AddIndicatorGE(all[0], all[1:], o.ind.coefs[1:], o.ind.lo)
	return m
}

func dot(a, x []float64) float64 {
	s := 0.0
	for j := range a {
		s += a[j] * x[j]
	}
	return s
}

func (o *oracleMILP) feasible(x []float64) bool {
	for j, v := range x {
		if v != math.Round(v) || v < 0 || v > float64(o.ub[j]) {
			return false
		}
	}
	for _, r := range o.rows {
		if a := dot(r.coefs, x); a < r.lo || a > r.hi {
			return false
		}
	}
	return x[0] == 0 || dot(o.ind.coefs, x) >= o.ind.lo
}

// optimum enumerates every integer point of the box; +Inf means none is
// feasible.
func (o *oracleMILP) optimum() float64 {
	best := math.Inf(1)
	x := make([]float64, len(o.ub))
	var visit func(j int)
	visit = func(j int) {
		if j == len(x) {
			if o.feasible(x) {
				best = min(best, dot(o.obj, x))
			}
			return
		}
		for v := 0; v <= o.ub[j]; v++ {
			x[j] = float64(v)
			visit(j + 1)
		}
	}
	visit(0)
	return best
}

// checkOracle compares a solve with enumeration: the status must agree, the
// point must be feasible and worth res.Obj, and res.Obj must be the optimum
// exactly at RelGap 0 and within RelGap of it otherwise.
func checkOracle(t *testing.T, tag string, o *oracleMILP, res *Result, gap float64) {
	t.Helper()
	best := o.optimum()
	if math.IsInf(best, 1) {
		if res.Status != StatusInfeasible {
			t.Fatalf("%s: status %v, enumeration finds no feasible point", tag, res.Status)
		}
		return
	}
	if res.Status != StatusOptimal {
		t.Fatalf("%s: status %v, enumeration optimum %v", tag, res.Status, best)
	}
	if !o.feasible(res.X) || dot(o.obj, res.X) != res.Obj {
		t.Fatalf("%s: returned x = %v (obj %v) is infeasible or not worth its objective", tag, res.X, res.Obj)
	}
	if res.Obj-best > gap*math.Abs(res.Obj) {
		t.Fatalf("%s: obj %v, enumeration optimum %v, RelGap %v", tag, res.Obj, best, gap)
	}
}

// FuzzMILP is the solver differential: random small MILPs solved against
// exhaustive enumeration.
func FuzzMILP(f *testing.F) {
	for seed := uint64(1); seed <= 12; seed++ {
		f.Add(seed, uint8(seed))
	}
	f.Fuzz(func(t *testing.T, seed uint64, gapSel uint8) {
		o := randomOracleMILP(rng.NewStream(seed))
		gap := [...]float64{0, 0.01, 0.1}[gapSel%3]
		checkOracle(t, "solve", o, mustSolve(t, o.model(), &Options{RelGap: gap}), gap)
	})
}

// TestReducedCostFixing: fixing fires — the fuzz seeds 1..600 at every
// RelGap take fewer nodes with it than with the switch off — and the answers
// are still the enumerated optima. (Seed 513 at a nonzero RelGap has an
// optimum on the edge of a node's fixed interval: fixing one value too many
// loses it.)
func TestReducedCostFixing(t *testing.T) {
	defer func() { fixing = true }()
	run := func() (nodes int) {
		for seed := uint64(1); seed <= 600; seed++ {
			o := randomOracleMILP(rng.NewStream(seed))
			for _, gap := range []float64{0, 0.01, 0.1} {
				res := mustSolve(t, o.model(), &Options{RelGap: gap})
				checkOracle(t, fmt.Sprintf("fixing=%t seed %d gap %v", fixing, seed, gap), o, res, gap)
				nodes += res.Nodes
			}
		}
		return nodes
	}
	on := run()
	fixing = false
	off := run()
	if on >= off {
		t.Fatalf("%d nodes with reduced-cost fixing, %d without: fixing never fired", on, off)
	}
	t.Logf("%d nodes with reduced-cost fixing, %d without", on, off)
}

// rowList is a problem in row form written out term by term: a row is its
// index and coefficient lists, fed to lp.RowTerms.Add one term at a time.
type rowList struct {
	obj, lo, hi []float64
	integer     []bool
	idxs        [][]int
	coefs       [][]float64
	rowLo       []float64
	rowHi       []float64
}

func (r *rowList) NumCols() int  { return len(r.obj) }
func (r *rowList) NumRows() int  { return len(r.idxs) }
func (r *rowList) NumTerms() int { return 0 }

func (r *rowList) Col(j int) (obj, lo, hi float64, integer bool) {
	return r.obj[j], r.lo[j], r.hi[j], r.integer[j]
}

func (r *rowList) Row(i int, t *lp.RowTerms) (lo, hi float64) {
	for k, j := range r.idxs[i] {
		t.Add(j, r.coefs[i][k])
	}
	return r.rowLo[i], r.rowHi[i]
}

func (r *rowList) add(idxs []int, coefs []float64, lo, hi float64) {
	r.idxs, r.coefs = append(r.idxs, idxs), append(r.coefs, coefs)
	r.rowLo, r.rowHi = append(r.rowLo, lo), append(r.rowHi, hi)
}

// buildRowByRow writes the model's LP relaxation out one row at a time, with
// its own big-M arithmetic: each plain row, then each indicator's terms with
// its big-M entry appended. lp's TestPresolveRowsMatchesCSC holds presolving
// such rows to presolving the column-major Problem AddRows builds of them.
func buildRowByRow(m *Model) *rowList {
	p := &rowList{}
	for _, v := range m.vars {
		lo, hi := v.box()
		p.obj, p.lo, p.hi = append(p.obj, v.obj), append(p.lo, lo), append(p.hi, hi)
		p.integer = append(p.integer, v.integer)
	}
	terms := func(idxs []int, coefs []float64) []int {
		if idxs != nil {
			return append([]int(nil), idxs...)
		}
		dense := make([]int, len(coefs))
		for k := range dense {
			dense[k] = k
		}
		return dense
	}
	for _, r := range m.rows {
		p.add(terms(r.idxs, r.coefs), r.coefs, r.lo, r.hi)
	}
	for _, ind := range m.indicators {
		minV, maxV, _, _, _ := m.boxExtremes(ind.idxs, ind.coefs)
		idxs := append(terms(ind.idxs, ind.coefs), ind.bin)
		coefs := append([]float64(nil), ind.coefs...)
		if ind.ge {
			bigM := ind.rhs - minV
			if bigM < 0 {
				bigM = 0
			}
			bigM = bigM*1.01 + 1
			p.add(idxs, append(coefs, -bigM), ind.rhs-bigM, lp.Inf)
		} else {
			bigM := maxV - ind.rhs
			if bigM < 0 {
				bigM = 0
			}
			bigM = bigM*1.01 + 1
			p.add(idxs, append(coefs, bigM), -lp.Inf, ind.rhs+bigM)
		}
	}
	return p
}

// TestBuildMatchesRowByRow: the row form Solve hands to presolve presolves
// exactly as the rows the row-at-a-time builder writes out for the same
// model, on the FuzzMILP corpus, the property corpus, a model
// whose rows repeat indices, cancel to zero, and name an indicator's binary
// among its terms, one with dense rows and indicators, and one with pinned
// variables. The walk that writes the row form counts the coefficients
// Result.Coefficients reports, and counts them as NumCoefficients does.
func TestBuildMatchesRowByRow(t *testing.T) {
	models := propertyCorpus()
	for seed := uint64(1); seed <= 600; seed++ {
		models = append(models, randomOracleMILP(rng.NewStream(seed)).model())
	}
	odd := NewModel()
	x, y, b := odd.AddVar(0, 3, -1, true), odd.AddVar(-2, 2, 1, false), odd.AddBinary(0)
	odd.AddRow([]int{x, y, x, b, y}, []float64{1, 2, -1, 0, 0.5}, -Inf, 4)
	odd.AddIndicatorGE(b, []int{x, b, x, y}, []float64{2, 1, 1, -3}, 1)
	odd.AddIndicatorLE(b, []int{y, y}, []float64{1, -1}, 0)
	dense := NewModel()
	for j := 0; j < 6; j++ {
		dense.AddVar(0, float64(j%3+1), float64(j%4)-1.5, j%2 == 0)
	}
	bin := dense.AddBinary(0)
	dense.AddRow(nil, []float64{1, 0, 2, -1, 0, 3}, -Inf, 7)
	dense.AddRow(nil, []float64{0, 1, 1}, 1, Inf)
	dense.AddIndicatorGE(bin, nil, []float64{2, 0, -1, 1, 1, 0, 0}, 3)
	dense.AddIndicatorLE(bin, nil, []float64{1, 1, 1}, 2)
	// Pinned variables: their terms stay out of the row store, while the
	// big-M values still come from their declared boxes.
	pinned := NewModel()
	for j := 0; j < 6; j++ {
		pinned.AddVar(0, float64(j%3+1), float64(j%4)-1.5, j%2 == 0)
	}
	pb := pinned.AddBinary(0)
	pinned.AddRow(nil, []float64{1, 0, 2, -1, 0, 3}, -Inf, 7)
	pinned.AddRow([]int{1, 4}, []float64{1, 1}, 1, Inf)
	pinned.AddIndicatorLE(pb, nil, []float64{3, 1, 5, 1, 4, 2}, 4)
	pinned.AddRow([]int{pb}, []float64{1}, 1, Inf)
	pinned.SetPinned(0, true)
	pinned.SetPinned(4, true)
	models = append(models, odd, dense, pinned)
	for i, m := range models {
		rows := new(rowForm)
		if err := m.relaxation(rows); err != nil {
			t.Fatal(err)
		}
		if rows.coefs != m.NumCoefficients() {
			t.Fatalf("model %d: the relaxation counts %d coefficients, NumCoefficients %d", i, rows.coefs, m.NumCoefficients())
		}
		got := lp.PresolveRows(rows)
		if want := lp.PresolveRows(buildRowByRow(m)); !reflect.DeepEqual(got, want) {
			t.Fatalf("model %d: presolved row form\n%+v\nrow by row\n%+v", i, got, want)
		}
	}
}
