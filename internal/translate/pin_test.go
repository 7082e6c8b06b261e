package translate

import (
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"

	"spq/internal/lp"
	"spq/internal/milp"
	"spq/internal/scenario"
)

// pinnedValues draws a forced "≤" row's summary values against v: below
// it, far above it, within pinMargin above it (where presolve may keep the
// tuple) and just past pinMargin, plus zeros.
func pinnedValues(r *rand.Rand, n int, v float64) []float64 {
	vals := make([]float64, n)
	for i := range vals {
		switch r.IntN(6) {
		case 0:
			vals[i] = 0
		case 1:
			vals[i] = v * r.Float64()
		case 2:
			vals[i] = v * (1 + 2*r.Float64())
		case 3: // within 1e-5 of v, relative
			vals[i] = v * (1 + 1e-5*r.Float64())
		case 4: // within 1e-6: presolve's own slack
			vals[i] = v * (1 + 1e-6*r.Float64())
		default: // just past the margin
			vals[i] = v / (1 - pinMargin) * (1 + 1e-9*r.Float64())
		}
	}
	return vals
}

// samePresolve compares two presolves of one model bit for bit: verdicts,
// counts, offset, bounds, reduced problem and postsolve map.
func samePresolve(t *testing.T, label string, got, want *lp.Presolved) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: presolved %+v, unpinned %+v", label, got, want)
	}
	bits := func(xs ...float64) string { return fmt.Sprintf("%x", xs) }
	if bits(got.ObjOffset) != bits(want.ObjOffset) || bits(got.Lo...) != bits(want.Lo...) || bits(got.Hi...) != bits(want.Hi...) {
		t.Fatalf("%s: offset or bounds differ in sign or bits", label)
	}
	if got.Reduced != nil && fmt.Sprintf("%x", *got.Reduced) != fmt.Sprintf("%x", *want.Reduced) {
		t.Fatalf("%s: reduced problems differ in sign or bits", label)
	}
	if got.Reduced != nil && bits(got.Postsolve(got.Lo)...) != bits(want.Postsolve(want.Lo)...) {
		t.Fatalf("%s: postsolve differs", label)
	}
}

// TestPinnedCSAPresolvesIdentically: a model FormulateCSA pinned presolves,
// bit for bit, as the same model with every pin taken out, over forced
// "≤" rows (Z ∈ {1, 2, 3}) whose values lie below v, far above it and
// within pinMargin of it (some with a negative value, which pins nothing),
// beside an unforced "≤" row and a probability objective, whose indicators
// keep the big-M of the declared boxes.
func TestPinnedCSAPresolvesIdentically(t *testing.T) {
	r := rand.New(rand.NewPCG(47, 1))
	pinned, presolved := 0, 0
	for trial := 0; trial < 120; trial++ {
		n := 5 + r.IntN(40)
		rel := realizeRelation(t, n)
		v := []float64{0.5, 3, 40, 700}[r.IntN(4)]
		q := fmt.Sprintf(`SELECT PACKAGE(*) AS P FROM assets SUCH THAT COUNT(*) <= %d
			AND SUM(risk) <= %g WITH PROBABILITY >= 0.95
			AND SUM(risk) <= %g WITH PROBABILITY >= 0.5
			MAXIMIZE PROBABILITY OF SUM(gain) >= 1`, 1+r.IntN(6), v, v)
		s := buildQuery(t, q, rel)
		z := 1 + r.IntN(3)
		forced := make([]*scenario.Summary, z)
		for k := range forced {
			forced[k] = &scenario.Summary{Values: pinnedValues(r, n, v)}
			if r.IntN(4) == 0 { // a negative value: the row pins nothing
				forced[k].Values[r.IntN(n)] = -v * r.Float64()
			}
		}
		free := make([]*scenario.Summary, 3) // ⌈0.5·3⌉ = 2 of 3: not forced
		for k := range free {
			free[k] = &scenario.Summary{Values: pinnedValues(r, n, v)}
		}
		obj := make([]*scenario.Summary, 1+r.IntN(3))
		for k := range obj {
			vals := make([]float64, n)
			for i := range vals {
				vals[i] = 4*r.Float64() - 1
			}
			obj[k] = &scenario.Summary{Values: vals}
		}
		m, _, err := s.FormulateCSA([][]*scenario.Summary{forced, free}, obj)
		if err != nil {
			t.Fatal(err)
		}
		pinned += m.NumPinned()
		for i := 0; i < n; i++ {
			if m.Pinned(i) != excludesAny(forced, i, v) {
				t.Fatalf("trial %d: tuple %d pinned %t, its forced values %v against v = %g", trial, i, m.Pinned(i), columnOf(forced, i), v)
			}
		}
		got, err := m.Presolve()
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < m.NumVars(); j++ {
			m.SetPinned(j, false)
		}
		want, err := m.Presolve()
		if err != nil {
			t.Fatal(err)
		}
		samePresolve(t, fmt.Sprintf("trial %d (N=%d, Z=%d, v=%g)", trial, n, z, v), got, want)
		if !want.Infeasible && want.ColsRemoved > 0 {
			presolved++
		}
	}
	if pinned < 500 || presolved < 60 {
		t.Fatalf("corpus too tame: %d tuples pinned, %d feasible reduced problems", pinned, presolved)
	}
}

// columnOf is tuple i's value in each row.
func columnOf(rows []*scenario.Summary, i int) []float64 {
	var out []float64
	for _, sm := range rows {
		out = append(out, sm.Values[i])
	}
	return out
}

// excludesAny reports that a forced row of nonnegative values excludes
// tuple i.
func excludesAny(rows []*scenario.Summary, i int, v float64) bool {
	for _, sm := range rows {
		if excludes(sm.Values[i], v) && slices.Min(sm.Values) >= 0 {
			return true
		}
	}
	return false
}

// TestPinnerUnpinsUnfitRows: a forced row with a negative value pins
// nothing, and neither does one whose scale dwarfs the margin; a tuple an
// earlier row pinned stays pinned beside a later unfit row.
func TestPinnerUnpinsUnfitRows(t *testing.T) {
	m := milp.NewModel()
	for i := 0; i < 4; i++ {
		m.AddVar(0, 2, 0, true)
	}
	p := newPinner(m, make([]float64, 4), []float64{2, 2, 2, 2})
	p.exclude([]float64{5, 0, 1, 5}, 2)
	p.exclude([]float64{5, 6, 7, -1}, 2) // would pin tuples 1 and 2
	p.exclude([]float64{3e6, 1e16, 0, 0}, 0.5)
	var got []bool
	for i := 0; i < 4; i++ {
		got = append(got, m.Pinned(i))
	}
	if want := []bool{true, false, false, true}; !reflect.DeepEqual(got, want) || m.NumPinned() != 2 {
		t.Fatalf("pins %v (%d), want %v", got, m.NumPinned(), want)
	}
	if off := newPinner(m, []float64{0, 1, 0, 0}, make([]float64, 4)); !off.off {
		t.Fatal("a tuple with a lower bound of 1 left pinning on")
	}
	if !newPinner(m, []float64{0, math.Copysign(0, -1), 0, 0}, make([]float64, 4)).off {
		t.Fatal("a lower bound of −0 left pinning on")
	}
}

// TestFormulateCSAReusesModel: a model handed back with Recycle is the
// memory of the SILP's next formulation, and that formulation is the one a
// SILP with no recycled model builds, pins included: formulations of three
// and of one forced rows, with different pins and different sizes, each
// built on the model the other left.
func TestFormulateCSAReusesModel(t *testing.T) {
	r := rand.New(rand.NewPCG(53, 1))
	const n, v = 30, 3.0
	rel := realizeRelation(t, n)
	q := fmt.Sprintf(`SELECT PACKAGE(*) AS P FROM assets SUCH THAT COUNT(*) <= 4
		AND SUM(risk) <= %g WITH PROBABILITY >= 0.95
		AND SUM(risk) <= %g WITH PROBABILITY >= 0.5
		MAXIMIZE PROBABILITY OF SUM(gain) >= 1`, v, v)
	group := func(z int) []*scenario.Summary {
		g := make([]*scenario.Summary, z)
		for k := range g {
			g[k] = &scenario.Summary{Values: pinnedValues(r, n, v)}
		}
		return g
	}
	type form struct {
		sums [][]*scenario.Summary
		obj  []*scenario.Summary
	}
	a := form{[][]*scenario.Summary{group(3), group(3)}, group(2)}
	b := form{[][]*scenario.Summary{group(1), group(3)}, group(1)}
	s := buildQuery(t, q, rel)
	var prev *milp.Model
	for k, f := range []form{a, b, a} {
		m, vm, err := s.FormulateCSA(f.sums, f.obj)
		if err != nil {
			t.Fatal(err)
		}
		if prev != nil && m != prev {
			t.Fatalf("formulation %d: a new model beside the recycled one", k)
		}
		want, wantVM, err := buildQuery(t, q, rel).FormulateCSA(f.sums, f.obj)
		if err != nil {
			t.Fatal(err)
		}
		if m.NumPinned() == 0 {
			t.Fatalf("formulation %d pins nothing", k)
		}
		if !reflect.DeepEqual(m, want) || !reflect.DeepEqual(vm, wantVM) {
			t.Fatalf("formulation %d on a recycled model differs from a fresh one: %d pinned of %d variables, fresh %d of %d",
				k, m.NumPinned(), m.NumVars(), want.NumPinned(), want.NumVars())
		}
		got, err := m.Presolve()
		if err != nil {
			t.Fatal(err)
		}
		wantPr, err := want.Presolve()
		if err != nil {
			t.Fatal(err)
		}
		samePresolve(t, fmt.Sprintf("formulation %d", k), got, wantPr)
		s.Recycle(m)
		prev = m
	}
}
