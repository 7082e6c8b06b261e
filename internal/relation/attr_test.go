package relation

import (
	"math"
	"strings"
	"testing"

	"spq/internal/dist"
	"spq/internal/rng"
)

// foreignVG is a VGFunc from outside this package: it has no row path, so
// Attr.Values must fall back to one Value call per scenario.
type foreignVG struct{}

func (foreignVG) Value(src rng.Source, tuple, scenario int) float64 {
	return rng.NewStream(src.SeedAt(99, uint64(tuple), uint64(scenario))).Float64() * float64(tuple+1)
}

func (foreignVG) ExactMean(int) float64 { return math.NaN() }

// kernelFamily is a distribution named for benchmark output.
type kernelFamily struct {
	name string
	d    dist.Dist
}

// kernelFamilies has a distribution of every family IndependentVG's row
// kernel specializes, plain and Shifted, and of every family it samples
// from a stream instead.
func kernelFamilies() []kernelFamily {
	choice := []float64{-1.5, 0, 2.25, 7, -0.0}
	specialized := []kernelFamily{
		{"UniformChoicePtr", &dist.UniformChoice{Values: choice[:3]}},
		{"Normal", dist.Normal{Mu: 4, Sigma: 2.5}},
		{"ParetoAlpha1", dist.Pareto{Sigma: 0.5, Alpha: 1}},
		{"ParetoAlpha2.5", dist.Pareto{Sigma: 2, Alpha: 2.5}},
	}
	out := append([]kernelFamily(nil), specialized...)
	for i, f := range specialized {
		out = append(out, kernelFamily{"Shifted" + f.name, dist.Shifted{Off: float64(i) - 2.5, D: f.d}})
	}
	return append(out,
		kernelFamily{"UniformChoice", dist.UniformChoice{Values: choice}},
		kernelFamily{"Uniform", dist.Uniform{Lo: -0.5, Hi: 3}},
		kernelFamily{"Exponential", dist.Exponential{Lambda: 1.5, Loc: -1}},
		kernelFamily{"Poisson", dist.Poisson{Lambda: 2, Loc: -2}},
		kernelFamily{"PoissonNormalApprox", dist.Poisson{Lambda: 40, Loc: 0}},
		kernelFamily{"StudentT", dist.StudentT{Nu: 2, Loc: 0, Scale: 1}},
		kernelFamily{"Mixture", dist.UniformMixture(dist.Normal{Mu: 1, Sigma: 1}, dist.Pareto{Sigma: 1, Alpha: 1})},
		kernelFamily{"Degenerate", dist.Degenerate{Value: 3}},
		kernelFamily{"ShiftedPoisson", dist.Shifted{Off: 1, D: dist.Poisson{Lambda: 1, Loc: -1}}},
		kernelFamily{"ShiftedShiftedNormal", dist.Shifted{Off: -4, D: dist.Shifted{Off: 2, D: dist.Normal{Mu: 0, Sigma: 1}}}},
	)
}

// attrTestRelation has every attribute kind a row can realize: a resident
// column, a broadcast and a per-tuple IndependentVG (with Pareto α = 1
// tails), one with a distribution of every kernel family per tuple
// (kernelFamilies, cycled), a GroupedVG, and a foreign VGFunc.
func attrTestRelation(t *testing.T, n int) *Relation {
	t.Helper()
	r := newTestRelation(t, n) // price (resident), gain (broadcast Normal)
	ds := make([]dist.Dist, n)
	group := make([]int, n)
	for i := range ds {
		if i%2 == 0 {
			ds[i] = dist.Pareto{Sigma: 1, Alpha: 1}
		} else {
			ds[i] = dist.Normal{Mu: float64(i), Sigma: 2}
		}
		group[i] = i / 3
	}
	if err := r.AddStoch("flux", &IndependentVG{AttrID: 2, Dists: ds}); err != nil {
		t.Fatal(err)
	}
	families := kernelFamilies()
	fam := make([]dist.Dist, n)
	for i := range fam {
		fam[i] = families[i%len(families)].d
	}
	if err := r.AddStoch("family", &IndependentVG{AttrID: 4, Dists: fam}); err != nil {
		t.Fatal(err)
	}
	grp := &GroupedVG{AttrID: 3, Group: group, Eval: func(s *rng.Stream, tuple int) float64 {
		return s.Norm()*float64(tuple%3+1) + s.Float64()
	}}
	if err := r.AddStoch("path", grp); err != nil {
		t.Fatal(err)
	}
	if err := r.AddStoch("foreign", foreignVG{}); err != nil {
		t.Fatal(err)
	}
	return r
}

// assertRowsMatchValue checks Attr.Values against per-value Value bit for
// bit, for every tuple and several scenario lists.
func assertRowsMatchValue(t *testing.T, label string, r *Relation, attrs []string) {
	t.Helper()
	src := rng.NewSource(21)
	long := make([]int, 300)
	for k := range long {
		long[k] = 7 * k
	}
	scenLists := [][]int{{0}, {0, 1, 2, 3}, {9, 2, 2, 40, 0}, long, {}}
	for _, name := range attrs {
		a, err := r.Attr(name)
		if err != nil {
			t.Fatal(err)
		}
		for tuple := 0; tuple < r.N(); tuple++ {
			for _, scens := range scenLists {
				out := make([]float64, len(scens)+1)
				out[len(scens)] = 12345 // Values must not write past len(scens)
				if err := a.Values(src, tuple, scens, out); err != nil {
					t.Fatal(err)
				}
				for k, j := range scens {
					want, err := r.Value(src, name, tuple, j)
					if err != nil {
						t.Fatal(err)
					}
					if math.Float64bits(out[k]) != math.Float64bits(want) {
						t.Fatalf("%s: %s tuple %d scenario %d: row %v, Value %v", label, name, tuple, j, out[k], want)
					}
				}
				if out[len(scens)] != 12345 {
					t.Fatalf("%s: %s wrote past the scenario list", label, name)
				}
			}
		}
	}
}

func TestAttrValuesMatchesValue(t *testing.T) {
	n := 2 * len(kernelFamilies())
	base := attrTestRelation(t, n)
	attrs := []string{"price", "gain", "flux", "family", "path", "foreign"}
	assertRowsMatchValue(t, "base", base, attrs)
	view := mustSelect(t, base, 1, 2, 5, 6, 7, 11, 14, 19, 20, n-1)
	assertRowsMatchValue(t, "view", view, attrs)
	assertRowsMatchValue(t, "view of view", mustSelect(t, view, 0, 3, 5, 8), attrs)
	if _, err := base.Attr("nope"); err == nil {
		t.Fatal("unknown attribute resolved")
	}
}

// TestAttrValuesLazyColumn: a spilled column realizes through its source
// without being promoted, and agrees with Value.
func TestAttrValuesLazyColumn(t *testing.T) {
	csvText, _, _ := spillTestCSV(50)
	lazy, err := SpillCSV("r", strings.NewReader(csvText), t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	assertRowsMatchValue(t, "spilled", lazy, []string{"price"})
	if !lazy.IsLazy("price") {
		t.Fatal("Attr.Values promoted the lazy column")
	}
	assertRowsMatchValue(t, "spilled view", mustSelect(t, lazy, 3, 4, 40), []string{"price"})
}

// TestAttrValuesAllocatesNothing: realizing a row allocates nothing for the
// package's own VG functions, in every kernel family and through a view.
func TestAttrValuesAllocatesNothing(t *testing.T) {
	n := len(kernelFamilies())
	r := attrTestRelation(t, n)
	view := mustSelect(t, r, 1, 4, 6)
	src := rng.NewSource(5)
	scens := []int{0, 3, 8, 64, 65}
	out := make([]float64, len(scens))
	for _, rel := range []*Relation{r, view} {
		for _, name := range []string{"price", "gain", "flux", "family", "path"} {
			a, err := rel.Attr(name)
			if err != nil {
				t.Fatal(err)
			}
			for tuple := 0; tuple < rel.N(); tuple++ {
				if n := testing.AllocsPerRun(100, func() { _ = a.Values(src, tuple, scens, out) }); n != 0 {
					t.Fatalf("%s tuple %d: Values allocates %v objects per row, want 0", name, tuple, n)
				}
			}
		}
	}
}

// BenchmarkAttrValues realizes 256-scenario rows of one tuple for each
// kernel family and reports the cost per value.
func BenchmarkAttrValues(b *testing.B) {
	src := rng.NewSource(9)
	var scens [256]int
	for k := range scens {
		scens[k] = 3 * k
	}
	var out [256]float64
	for _, f := range kernelFamilies() {
		r := New("bench", 1)
		if err := r.AddStoch("v", &IndependentVG{AttrID: 1, Dists: []dist.Dist{f.d}}); err != nil {
			b.Fatal(err)
		}
		a, err := r.Attr("v")
		if err != nil {
			b.Fatal(err)
		}
		b.Run(f.name, func(b *testing.B) {
			_ = a.Values(src, 0, scens[:], out[:]) // fills the stream pool
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = a.Values(src, 0, scens[:], out[:])
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(scens)), "ns/value")
		})
	}
}
