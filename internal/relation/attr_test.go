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

// attrTestRelation has every attribute kind a row can realize: a resident
// column, a broadcast and a per-tuple IndependentVG (with Pareto α = 1
// tails), a GroupedVG, and a foreign VGFunc.
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
	base := attrTestRelation(t, 12)
	attrs := []string{"price", "gain", "flux", "path", "foreign"}
	assertRowsMatchValue(t, "base", base, attrs)
	view := base.SelectIndices([]int{1, 2, 5, 6, 7, 11})
	assertRowsMatchValue(t, "view", view, attrs)
	assertRowsMatchValue(t, "view of view", view.SelectIndices([]int{0, 3, 5}), attrs)
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
	assertRowsMatchValue(t, "spilled view", lazy.SelectIndices([]int{3, 4, 40}), []string{"price"})
}

// TestAttrValuesAllocatesNothing: a row reuses one recycled stream, so
// realizing it allocates nothing for the package's own VG functions.
func TestAttrValuesAllocatesNothing(t *testing.T) {
	r := attrTestRelation(t, 8)
	view := r.SelectIndices([]int{1, 4, 6})
	src := rng.NewSource(5)
	scens := []int{0, 3, 8, 64, 65}
	out := make([]float64, len(scens))
	for _, rel := range []*Relation{r, view} {
		for _, name := range []string{"price", "gain", "flux", "path"} {
			a, err := rel.Attr(name)
			if err != nil {
				t.Fatal(err)
			}
			if n := testing.AllocsPerRun(100, func() { _ = a.Values(src, 2, scens, out) }); n != 0 {
				t.Fatalf("%s: Values allocates %v objects per row, want 0", name, n)
			}
		}
	}
}
