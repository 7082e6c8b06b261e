package relation

import (
	"math"
	"strings"
	"testing"

	"spq/internal/dist"
	"spq/internal/rng"
)

func newTestRelation(t *testing.T, n int) *Relation {
	t.Helper()
	r := New("test", n)
	price := make([]float64, n)
	for i := range price {
		price[i] = float64(100 + i)
	}
	if err := r.AddDet("price", price); err != nil {
		t.Fatal(err)
	}
	if err := r.AddStoch("gain", &IndependentVG{AttrID: 1, Dists: []dist.Dist{dist.Normal{Mu: 2, Sigma: 1}}}); err != nil {
		t.Fatal(err)
	}
	return r
}

func TestBasicAccessors(t *testing.T) {
	r := newTestRelation(t, 5)
	if r.Name() != "test" || r.N() != 5 {
		t.Fatalf("Name/N wrong: %q %d", r.Name(), r.N())
	}
	if !r.HasAttr("price") || !r.HasAttr("gain") || r.HasAttr("nope") {
		t.Fatal("HasAttr wrong")
	}
	if r.IsStochastic("price") || !r.IsStochastic("gain") {
		t.Fatal("IsStochastic wrong")
	}
	if got := r.DetNames(); len(got) != 1 || got[0] != "price" {
		t.Fatalf("DetNames = %v", got)
	}
	if got := r.StochNames(); len(got) != 1 || got[0] != "gain" {
		t.Fatalf("StochNames = %v", got)
	}
}

func TestColumnLengthValidation(t *testing.T) {
	r := New("x", 3)
	if err := r.AddDet("bad", []float64{1}); err == nil {
		t.Fatal("expected length error")
	}
}

func TestDuplicateAttrRejected(t *testing.T) {
	r := newTestRelation(t, 3)
	if err := r.AddDet("price", make([]float64, 3)); err == nil {
		t.Fatal("expected duplicate error")
	}
	if err := r.AddStoch("gain", &IndependentVG{AttrID: 9, Dists: []dist.Dist{dist.Degenerate{}}}); err == nil {
		t.Fatal("expected duplicate error")
	}
	if err := r.AddStoch("price", &IndependentVG{AttrID: 9, Dists: []dist.Dist{dist.Degenerate{}}}); err == nil {
		t.Fatal("expected cross-kind duplicate error")
	}
}

func TestValueDeterministicColumnIgnoresScenario(t *testing.T) {
	r := newTestRelation(t, 4)
	src := rng.NewSource(1)
	a, _ := r.Value(src, "price", 2, 0)
	b, _ := r.Value(src, "price", 2, 99)
	if a != b || a != 102 {
		t.Fatalf("price values: %v %v, want 102", a, b)
	}
}

func TestStochasticValueReproducible(t *testing.T) {
	r := newTestRelation(t, 4)
	src := rng.NewSource(7)
	a, _ := r.Value(src, "gain", 1, 3)
	b, _ := r.Value(src, "gain", 1, 3)
	if a != b {
		t.Fatal("same coordinate produced different realizations")
	}
	c, _ := r.Value(src, "gain", 1, 4)
	if a == c {
		t.Fatal("different scenarios produced identical realizations")
	}
	d, _ := r.Value(src, "gain", 2, 3)
	if a == d {
		t.Fatal("different tuples produced identical realizations")
	}
}

// TestVGValueRecyclesItsStream: a realized value draws from a recycled
// substream — no heap object per value (a scan realizes tens of millions) —
// and reads exactly what a fresh stream at the same coordinate yields, no
// matter what the recycled one served before.
func TestVGValueRecyclesItsStream(t *testing.T) {
	src := rng.NewSource(7)
	normal := dist.Normal{Mu: 2, Sigma: 1}
	ind := &IndependentVG{AttrID: 1, Dists: []dist.Dist{normal}}
	grp := &GroupedVG{AttrID: 2, Group: []int{0, 0, 1, 1},
		Eval: func(s *rng.Stream, tuple int) float64 { return s.Norm() + float64(tuple) }}
	for tuple := 0; tuple < 4; tuple++ {
		for scen := 0; scen < 3; scen++ {
			want := normal.Sample(rng.NewStream(src.SeedAt(1, uint64(tuple), uint64(scen))))
			if got := ind.Value(src, tuple, scen); got != want {
				t.Fatalf("IndependentVG(%d, %d) = %v, fresh stream gives %v", tuple, scen, got, want)
			}
			want = rng.NewStream(src.SeedAt(2, uint64(grp.Group[tuple]), uint64(scen))).Norm() + float64(tuple)
			if got := grp.Value(src, tuple, scen); got != want {
				t.Fatalf("GroupedVG(%d, %d) = %v, fresh stream gives %v", tuple, scen, got, want)
			}
		}
	}
	var sink float64
	if n := testing.AllocsPerRun(200, func() { sink += ind.Value(src, 1, 3) }); n != 0 {
		t.Fatalf("IndependentVG.Value allocates %v objects per value, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() { sink += grp.Value(src, 2, 3) }); n != 0 {
		t.Fatalf("GroupedVG.Value allocates %v objects per value, want 0", n)
	}
	_ = sink
}

func TestRealizeMatchesValue(t *testing.T) {
	r := newTestRelation(t, 6)
	src := rng.NewSource(5)
	out := make([]float64, 6)
	if err := r.Realize(src, "gain", 2, out); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		v, _ := r.Value(src, "gain", i, 2)
		if out[i] != v {
			t.Fatalf("Realize[%d] = %v, Value = %v", i, out[i], v)
		}
	}
}

func TestRealizeUnknownAttr(t *testing.T) {
	r := newTestRelation(t, 2)
	if err := r.Realize(rng.NewSource(1), "zzz", 0, make([]float64, 2)); err == nil {
		t.Fatal("expected error")
	}
	if err := r.Realize(rng.NewSource(1), "gain", 0, make([]float64, 1)); err == nil {
		t.Fatal("expected length error")
	}
}

func TestComputeMeansExact(t *testing.T) {
	r := newTestRelation(t, 3)
	r.ComputeMeans(rng.NewSource(2), 10)
	m, err := r.Means("gain")
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range m {
		if v != 2 { // Normal(2,1) has closed-form mean
			t.Fatalf("mean[%d] = %v, want exact 2", i, v)
		}
	}
}

func TestComputeMeansSampled(t *testing.T) {
	r := New("x", 2)
	// Pareto(1,1) has no finite mean → sampled estimate path.
	if err := r.AddStoch("v", &IndependentVG{AttrID: 3, Dists: []dist.Dist{dist.Pareto{Sigma: 1, Alpha: 1}}}); err != nil {
		t.Fatal(err)
	}
	r.ComputeMeans(rng.NewSource(3), 500)
	m, err := r.Means("v")
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range m {
		if v < 1 || math.IsNaN(v) {
			t.Fatalf("sampled mean[%d] = %v, want ≥ 1 (Pareto support)", i, v)
		}
	}
}

func TestMeansWithoutComputeFails(t *testing.T) {
	r := newTestRelation(t, 2)
	if _, err := r.Means("gain"); err == nil {
		t.Fatal("expected error before ComputeMeans")
	}
	if _, err := r.Means("price"); err != nil {
		t.Fatal("deterministic means should always work")
	}
}

func TestSetMeans(t *testing.T) {
	r := newTestRelation(t, 2)
	if err := r.SetMeans("gain", []float64{5, 6}); err != nil {
		t.Fatal(err)
	}
	m, _ := r.Means("gain")
	if m[0] != 5 || m[1] != 6 {
		t.Fatalf("means = %v", m)
	}
	if err := r.SetMeans("price", []float64{1, 2}); err == nil {
		t.Fatal("SetMeans on deterministic column should fail")
	}
	if err := r.SetMeans("gain", []float64{1}); err == nil {
		t.Fatal("SetMeans with wrong length should fail")
	}
}

func TestSelectPreservesSubstreamIdentity(t *testing.T) {
	r := newTestRelation(t, 10)
	src := rng.NewSource(9)
	view := r.Select(func(tuple int) bool { return tuple%2 == 1 })
	if view.N() != 5 {
		t.Fatalf("view has %d tuples, want 5", view.N())
	}
	for k := 0; k < view.N(); k++ {
		orig := view.OrigIndex(k)
		if orig != 2*k+1 {
			t.Fatalf("OrigIndex(%d) = %d, want %d", k, orig, 2*k+1)
		}
		a, _ := view.Value(src, "gain", k, 7)
		b, _ := r.Value(src, "gain", orig, 7)
		if a != b {
			t.Fatalf("view tuple %d realization %v != base tuple %d realization %v", k, a, orig, b)
		}
		pv, _ := view.Det("price")
		pb, _ := r.Det("price")
		if pv[k] != pb[orig] {
			t.Fatal("deterministic column not remapped")
		}
	}
}

func TestSelectCopiesMeans(t *testing.T) {
	r := newTestRelation(t, 4)
	r.ComputeMeans(rng.NewSource(2), 10)
	view := r.Select(func(tuple int) bool { return tuple >= 2 })
	m, err := view.Means("gain")
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != 2 || m[0] != 2 {
		t.Fatalf("view means = %v", m)
	}
}

func TestGroupedVGCorrelation(t *testing.T) {
	// Tuples 0,1 share group 0; tuple 2 is group 1. Eval returns the first
	// normal draw scaled by tuple-specific factors, so same-group tuples
	// are perfectly correlated.
	n := 3
	factors := []float64{1, 2, 1}
	vg := &GroupedVG{
		AttrID: 4,
		Group:  []int{0, 0, 1},
		Eval: func(s *rng.Stream, tuple int) float64 {
			return factors[tuple] * s.Norm()
		},
	}
	r := New("g", n)
	if err := r.AddStoch("v", vg); err != nil {
		t.Fatal(err)
	}
	src := rng.NewSource(11)
	for j := 0; j < 50; j++ {
		v0, _ := r.Value(src, "v", 0, j)
		v1, _ := r.Value(src, "v", 1, j)
		v2, _ := r.Value(src, "v", 2, j)
		if math.Abs(v1-2*v0) > 1e-12 {
			t.Fatalf("scenario %d: same-group tuples not correlated: %v vs %v", j, v0, v1)
		}
		if v2 == v0 {
			t.Fatalf("scenario %d: different groups share randomness", j)
		}
	}
}

func TestGroupedVGExactMeans(t *testing.T) {
	vg := &GroupedVG{AttrID: 1, Group: []int{0}, Eval: func(*rng.Stream, int) float64 { return 0 }}
	if !math.IsNaN(vg.ExactMean(0)) {
		t.Fatal("nil Means should report NaN")
	}
	vg.Means = []float64{3.5}
	if vg.ExactMean(0) != 3.5 {
		t.Fatal("Means not used")
	}
}

func TestIndependentVGPerTupleDists(t *testing.T) {
	vg := &IndependentVG{AttrID: 2, Dists: []dist.Dist{
		dist.Degenerate{Value: 1},
		dist.Degenerate{Value: 2},
	}}
	src := rng.NewSource(1)
	if vg.Value(src, 0, 0) != 1 || vg.Value(src, 1, 0) != 2 {
		t.Fatal("per-tuple distributions not honored")
	}
	if vg.ExactMean(1) != 2 {
		t.Fatal("per-tuple exact mean wrong")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	r := newTestRelation(t, 3)
	var sb strings.Builder
	if err := r.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV("back", strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if back.N() != 3 {
		t.Fatalf("N = %d, want 3", back.N())
	}
	orig, _ := r.Det("price")
	got, _ := back.Det("price")
	for i := range orig {
		if orig[i] != got[i] {
			t.Fatalf("price[%d] = %v, want %v", i, got[i], orig[i])
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	if _, err := ReadCSV("x", strings.NewReader("a,b\n1\n")); err == nil {
		t.Fatal("ragged row accepted")
	}
	if _, err := ReadCSV("x", strings.NewReader("a\nnot-a-number\n")); err == nil {
		t.Fatal("non-numeric value accepted")
	}
	if _, err := ReadCSV("x", strings.NewReader("")); err == nil {
		t.Fatal("empty input accepted")
	}
}

func TestReadCSVEmptyBody(t *testing.T) {
	rel, err := ReadCSV("x", strings.NewReader("a,b\n"))
	if err != nil {
		t.Fatal(err)
	}
	if rel.N() != 0 {
		t.Fatalf("N = %d, want 0", rel.N())
	}
}
