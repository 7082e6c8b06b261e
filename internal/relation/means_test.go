package relation_test

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"spq/internal/dist"
	"spq/internal/relation"
	"spq/internal/rng"
	"spq/internal/workload"
)

// perValueMeans is the mean precomputation as a per-value loop: a column
// with a closed form for every tuple takes it; any other column starts at 0,
// adds Value(t, j) for scenarios j ascending and scales by 1/sampleM.
func perValueMeans(t *testing.T, r *relation.Relation, src rng.Source, attr string, sampleM int) []float64 {
	t.Helper()
	vg, err := r.VG(attr)
	if err != nil {
		t.Fatal(err)
	}
	col := make([]float64, r.N())
	exact := true
	for i := range col {
		col[i] = vg.ExactMean(i)
		if math.IsNaN(col[i]) {
			exact = false
			break
		}
	}
	if exact {
		return col
	}
	for i := range col {
		col[i] = 0
	}
	for j := 0; j < sampleM; j++ {
		for i := range col {
			col[i] += vg.Value(src, i, j)
		}
	}
	inv := 1 / float64(sampleM)
	for i := range col {
		col[i] *= inv
	}
	return col
}

// assertMeansMatchPerValue runs ComputeMeans and compares every stochastic
// attribute's means with the per-value loop's bit for bit.
func assertMeansMatchPerValue(t *testing.T, label string, r *relation.Relation, src rng.Source, sampleM int) {
	t.Helper()
	r.ComputeMeans(src, sampleM)
	for _, name := range r.StochNames() {
		got, err := r.Means(name)
		if err != nil {
			t.Fatal(err)
		}
		want := perValueMeans(t, r, src, name, sampleM)
		if len(got) != len(want) {
			t.Fatalf("%s: %s has %d means, want %d", label, name, len(got), len(want))
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s: %s tuple %d: ComputeMeans %v, per-value %v", label, name, i, got[i], want[i])
			}
		}
	}
}

// foreignVG is a VGFunc from outside package relation: it has no row method,
// so the row kernel falls back to one Value call per scenario.
type foreignVG struct{}

func (foreignVG) Value(src rng.Source, tuple, scenario int) float64 {
	return rng.NewStream(src.SeedAt(99, uint64(tuple), uint64(scenario))).Float64() * float64(tuple+1)
}

func (foreignVG) ExactMean(int) float64 { return math.NaN() }

// meansTestRelation has every estimated VG kind: a broadcast Pareto α = 1,
// a per-tuple mix of Pareto α = 1 and α = 2.5 (one NaN mean makes the whole
// column estimated), a GroupedVG without Means and a foreign VGFunc, next
// to a closed-form attribute.
func meansTestRelation(t *testing.T, n int) *relation.Relation {
	t.Helper()
	r := relation.New("m", n)
	mixed := make([]dist.Dist, n)
	group := make([]int, n)
	for i := range mixed {
		if i%3 == 0 {
			mixed[i] = dist.Pareto{Sigma: 1, Alpha: 1}
		} else {
			mixed[i] = dist.Pareto{Sigma: float64(i), Alpha: 2.5}
		}
		group[i] = i / 4
	}
	add := func(name string, vg relation.VGFunc) {
		if err := r.AddStoch(name, vg); err != nil {
			t.Fatal(err)
		}
	}
	add("normal", &relation.IndependentVG{AttrID: 1, Dists: []dist.Dist{dist.Normal{Mu: 2, Sigma: 1}}})
	add("heavy", &relation.IndependentVG{AttrID: 2, Dists: []dist.Dist{dist.Pareto{Sigma: 2, Alpha: 1}}})
	add("mixed", &relation.IndependentVG{AttrID: 3, Dists: mixed})
	add("path", &relation.GroupedVG{AttrID: 4, Group: group, Eval: func(s *rng.Stream, tuple int) float64 {
		return s.Norm()*float64(tuple%3+1) + s.Float64()
	}})
	add("foreign", foreignVG{})
	return r
}

// TestComputeMeansMatchesPerValue: means estimated through the sharded row
// kernel equal the per-value loop's bit for bit, for every VG kind, for
// scenario counts on both sides of the kernel's chunk, for tuple counts that
// do not divide by the worker count, and at several GOMAXPROCS.
func TestComputeMeansMatchesPerValue(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	src := rng.NewSource(31)
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		for _, n := range []int{1, 13} {
			for _, m := range []int{1, 255, 256, 257, 700} {
				label := fmt.Sprintf("procs=%d n=%d m=%d", procs, n, m)
				base := meansTestRelation(t, n)
				assertMeansMatchPerValue(t, label+" base", base, src, m)
				if n < 3 {
					continue
				}
				view, err := base.SelectIndices([]int{0, 2, n - 1})
				if err != nil {
					t.Fatal(err)
				}
				assertMeansMatchPerValue(t, label+" view", view, src, m)
				if _, err := base.ApplyDelta(&relation.Delta{Delete: []int{1, n - 2}}); err != nil {
					t.Fatal(err)
				}
				assertMeansMatchPerValue(t, label+" after delete", base, src, m)
			}
		}
	}
}

// TestComputeMeansMatchesPerValueOnWorkloads: every table of small Galaxy,
// TPC-H and Portfolio instances gets the per-value loop's means.
func TestComputeMeansMatchesPerValueOnWorkloads(t *testing.T) {
	cfg := workload.Config{N: 60, Seed: 3, MeansM: 20}
	src := rng.NewSource(11)
	for _, inst := range []*workload.Instance{workload.Galaxy(cfg), workload.TPCH(cfg), workload.Portfolio(cfg)} {
		for _, name := range inst.TableNames() {
			assertMeansMatchPerValue(t, inst.Name+"/"+name, inst.Tables[name], src, 300)
		}
	}
}
