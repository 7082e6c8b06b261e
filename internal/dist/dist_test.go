package dist

import (
	"math"
	"testing"

	"spq/internal/rng"
)

// sampleStats draws n variates and returns the empirical mean and variance.
func sampleStats(d Dist, n int, seed uint64) (mean, variance float64) {
	s := rng.NewStream(seed)
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := d.Sample(s)
		sum += v
		sumSq += v * v
	}
	mean = sum / float64(n)
	variance = sumSq/float64(n) - mean*mean
	return mean, variance
}

func TestMeansMatchSampling(t *testing.T) {
	cases := []struct {
		name string
		d    Dist
		tol  float64
	}{
		{"normal", Normal{Mu: 2, Sigma: 1.5}, 0.05},
		{"uniform", Uniform{Lo: -1, Hi: 3}, 0.05},
		{"exponential", Exponential{Lambda: 2, Loc: -0.5}, 0.05},
		{"pareto", Pareto{Sigma: 1, Alpha: 3}, 0.1},
		{"poisson", Poisson{Lambda: 2, Loc: -2}, 0.05},
		{"studentt", StudentT{Nu: 5, Loc: 1, Scale: 2}, 0.1},
		{"degenerate", Degenerate{Value: 4.25}, 0},
		{"shifted", Shifted{Off: 10, D: Normal{Mu: -1, Sigma: 1}}, 0.05},
		{"mixture", UniformMixture(Degenerate{Value: 1}, Degenerate{Value: 3}), 0.05},
	}
	for _, c := range cases {
		mean, _ := sampleStats(c.d, 200000, 0xfeed)
		want := c.d.Mean()
		if math.IsNaN(want) {
			t.Fatalf("%s: Mean() is NaN", c.name)
		}
		if math.Abs(mean-want) > c.tol {
			t.Errorf("%s: sample mean %.4f, closed-form %.4f", c.name, mean, want)
		}
	}
}

func TestHeavyTailsReportNaNMean(t *testing.T) {
	if !math.IsNaN((Pareto{Sigma: 1, Alpha: 1}).Mean()) {
		t.Error("Pareto α=1 should have NaN mean (infinite)")
	}
	if !math.IsNaN((StudentT{Nu: 1, Loc: 0, Scale: 1}).Mean()) {
		t.Error("StudentT ν=1 should have NaN mean (undefined)")
	}
	if !math.IsNaN((Shifted{Off: 5, D: Pareto{Sigma: 1, Alpha: 1}}).Mean()) {
		t.Error("Shifted heavy tail should propagate NaN")
	}
}

func TestNormalVariance(t *testing.T) {
	_, v := sampleStats(Normal{Mu: 0, Sigma: 2}, 200000, 0xbeef)
	if math.Abs(v-4) > 0.2 {
		t.Errorf("variance %.3f, want ~4", v)
	}
}

func TestGBMPathAndMean(t *testing.T) {
	g := GBM{S0: 100, Mu: 0.08, Sigma: 0.3, Dt: 1.0 / 252}
	// Monte Carlo mean of the h-step price must match MeanAt(h).
	const h, n = 5, 100000
	sum := 0.0
	path := make([]float64, h)
	for i := 0; i < n; i++ {
		st := rng.NewStream(uint64(i) + 1)
		g.Path(st, path)
		sum += path[h-1]
	}
	got := sum / n
	want := g.MeanAt(h)
	if math.Abs(got-want)/want > 0.01 {
		t.Errorf("GBM %d-step mean %.3f, want %.3f", h, got, want)
	}
	// Prices must stay positive and the path must be a single trajectory.
	st := rng.NewStream(9)
	g.Path(st, path)
	for i, p := range path {
		if p <= 0 {
			t.Fatalf("non-positive price %v at step %d", p, i)
		}
	}
}

func TestPoissonNonNegativeCounts(t *testing.T) {
	d := Poisson{Lambda: 1}
	s := rng.NewStream(1)
	for i := 0; i < 1000; i++ {
		v := d.Sample(s)
		if v < 0 || v != math.Trunc(v) {
			t.Fatalf("Poisson sample %v is not a nonnegative integer", v)
		}
	}
}

// TestSamplingIsCoordinatePure asserts the property the whole engine relies
// on: the same stream seed yields the same variate.
func TestSamplingIsCoordinatePure(t *testing.T) {
	ds := []Dist{
		Normal{Mu: 1, Sigma: 2},
		Pareto{Sigma: 1, Alpha: 1},
		StudentT{Nu: 2, Loc: 0, Scale: 1},
		UniformMixture(Normal{Mu: 0, Sigma: 1}, Uniform{Lo: 0, Hi: 1}),
	}
	for _, d := range ds {
		a := d.Sample(rng.NewStream(0x123))
		b := d.Sample(rng.NewStream(0x123))
		if a != b {
			t.Fatalf("%T: same seed, different samples (%v vs %v)", d, a, b)
		}
	}
}

// TestUniformChoiceMatchesMixture: a flat UniformChoice samples and averages
// bit for bit like UniformMixture of Degenerate components, for D ∈ {3, 10}
// over many streams, with values that include −0 and ±Inf. (Which of two
// NaN operands a sum returns is the compiler's operand order, so none is
// given.)
func TestUniformChoiceMatchesMixture(t *testing.T) {
	src := rng.NewStream(99)
	for _, d := range []int{3, 10} {
		for trial := 0; trial < 200; trial++ {
			values := make([]float64, d)
			comps := make([]Dist, d)
			for k := range values {
				values[k] = src.Norm() * 100
				switch src.IntN(20) {
				case 0:
					values[k] = math.Copysign(0, -1)
				case 1:
					values[k] = math.Inf(1 - 2*src.IntN(2))
				}
				comps[k] = Degenerate{Value: values[k]}
			}
			flat, mix := UniformChoice{Values: values}, UniformMixture(comps...)
			if a, b := flat.Mean(), mix.Mean(); math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("D=%d trial %d: mean %v, mixture %v", d, trial, a, b)
			}
			for seed := uint64(0); seed < 50; seed++ {
				sa, sb := rng.NewStream(seed*7919+uint64(trial)), rng.NewStream(seed*7919+uint64(trial))
				if a, b := flat.Sample(sa), mix.Sample(sb); math.Float64bits(a) != math.Float64bits(b) {
					t.Fatalf("D=%d trial %d seed %d: sample %v, mixture %v", d, trial, seed, a, b)
				}
			}
		}
	}
}
