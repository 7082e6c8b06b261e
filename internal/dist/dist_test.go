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

// scanIndex is UniformMixture's linear scan over n equal weights, which
// UniformChoice must match: the first i with u < i+1, else the last index.
func scanIndex(u float64, n int) int {
	for i := 0; i < n; i++ {
		if u < float64(i+1) {
			return i
		}
	}
	return n - 1
}

// TestChoiceIndexMatchesScan: the O(1) index picks what the scan picked, for
// sizes 1..16 over 2²⁰ stream draws and at one ulp either side of every
// integer in [0, n], where ⌊u⌋ and the scan's strict comparison could part.
func TestChoiceIndexMatchesScan(t *testing.T) {
	s := rng.NewStream(7)
	for n := 1; n <= 16; n++ {
		values := make([]float64, n)
		for k := range values {
			values[k] = float64(k)
		}
		d := UniformChoice{Values: values}
		for draw := 0; draw < 1<<16; draw++ {
			u := s.Float64() * float64(n)
			if got, want := choiceIndex(u, n), scanIndex(u, n); got != want {
				t.Fatalf("n=%d u=%v: index %d, scan %d", n, u, got, want)
			}
		}
		for k := 0; k <= n; k++ {
			for _, u := range []float64{math.Nextafter(float64(k), -1), float64(k), math.Nextafter(float64(k), math.Inf(1))} {
				if u < 0 {
					continue
				}
				if got, want := choiceIndex(u, n), scanIndex(u, n); got != want {
					t.Fatalf("n=%d u=%v: index %d, scan %d", n, u, got, want)
				}
			}
		}
		for seed := uint64(0); seed < 1000; seed++ {
			sa, sb := rng.NewStream(seed), rng.NewStream(seed)
			if got, want := d.Sample(sa), values[scanIndex(sb.Float64()*float64(n), n)]; got != want {
				t.Fatalf("n=%d seed %d: sample %v, scan %v", n, seed, got, want)
			}
		}
	}
}

// TestParetoAlphaOneMatchesPow: the α = 1 reciprocal equals math.Pow(u, -1)
// bit for bit, on OpenFloat64 draws, on random bit patterns in (0, 1) and on
// the edges of OpenFloat64's range.
func TestParetoAlphaOneMatchesPow(t *testing.T) {
	d := Pareto{Sigma: 1, Alpha: 1}
	check := func(u float64) {
		if got, want := d.tail(u), math.Pow(u, -1/d.Alpha); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("u = %v (%#x): 1/u = %v, Pow = %v", u, math.Float64bits(u), got, want)
		}
	}
	for _, u := range []float64{0x1p-53, 0.5, math.Nextafter(0.5, 1), math.Nextafter(1, 0), math.SmallestNonzeroFloat64, 0x1p-1022, 0x1p-1024} {
		check(u)
	}
	s := rng.NewStream(17)
	for i := 0; i < 10_000_000; i++ {
		check(s.OpenFloat64())
	}
	const below1 = 0x3FF0000000000000 // bits of 1.0; every positive double below it is in (0, 1)
	for i := 0; i < 1_000_000; i++ {
		if b := s.Uint64() % below1; b != 0 {
			check(math.Float64frombits(b))
		}
	}
	// Sample itself: the same draws through Pow and through Sample.
	p := Pareto{Sigma: 3.5, Alpha: 1}
	a, b := rng.NewStream(5), rng.NewStream(5)
	for i := 0; i < 100_000; i++ {
		got, want := p.Sample(a), p.Sigma*math.Pow(b.OpenFloat64(), -1/p.Alpha)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("draw %d: Sample = %v, Pow = %v", i, got, want)
		}
	}
}
