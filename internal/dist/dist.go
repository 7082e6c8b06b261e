// Package dist provides the samplable distributions behind VG functions in
// the Monte Carlo data model (§2.2): each distribution draws variates from a
// deterministic rng.Stream, so a realization is a pure function of the
// substream it is handed. Distributions also expose their closed-form mean
// when one exists (NaN otherwise), which feeds the §3.2 precomputation of
// expected attribute values; heavy-tailed laws without a finite mean (e.g.
// Pareto with α ≤ 1) report NaN so callers fall back to scenario-average
// estimation.
package dist

import (
	"math"

	"spq/internal/rng"
)

// Dist is a samplable univariate distribution.
type Dist interface {
	// Sample draws one variate from the stream.
	Sample(s *rng.Stream) float64
	// Mean returns the closed-form expectation, or NaN when none exists
	// (undefined or infinite mean, or no closed form).
	Mean() float64
}

// Normal is the Gaussian distribution N(Mu, Sigma²).
type Normal struct {
	Mu    float64
	Sigma float64
}

// Sample implements Dist.
func (d Normal) Sample(s *rng.Stream) float64 { return d.Mu + d.Sigma*s.Norm() }

// Mean implements Dist.
func (d Normal) Mean() float64 { return d.Mu }

// Uniform is the continuous uniform distribution on [Lo, Hi).
type Uniform struct {
	Lo float64
	Hi float64
}

// Sample implements Dist.
func (d Uniform) Sample(s *rng.Stream) float64 { return d.Lo + (d.Hi-d.Lo)*s.Float64() }

// Mean implements Dist.
func (d Uniform) Mean() float64 { return (d.Lo + d.Hi) / 2 }

// Exponential is the exponential distribution with rate Lambda, shifted by
// Loc: X = Loc + Exp(Lambda).
type Exponential struct {
	Lambda float64
	Loc    float64
}

// Sample implements Dist.
func (d Exponential) Sample(s *rng.Stream) float64 { return d.Loc + s.Exp()/d.Lambda }

// Mean implements Dist.
func (d Exponential) Mean() float64 { return d.Loc + 1/d.Lambda }

// Pareto is the Pareto type-I distribution with scale Sigma (minimum value)
// and shape Alpha.
type Pareto struct {
	Sigma float64
	Alpha float64
}

// Sample implements Dist (inverse CDF).
func (d Pareto) Sample(s *rng.Stream) float64 {
	return d.Sigma * math.Pow(s.OpenFloat64(), -1/d.Alpha)
}

// Mean implements Dist. The mean is infinite for Alpha ≤ 1; NaN is returned
// so callers estimate it by scenario averaging instead.
func (d Pareto) Mean() float64 {
	if d.Alpha <= 1 {
		return math.NaN()
	}
	return d.Alpha * d.Sigma / (d.Alpha - 1)
}

// Poisson is the Poisson distribution with rate Lambda, shifted by Loc.
type Poisson struct {
	Lambda float64
	Loc    float64
}

// Sample implements Dist. Knuth's product method suffices for the small
// rates the workloads use; large rates fall back to a normal approximation.
func (d Poisson) Sample(s *rng.Stream) float64 {
	if d.Lambda > 30 {
		k := math.Round(d.Lambda + math.Sqrt(d.Lambda)*s.Norm())
		if k < 0 {
			k = 0
		}
		return d.Loc + k
	}
	limit := math.Exp(-d.Lambda)
	k, p := 0, 1.0
	for {
		p *= s.Float64()
		if p <= limit {
			return d.Loc + float64(k)
		}
		k++
	}
}

// Mean implements Dist.
func (d Poisson) Mean() float64 { return d.Loc + d.Lambda }

// StudentT is Student's t distribution with Nu degrees of freedom, located at
// Loc and scaled by Scale.
type StudentT struct {
	Nu    float64
	Loc   float64
	Scale float64
}

// Sample implements Dist: T = Z / sqrt(χ²_ν / ν).
func (d StudentT) Sample(s *rng.Stream) float64 {
	z := s.Norm()
	chi2 := 2 * sampleGamma(s, d.Nu/2)
	return d.Loc + d.Scale*z/math.Sqrt(chi2/d.Nu)
}

// Mean implements Dist. The mean is undefined for Nu ≤ 1.
func (d StudentT) Mean() float64 {
	if d.Nu <= 1 {
		return math.NaN()
	}
	return d.Loc
}

// sampleGamma draws from Gamma(shape, 1) with the Marsaglia–Tsang method,
// boosting shapes below 1.
func sampleGamma(s *rng.Stream, shape float64) float64 {
	if shape < 1 {
		// Gamma(a) = Gamma(a+1) · U^(1/a).
		return sampleGamma(s, shape+1) * math.Pow(s.OpenFloat64(), 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		x := s.Norm()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := s.OpenFloat64()
		if u < 1-0.0331*x*x*x*x || math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v
		}
	}
}

// GBM is a geometric Brownian motion price process with initial price S0,
// annualized drift Mu and volatility Sigma, advanced in time steps of Dt
// years. As a Dist it is the one-step marginal (the price after Dt).
type GBM struct {
	S0    float64
	Mu    float64
	Sigma float64
	Dt    float64
}

// step advances one price by a single Dt increment.
func (d GBM) step(price float64, z float64) float64 {
	return price * math.Exp((d.Mu-0.5*d.Sigma*d.Sigma)*d.Dt+d.Sigma*math.Sqrt(d.Dt)*z)
}

// Path fills path with the price after 1, 2, …, len(path) steps of one
// realized trajectory, consuming one normal variate per step from st.
func (d GBM) Path(st *rng.Stream, path []float64) {
	price := d.S0
	for i := range path {
		price = d.step(price, st.Norm())
		path[i] = price
	}
}

// MeanAt returns the expected price after h steps: S0·exp(Mu·h·Dt).
func (d GBM) MeanAt(h int) float64 { return d.S0 * math.Exp(d.Mu*float64(h)*d.Dt) }

// Sample implements Dist (the one-step price).
func (d GBM) Sample(s *rng.Stream) float64 { return d.step(d.S0, s.Norm()) }

// Mean implements Dist (the one-step expected price).
func (d GBM) Mean() float64 { return d.MeanAt(1) }

// Degenerate is a point mass at Value.
type Degenerate struct {
	Value float64
}

// Sample implements Dist.
func (d Degenerate) Sample(s *rng.Stream) float64 { return d.Value }

// Mean implements Dist.
func (d Degenerate) Mean() float64 { return d.Value }

// Shifted offsets another distribution by the constant Off.
type Shifted struct {
	Off float64
	D   Dist
}

// Sample implements Dist.
func (d Shifted) Sample(s *rng.Stream) float64 { return d.Off + d.D.Sample(s) }

// Mean implements Dist (NaN propagates from the underlying mean).
func (d Shifted) Mean() float64 { return d.Off + d.D.Mean() }

// Mixture is a finite mixture distribution: a component is chosen by weight,
// then sampled. Weights need not be normalized; they must be nonnegative
// with a positive sum.
type Mixture struct {
	Components []Dist
	Weights    []float64
}

// UniformMixture builds an equal-weight mixture — the data-integration model
// for D equally trusted sources (§6.1).
func UniformMixture(components ...Dist) Mixture {
	w := make([]float64, len(components))
	for i := range w {
		w[i] = 1
	}
	return Mixture{Components: components, Weights: w}
}

// Sample implements Dist.
func (d Mixture) Sample(s *rng.Stream) float64 {
	total := 0.0
	for _, w := range d.Weights {
		total += w
	}
	u := s.Float64() * total
	acc := 0.0
	for i, w := range d.Weights {
		acc += w
		if u < acc {
			return d.Components[i].Sample(s)
		}
	}
	return d.Components[len(d.Components)-1].Sample(s)
}

// Mean implements Dist: the weighted average of component means (NaN when
// any component lacks one).
func (d Mixture) Mean() float64 {
	total, acc := 0.0, 0.0
	for i, w := range d.Weights {
		total += w
		acc += w * d.Components[i].Mean()
	}
	return acc / total
}

// UniformChoice picks one of Values uniformly at random. It samples and
// averages bit for bit like UniformMixture of Degenerate{v} for each v in
// Values — the same single Float64 draw, the same comparisons, the same
// mean fold — but holds the values flat instead of one boxed Dist each.
// Values must not be empty.
type UniformChoice struct {
	Values []float64
}

// Sample implements Dist.
func (d UniformChoice) Sample(s *rng.Stream) float64 {
	u := s.Float64() * float64(len(d.Values))
	for i, v := range d.Values {
		if u < float64(i+1) {
			return v
		}
	}
	return d.Values[len(d.Values)-1]
}

// Mean implements Dist.
func (d UniformChoice) Mean() float64 {
	acc := 0.0
	for _, v := range d.Values {
		acc += v
	}
	return acc / float64(len(d.Values))
}
