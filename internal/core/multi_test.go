package core

import (
	"context"
	"math"
	"testing"

	"spq/internal/dist"
	"spq/internal/relation"
	"spq/internal/rng"
	"spq/internal/spaql"
	"spq/internal/translate"
)

// multiSILP builds a relation with two independent stochastic attributes so
// queries can carry K=2 probabilistic constraints (the paper's experiments
// all have one probabilistic + one deterministic constraint; K>1 exercises
// the per-constraint α vector of CSA-Solve).
func multiSILP(t *testing.T, query string) *translate.SILP {
	t.Helper()
	const n = 14
	rel := relation.New("assets", n)
	cost := make([]float64, n)
	gainD := make([]dist.Dist, n)
	riskD := make([]dist.Dist, n)
	for i := 0; i < n; i++ {
		cost[i] = float64(20 + 5*(i%5))
		gainD[i] = dist.Normal{Mu: 0.5 + 0.3*float64(i%4), Sigma: 1}
		riskD[i] = dist.Exponential{Lambda: 1 / (0.5 + 0.1*float64(i%3))}
	}
	if err := rel.AddDet("cost", cost); err != nil {
		t.Fatal(err)
	}
	if err := rel.AddStoch("gain", &relation.IndependentVG{AttrID: 1, Dists: gainD}); err != nil {
		t.Fatal(err)
	}
	if err := rel.AddStoch("risk", &relation.IndependentVG{AttrID: 2, Dists: riskD}); err != nil {
		t.Fatal(err)
	}
	rel.ComputeMeans(rng.NewSource(5), 300)
	q := spaql.MustParse(query)
	silp, err := translate.Build(q, rel, nil)
	if err != nil {
		t.Fatal(err)
	}
	return silp
}

const twoConQuery = `SELECT PACKAGE(*) FROM assets SUCH THAT
	SUM(cost) <= 150 AND
	SUM(gain) >= -3 WITH PROBABILITY >= 0.75 AND
	SUM(risk) <= 12 WITH PROBABILITY >= 0.8
	MAXIMIZE EXPECTED SUM(gain)`

func TestTwoProbabilisticConstraintsSummarySearch(t *testing.T) {
	silp := multiSILP(t, twoConQuery)
	if len(silp.ProbCons) != 2 {
		t.Fatalf("got %d prob constraints", len(silp.ProbCons))
	}
	// Directions differ: gain uses Min (≥), risk uses Max (≤).
	if silp.ProbCons[0].Direction() != 0 || silp.ProbCons[1].Direction() != 1 {
		t.Fatalf("directions: %v %v", silp.ProbCons[0].Direction(), silp.ProbCons[1].Direction())
	}
	sol, err := SummarySearch(silp, smallOptions(3))
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Feasible {
		t.Fatalf("two-constraint query infeasible: surpluses %v", sol.Surpluses)
	}
	if len(sol.Surpluses) != 2 {
		t.Fatalf("got %d surpluses", len(sol.Surpluses))
	}
	for k, s := range sol.Surpluses {
		if s < 0 {
			t.Fatalf("constraint %d violated: surplus %v", k, s)
		}
	}
}

func TestTwoProbabilisticConstraintsNaive(t *testing.T) {
	silp := multiSILP(t, twoConQuery)
	sol, err := Naive(silp, smallOptions(3))
	if err != nil {
		t.Fatal(err)
	}
	if sol.Feasible {
		for _, s := range sol.Surpluses {
			if s < 0 {
				t.Fatalf("feasible flag contradicts surpluses %v", sol.Surpluses)
			}
		}
	}
}

func TestConfidenceIntervalsPopulated(t *testing.T) {
	silp := multiSILP(t, twoConQuery)
	opts := smallOptions(1)
	opts.ValidationM = 4000
	r := newRunner(context.Background(), silp, opts)
	x := make([]float64, silp.N)
	x[0] = 1
	val, err := r.validate(x)
	if err != nil {
		t.Fatal(err)
	}
	if len(val.CIHalf) != 2 {
		t.Fatalf("got %d CI half-widths", len(val.CIHalf))
	}
	for k, h := range val.CIHalf {
		if h < 0 || h > 0.02 {
			t.Fatalf("CI half-width %d = %v implausible for M̂=4000", k, h)
		}
	}
	// The half-width shrinks as M̂ grows (∝ 1/√M̂).
	opts2 := smallOptions(1)
	opts2.ValidationM = 1000
	r2 := newRunner(context.Background(), silp, opts2)
	val2, err := r2.validate(x)
	if err != nil {
		t.Fatal(err)
	}
	for k := range val.CIHalf {
		// Fractions at the boundary (0 or 1) give zero width on both.
		if val2.CIHalf[k] == 0 && val.CIHalf[k] == 0 {
			continue
		}
		if val.CIHalf[k] >= val2.CIHalf[k]+1e-12 {
			t.Fatalf("CI did not shrink with larger M̂: %v vs %v", val.CIHalf[k], val2.CIHalf[k])
		}
	}
}

func TestSolutionCarriesCIHalf(t *testing.T) {
	silp := multiSILP(t, twoConQuery)
	sol, err := SummarySearch(silp, smallOptions(2))
	if err != nil {
		t.Fatal(err)
	}
	if sol.X != nil && len(sol.SurplusCIHalf) != len(sol.Surpluses) {
		t.Fatalf("CI half-widths %d != surpluses %d", len(sol.SurplusCIHalf), len(sol.Surpluses))
	}
}

func TestValidationScenariosSharedAcrossRuns(t *testing.T) {
	// Two runners with different optimization seeds but the same validation
	// seed must agree on the validation verdict for the same package.
	silp := multiSILP(t, twoConQuery)
	x := make([]float64, silp.N)
	x[1], x[5] = 2, 1
	o1 := smallOptions(1)
	o2 := smallOptions(99)
	v1, err := newRunner(context.Background(), silp, o1).validate(x)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := newRunner(context.Background(), silp, o2).validate(x)
	if err != nil {
		t.Fatal(err)
	}
	for k := range v1.Surpluses {
		if math.Abs(v1.Surpluses[k]-v2.Surpluses[k]) > 1e-15 {
			t.Fatalf("validation differs across optimization seeds: %v vs %v", v1.Surpluses, v2.Surpluses)
		}
	}
}

func TestMaskedConstraintEndToEnd(t *testing.T) {
	// The probabilistic constraint ranges only over high-cost tuples; a
	// package of low-cost tuples satisfies it vacuously.
	q := `SELECT PACKAGE(*) AS P FROM assets SUCH THAT
		COUNT(*) BETWEEN 1 AND 4 AND
		(SELECT SUM(risk) WHERE cost >= 40 FROM P) <= 0.5 WITH PROBABILITY >= 0.9
		MAXIMIZE EXPECTED SUM(gain)`
	silp := multiSILP(t, q)
	sol, err := SummarySearch(silp, smallOptions(4))
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Feasible {
		t.Fatalf("masked-constraint query infeasible: %v", sol.Surpluses)
	}
	// Risk (Exponential) is positive, so any included high-cost tuple
	// violates SUM(risk) ≤ 0.5 with probability ~1: the package must avoid
	// cost ≥ 40 tuples entirely.
	cost, _ := silp.Rel.Det("cost")
	for i, x := range sol.X {
		if x > 0 && cost[i] >= 40 {
			t.Fatalf("package contains high-cost tuple %d (cost %v) that breaks the masked constraint", i, cost[i])
		}
	}
}
