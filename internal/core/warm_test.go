package core

import (
	"testing"

	"spq/internal/dist"
	"spq/internal/relation"
	"spq/internal/rng"
	"spq/internal/spaql"
	"spq/internal/translate"
)

// warmQuery has a binding probabilistic constraint on the mutablePortfolio
// workload: the unconstrained optimum piles into the high-mean, high-variance
// stocks and fails validation, so SummarySearch runs real CSA iterations and
// converges to a small conservative package — the warm-start state a delta
// re-solve consumes.
const warmQuery = `SELECT PACKAGE(*) FROM stocks SUCH THAT
	SUM(price) <= 300 AND
	SUM(gain) >= -2 WITH PROBABILITY >= 0.95
	MAXIMIZE EXPECTED SUM(gain)`

// mutablePortfolio is portfolioSILP with the relation handle exposed so tests
// can apply deltas between solves, and with gain variance growing with the
// mean so the probabilistic constraint of warmQuery actually binds.
func mutablePortfolio(t *testing.T, n int) *relation.Relation {
	t.Helper()
	rel := relation.New("stocks", n)
	price := make([]float64, n)
	gains := make([]dist.Dist, n)
	for i := 0; i < n; i++ {
		price[i] = float64(40 + 7*(i%9))
		mu := 0.5 + float64(i%5)*0.4
		gains[i] = dist.Normal{Mu: mu, Sigma: 0.3 + 1.8*mu}
	}
	if err := rel.AddDet("price", price); err != nil {
		t.Fatal(err)
	}
	if err := rel.AddStoch("gain", &relation.IndependentVG{AttrID: 1, Dists: gains}); err != nil {
		t.Fatal(err)
	}
	rel.ComputeMeans(rng.NewSource(7), 200)
	return rel
}

func buildSILP(t *testing.T, rel *relation.Relation, query string) *translate.SILP {
	t.Helper()
	silp, err := translate.Build(spaql.MustParse(query), rel, nil)
	if err != nil {
		t.Fatal(err)
	}
	return silp
}

// TestWarmResolveMatchesColdAfterDelta pins the delta re-solve contract: a
// warm re-solve of the previous evaluation's patched summaries, after a
// delta that leaves the optimum in place, converges to the same package —
// hence a bit-identical validation objective — as a cold from-scratch
// evaluation of the post-delta relation, in strictly fewer simplex
// iterations.
func TestWarmResolveMatchesColdAfterDelta(t *testing.T) {
	const n = 15
	rel := mutablePortfolio(t, n)
	pre := rel.Snapshot()

	cold, err := SummarySearch(buildSILP(t, pre, warmQuery), smallOptions(3))
	if err != nil {
		t.Fatal(err)
	}
	if !cold.Feasible {
		t.Fatalf("cold solve infeasible: %+v", cold)
	}
	if cold.Warm == nil {
		t.Fatal("a CSA answer left Solution.Warm nil")
	}

	// Delta: push three non-package tuples far over the budget. The optimum
	// package is untouched, so the warm path must reproduce it exactly.
	price, err := pre.Det("price")
	if err != nil {
		t.Fatal(err)
	}
	patch := map[int]float64{}
	var touched []int
	for i := n - 1; i >= 0 && len(touched) < 3; i-- {
		if cold.X[i] == 0 {
			touched = append(touched, i)
			patch[i] = price[i] + 500
		}
	}
	if len(touched) < 3 {
		t.Fatalf("package covers too much of the relation to perturb around: %v", cold.X)
	}
	if _, err := rel.ApplyDelta(&relation.Delta{Set: map[string]map[int]float64{"price": patch}}); err != nil {
		t.Fatal(err)
	}
	post := rel.Snapshot()

	w := cold.Warm
	w.Touched = touched
	wopts := smallOptions(3)
	wopts.Warm = w
	warm, err := SummarySearch(buildSILP(t, post, warmQuery), wopts)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.WarmResolve {
		t.Fatalf("warm solve fell back to the cold path: %+v", warm.Iterations)
	}
	if warm.Warm == nil {
		t.Fatal("warm re-solve did not chain its own warm state")
	}
	cold2, err := SummarySearch(buildSILP(t, post, warmQuery), smallOptions(3))
	if err != nil {
		t.Fatal(err)
	}
	if !cold2.Feasible {
		t.Fatalf("post-delta cold solve infeasible: %+v", cold2)
	}
	for i := range cold2.X {
		if warm.X[i] != cold2.X[i] {
			t.Fatalf("tuple %d: warm multiplicity %v, cold %v", i, warm.X[i], cold2.X[i])
		}
	}
	if warm.Objective != cold2.Objective {
		t.Fatalf("objective drifted: warm %v, cold %v", warm.Objective, cold2.Objective)
	}
	if warm.LPIters >= cold2.LPIters {
		t.Fatalf("warm re-solve took %d simplex iterations, cold %d", warm.LPIters, cold2.LPIters)
	}
	if warm.MILPSolves >= cold2.MILPSolves {
		t.Fatalf("warm re-solve ran %d MILP solves, cold %d", warm.MILPSolves, cold2.MILPSolves)
	}
}

// TestWarmShapeMismatchFallsBackCold pins the advisory contract: warm state
// that no longer fits the evaluation (here: a package of the wrong length) is
// ignored, and the cold path produces the normal result.
func TestWarmShapeMismatchFallsBackCold(t *testing.T) {
	silp := portfolioSILP(t, 15, easyQuery)
	opts := smallOptions(1)
	opts.Warm = &WarmStart{X: make([]float64, 3), M: 10, Z: 1}
	sol, err := SummarySearch(silp, opts)
	if err != nil {
		t.Fatal(err)
	}
	if sol.WarmResolve {
		t.Fatal("mismatched warm state was not rejected")
	}
	if !sol.Feasible {
		t.Fatalf("cold fallback infeasible: %+v", sol)
	}
}
