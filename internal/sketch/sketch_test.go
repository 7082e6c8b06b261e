package sketch

import (
	"context"
	"testing"

	"spq/internal/core"
	"spq/internal/dist"
	"spq/internal/relation"
	"spq/internal/rng"
	"spq/internal/spaql"
	"spq/internal/translate"
)

// sketchRelation builds a relation with two value tiers so the sketch can
// prune confidently: cheap low-gain tuples and pricey high-gain tuples.
func sketchRelation(t *testing.T, n int) *relation.Relation {
	t.Helper()
	rel := relation.New("r", n)
	price := make([]float64, n)
	dists := make([]dist.Dist, n)
	for i := 0; i < n; i++ {
		tier := i % 4
		price[i] = 20 + 10*float64(tier)
		dists[i] = dist.Normal{Mu: 0.2 + 0.5*float64(tier), Sigma: 0.6}
	}
	if err := rel.AddDet("price", price); err != nil {
		t.Fatal(err)
	}
	if err := rel.AddStoch("gain", &relation.IndependentVG{AttrID: 1, Dists: dists}); err != nil {
		t.Fatal(err)
	}
	rel.ComputeMeans(rng.NewSource(9), 300)
	return rel
}

func coreOpts() *core.Options {
	return &core.Options{Seed: 1, ValidationM: 800, InitialM: 10, IncrementM: 10, MaxM: 40, FixedZ: 1}
}

// solveQuery lowers q against rel and runs the sketch pipeline on it.
func solveQuery(q *spaql.Query, rel *relation.Relation, copts *core.Options, sopts *Options) (*core.Solution, *Stats, error) {
	silp, err := translate.Build(q, rel, nil)
	if err != nil {
		return nil, nil, err
	}
	return SolveSILP(context.Background(), silp, copts, sopts)
}

const sketchQuery = `SELECT PACKAGE(*) FROM r SUCH THAT
	SUM(price) <= 200 AND
	SUM(gain) >= -4 WITH PROBABILITY >= 0.8
	MAXIMIZE EXPECTED SUM(gain)`

func TestSketchSolveFeasibleAndValid(t *testing.T) {
	rel := sketchRelation(t, 240)
	q := spaql.MustParse(sketchQuery)
	sol, stats, err := solveQuery(q, rel, coreOpts(), &Options{GroupSize: 16, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Feasible {
		t.Fatalf("sketch-refine infeasible: %+v", sol.Surpluses)
	}
	if stats.FellBack {
		t.Fatal("should not have fallen back on an easy instance")
	}
	if stats.Groups < 240/16 {
		t.Fatalf("groups = %d, want ≥ %d", stats.Groups, 240/16)
	}
	if stats.Candidates >= 240 {
		t.Fatalf("refine candidates %d show no pruning", stats.Candidates)
	}
	// Budget holds on the returned package.
	price, _ := rel.Det("price")
	total := 0.0
	for i, x := range sol.X {
		total += price[i] * x
	}
	if total > 200+1e-9 {
		t.Fatalf("budget violated: %v", total)
	}
}

func TestSketchSmallInstanceFallsBack(t *testing.T) {
	rel := sketchRelation(t, 30)
	q := spaql.MustParse(sketchQuery)
	sol, stats, err := solveQuery(q, rel, coreOpts(), &Options{GroupSize: 16, MaxCandidates: 64})
	if err != nil {
		t.Fatal(err)
	}
	if !stats.FellBack {
		t.Fatal("small instance should solve directly")
	}
	if !sol.Feasible {
		t.Fatal("direct solve infeasible")
	}
}

func TestSketchQualityCloseToDirect(t *testing.T) {
	rel := sketchRelation(t, 160)
	q := spaql.MustParse(sketchQuery)
	skSol, _, err := solveQuery(q, rel, coreOpts(), &Options{GroupSize: 16, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Direct SummarySearch for comparison.
	silp, err := buildDirect(q, rel)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := core.SummarySearch(silp, coreOpts())
	if err != nil {
		t.Fatal(err)
	}
	if !skSol.Feasible || !direct.Feasible {
		t.Fatalf("feasibility: sketch=%v direct=%v", skSol.Feasible, direct.Feasible)
	}
	// Pruning may cost some objective but not be absurd (maximization).
	if skSol.Objective < direct.Objective*0.3 {
		t.Fatalf("sketch objective %v collapsed vs direct %v", skSol.Objective, direct.Objective)
	}
}

func TestSketchInfeasibleQueryReported(t *testing.T) {
	rel := sketchRelation(t, 160)
	q := spaql.MustParse(`SELECT PACKAGE(*) FROM r SUCH THAT
		SUM(price) <= 100 AND
		SUM(gain) >= 500 WITH PROBABILITY >= 0.9
		MAXIMIZE EXPECTED SUM(gain)`)
	opts := coreOpts()
	opts.MaxM = 20
	sol, stats, err := solveQuery(q, rel, opts, &Options{GroupSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Feasible {
		t.Fatal("impossible query reported feasible")
	}
	if !stats.FellBack {
		t.Fatal("infeasible sketch should trigger full-problem fallback")
	}
}

func TestSketchWithWhereClause(t *testing.T) {
	rel := sketchRelation(t, 200)
	q := spaql.MustParse(`SELECT PACKAGE(*) FROM r WHERE price <= 35 SUCH THAT
		SUM(price) <= 150 AND
		SUM(gain) >= -4 WITH PROBABILITY >= 0.7
		MAXIMIZE EXPECTED SUM(gain)`)
	sol, _, err := solveQuery(q, rel, coreOpts(), &Options{GroupSize: 8, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Feasible {
		t.Fatal("filtered sketch query infeasible")
	}
	// X indexes the WHERE view (price ≤ 40: tiers 0 and 1 → n/2 tuples).
	if len(sol.X) != 100 {
		t.Fatalf("solution over %d tuples, want 100 (WHERE view)", len(sol.X))
	}
}

// buildDirect lowers the query for a direct (non-sketch) solve.
func buildDirect(q *spaql.Query, rel *relation.Relation) (*translate.SILP, error) {
	return translate.Build(q, rel, nil)
}
