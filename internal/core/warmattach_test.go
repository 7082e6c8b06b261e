package core_test

import (
	"context"
	"testing"

	"spq/internal/core"
	"spq/internal/dist"
	"spq/internal/relation"
	"spq/internal/rng"
	"spq/internal/sketch"
	"spq/internal/spaql"
	"spq/internal/translate"
)

// TestWarmStateAttachedWithoutOption: every evaluation records the latest
// CSA formulation, with no option asking for it, and attaches it exactly to
// an answer a CSA solve produced. A deterministic-only (x(0)) answer, a Naïve
// one and a sketch one carry none.
func TestWarmStateAttachedWithoutOption(t *testing.T) {
	const n = 240
	rel := relation.New("r", n)
	price := make([]float64, n)
	gains := make([]dist.Dist, n)
	for i := range price {
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
	rel.ComputeMeans(rng.NewSource(9), 300)
	build := func(rel *relation.Relation, query string) *translate.SILP {
		t.Helper()
		silp, err := translate.Build(spaql.MustParse(query), rel, nil)
		if err != nil {
			t.Fatal(err)
		}
		return silp
	}
	opts := func() *core.Options {
		return &core.Options{Seed: 3, ValidationM: 1500, InitialM: 10, IncrementM: 10, MaxM: 60}
	}
	const probQuery = `SELECT PACKAGE(*) FROM r SUCH THAT
		SUM(price) <= 300 AND
		SUM(gain) >= -2 WITH PROBABILITY >= 0.95
		MAXIMIZE EXPECTED SUM(gain)`
	head, err := rel.Select(func(i int) bool { return i < 15 })
	if err != nil {
		t.Fatal(err)
	}

	silp := build(head, probQuery)
	sol, err := core.SummarySearch(silp, opts())
	if err != nil || !sol.Feasible {
		t.Fatalf("SummarySearch: %+v err=%v", sol, err)
	}
	w := sol.Warm
	if w == nil {
		t.Fatal("an answer accepted at a CSA solve carries no Warm")
	}
	if len(w.X) != len(sol.X) {
		t.Fatalf("Warm.X has %d entries, the package %d", len(w.X), len(sol.X))
	}
	for i := range sol.X {
		if w.X[i] != sol.X[i] {
			t.Fatalf("Warm.X[%d] = %v, the package holds %v", i, w.X[i], sol.X[i])
		}
	}
	if w.M != sol.M || w.Z != sol.Z {
		t.Fatalf("Warm (M, Z) = (%d, %d), the answer's (%d, %d)", w.M, w.Z, sol.M, sol.Z)
	}
	if len(w.Summaries) != len(silp.ProbCons) {
		t.Fatalf("Warm has %d summary groups for %d probabilistic constraints", len(w.Summaries), len(silp.ProbCons))
	}
	for k, g := range w.Summaries {
		if len(g) != w.Z {
			t.Fatalf("summary group %d holds %d summaries, want Z = %d", k, len(g), w.Z)
		}
	}

	det, err := core.SummarySearch(build(head, `SELECT PACKAGE(*) FROM r SUCH THAT
		SUM(price) <= 300 MAXIMIZE EXPECTED SUM(gain)`), opts())
	if err != nil || !det.Feasible || det.Warm != nil {
		t.Fatalf("deterministic-only answer: feasible %v, Warm %v, err=%v", det != nil && det.Feasible, det != nil && det.Warm != nil, err)
	}
	naive, err := core.Naive(build(head, `SELECT PACKAGE(*) FROM r SUCH THAT
		SUM(price) <= 300 AND
		SUM(gain) >= -10 WITH PROBABILITY >= 0.5
		MAXIMIZE EXPECTED SUM(gain)`), opts())
	if err != nil || !naive.Feasible || naive.Warm != nil {
		t.Fatalf("Naïve answer: feasible %v, Warm %v, err=%v", naive != nil && naive.Feasible, naive != nil && naive.Warm != nil, err)
	}

	// A refine over the candidates (the whole relation) and a fallback to the
	// full problem (the 15-tuple head, under the candidate cap).
	for _, v := range []*relation.Relation{rel, head} {
		sk, stats, err := sketch.SolveSILP(context.Background(), build(v, probQuery), opts(),
			&sketch.Options{GroupSize: 16, MaxCandidates: 64, Seed: 2})
		if err != nil || !sk.Feasible || sk.Warm != nil {
			t.Fatalf("sketch over %d tuples: feasible %v, Warm %v, err=%v", v.N(), sk != nil && sk.Feasible, sk != nil && sk.Warm != nil, err)
		}
		if stats.FellBack != (v == head) {
			t.Fatalf("sketch over %d tuples: fell back %v", v.N(), stats.FellBack)
		}
	}
}
