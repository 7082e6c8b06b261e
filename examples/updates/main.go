// The updates example drives the mutable-relation surface end to end: a
// portfolio table takes in-place price updates while the engine keeps its
// caches warm. It shows the three delta-scoped maintenance behaviors:
//
//   - a delta outside a query's column footprint retains the cached result
//     (no re-solve at all);
//   - a delta touching a read column invalidates the entry but salvages its
//     warm-start state, so the re-solve starts from the previous package
//     and summaries patched at the touched tuples — fewer simplex
//     iterations than a cold solve. Here the delta leaves the optimum in
//     place, so the answer is bit-identical to a cold solve's; a delta that
//     moves the optimum may settle on another package;
//   - every counter involved is visible in the engine stats (the same
//     numbers spqd serves at /stats and /metrics).
//
// Run with:
//
//	go run ./examples/updates
package main

import (
	"context"
	"fmt"
	"log"
	"math"

	"spq"
)

const query = `SELECT PACKAGE(*) FROM stocks SUCH THAT
	SUM(price) <= 300 AND
	SUM(gain) >= -2 WITH PROBABILITY >= 0.95
	MAXIMIZE EXPECTED SUM(gain)`

func options() *spq.Options {
	return &spq.Options{Seed: 3, ValidationM: 1500, InitialM: 10, IncrementM: 10, MaxM: 60}
}

func main() {
	// A small portfolio whose gain variance grows with the mean: the chance
	// constraint binds, so SummarySearch runs real CSA iterations — the
	// state a warm re-solve shortcuts.
	const n = 15
	rel := spq.NewRelation("stocks", n)
	price := make([]float64, n)
	fee := make([]float64, n)
	gains := make([]spq.Dist, n)
	for i := 0; i < n; i++ {
		price[i] = float64(40 + 7*(i%9))
		fee[i] = float64(i % 4)
		mu := 0.5 + float64(i%5)*0.4
		gains[i] = spq.Normal{Mu: mu, Sigma: 0.3 + 1.8*mu}
	}
	if err := rel.AddDet("price", price); err != nil {
		log.Fatal(err)
	}
	if err := rel.AddDet("fee", fee); err != nil {
		log.Fatal(err)
	}
	if err := rel.AddStoch("gain", &spq.IndependentVG{AttrID: 1, Dists: gains}); err != nil {
		log.Fatal(err)
	}

	db := spq.NewDB()
	if err := db.Register(rel); err != nil {
		log.Fatal(err)
	}
	eng := spq.NewEngine(db, nil)
	ctx := context.Background()

	// 1. Cold solve. The engine caches the result together with its
	// warm-start state (package, summaries, M and Z).
	cold, err := eng.Query(ctx, spq.EngineRequest{Query: query, Options: options()})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("cold solve:    objective %.6g, %d LP iterations, %d MILP solves\n",
		cold.Objective, cold.LPIters, cold.MILPSolves)

	// 2. A delta outside the query's footprint (fee is never read): the
	// cached result is retained — rebased to the new version, zero solving.
	if _, err := eng.ApplyDelta("stocks", &spq.Delta{
		Set: map[string]map[int]float64{"fee": {0: 9, 7: 9}},
	}); err != nil {
		log.Fatal(err)
	}
	retained, err := eng.Query(ctx, spq.EngineRequest{Query: query, Options: options()})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fee delta:     result cache hit = %v (footprint miss, no re-solve)\n",
		retained.ResultCacheHit)

	// 3. A price delta on three tuples outside the package: the entry dies,
	// but its warm state seeds the re-solve.
	patch := map[int]float64{}
	for i := n - 1; i >= 0 && len(patch) < 3; i-- {
		if cold.X[i] == 0 {
			patch[i] = price[i] + 500
		}
	}
	if _, err := eng.ApplyDelta("stocks", &spq.Delta{
		Set: map[string]map[int]float64{"price": patch},
	}); err != nil {
		log.Fatal(err)
	}
	warm, err := eng.Query(ctx, spq.EngineRequest{Query: query, Options: options()})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("price delta:   warm re-solve = %v, objective %.6g, %d LP iterations, %d MILP solves\n",
		warm.WarmResolve, warm.Objective, warm.LPIters, warm.MILPSolves)

	// 4. Referee: a cold solve of the post-delta relation. With the optimum
	// left in place, the warm re-solve must reach the same answer bit for
	// bit, in strictly less work.
	coldEng := spq.NewEngine(db, &spq.EngineOptions{ResultCacheSize: -1})
	ref, err := coldEng.Query(ctx, spq.EngineRequest{Query: query, Options: options()})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("cold referee:  objective %.6g, %d LP iterations, %d MILP solves\n",
		ref.Objective, ref.LPIters, ref.MILPSolves)

	if math.Float64bits(warm.Objective) != math.Float64bits(ref.Objective) {
		log.Fatalf("warm objective %v != cold %v", warm.Objective, ref.Objective)
	}
	if !warm.WarmResolve || warm.LPIters >= ref.LPIters || warm.MILPSolves >= ref.MILPSolves {
		log.Fatalf("warm re-solve did not beat cold: %d/%d LP iterations, %d/%d MILP solves",
			warm.LPIters, ref.LPIters, warm.MILPSolves, ref.MILPSolves)
	}
	fmt.Printf("\nwarm re-solve is bit-identical to cold at %d/%d the simplex iterations\n",
		warm.LPIters, ref.LPIters)

	st := eng.Stats()
	fmt.Printf("\nengine counters: deltas=%d retained=%d invalidated=%d plans_rebased=%d warm_resolves=%d\n",
		st.DeltasApplied, st.ResultsRetained, st.ResultsInvalidated, st.PlansRebased, st.WarmResolves)
	ds := spq.DeltaStats()
	fmt.Printf("relation counters: cells_patched=%d versions=%d\n", ds.CellsPatched, ds.DeltasApplied)
}
