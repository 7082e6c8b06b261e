package sketch

import (
	"testing"
	"time"

	"spq/internal/core"
	"spq/internal/dist"
	"spq/internal/relation"
	"spq/internal/rng"
	"spq/internal/spaql"
)

// benchRelation builds a continuous-valued relation at benchmark scale with
// means precomputed once (partitioning is cached per relation version, so
// each iteration re-solves but never re-clusters — the serving-path
// behaviour). Values are continuous rather than tiered: discrete tiers make
// k-means groups value-pure, which hands the branch-and-bound solver
// degenerate symmetric knapsacks and benchmarks the MILP's symmetry
// handling instead of the pipeline.
func benchRelation(n int) *relation.Relation {
	rel := relation.New("r", n)
	price := make([]float64, n)
	dists := make([]dist.Dist, n)
	for i := 0; i < n; i++ {
		f := float64(i) / float64(n)
		price[i] = 20 + 30*f
		dists[i] = dist.Normal{Mu: 0.2 + 1.5*f, Sigma: 0.6}
	}
	_ = rel.AddDet("price", price)
	_ = rel.AddStoch("gain", &relation.IndependentVG{AttrID: 1, Dists: dists})
	rel.ComputeMeans(rng.NewSource(9), 200)
	return rel
}

func benchCoreOpts() *core.Options {
	return &core.Options{
		Seed: 1, ValidationM: 1000, InitialM: 10, IncrementM: 10, MaxM: 30,
		FixedZ: 1, SolverTime: 10 * time.Second,
	}
}

// BenchmarkSketchSharded compares the classic single-solve sketch against
// the partition-parallel pipeline at N = 5000 tuples (τ = 64 → 79 medoids
// per full sketch). "sharded8seq" isolates the effect of splitting the
// medoid solve into 8 smaller solves; "sharded8par" adds the worker-pool
// fan-out (expect parity on a 1-core CI container, speedup with cores).
func BenchmarkSketchSharded(b *testing.B) {
	const n = 5000
	rel := benchRelation(n)
	q := spaql.MustParse(sketchQuery)

	cases := []struct {
		name string
		opts Options
	}{
		{"single", Options{GroupSize: 64, Seed: 2, MaxCandidates: 128}},
		{"sharded8seq", Options{GroupSize: 64, Seed: 2, MaxCandidates: 128, Shards: 8, Workers: 1}},
		{"sharded8par", Options{GroupSize: 64, Seed: 2, MaxCandidates: 128, Shards: 8, Workers: -1}},
	}
	for _, bc := range cases {
		b.Run(bc.name, func(b *testing.B) {
			var candidates int
			for i := 0; i < b.N; i++ {
				sol, stats, err := solveQuery(q, rel, benchCoreOpts(), &bc.opts)
				if err != nil {
					b.Fatal(err)
				}
				if !sol.Feasible {
					b.Fatal("bench query infeasible")
				}
				candidates = stats.Candidates
			}
			b.ReportMetric(float64(candidates), "candidates")
		})
	}
}
