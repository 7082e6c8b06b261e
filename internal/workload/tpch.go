package workload

import (
	"fmt"

	"spq/internal/dist"
	"spq/internal/relation"
	"spq/internal/rng"
)

// tpchRow describes one Table 3 TPC-H query: the per-source noise model
// used for the data-integration uncertainty, the number of integrated
// sources D, p and v.
type tpchRow struct {
	id       string
	noise    string // "exp", "poisson1", "poisson2", "uniform", "studentt"
	d        int
	p        float64
	v        float64
	feasible bool
}

// tpchRows reproduces Table 3 (TPC-H): objective MAXIMIZE PROBABILITY OF
// SUM(revenue) ≥ 1000, constraint COUNT(*) BETWEEN 1 AND 10 and
// SUM(quantity) ≤ v WITH PROBABILITY ≥ p. Q8 is the workload's infeasible
// query.
var tpchRows = []tpchRow{
	{"Q1", "exp", 3, 0.90, 15, true},
	{"Q2", "exp", 10, 0.95, 7, true},
	{"Q3", "poisson2", 3, 0.90, 15, true},
	{"Q4", "poisson1", 10, 0.90, 10, true},
	{"Q5", "uniform", 3, 0.90, 15, true},
	{"Q6", "uniform", 10, 0.95, 7, true},
	{"Q7", "studentt", 3, 0.90, 29, true},
	{"Q8", "studentt", 10, 0.95, 7, false},
}

// noiseDist returns the centered per-source perturbation distribution for a
// Table 3 row (mean-anchored around the original value).
func noiseDist(kind string) dist.Dist {
	switch kind {
	case "exp":
		// Exponential(λ=1) centered: mean 1 subtracted.
		return dist.Exponential{Lambda: 1, Loc: -1}
	case "poisson1":
		return dist.Poisson{Lambda: 1, Loc: -1}
	case "poisson2":
		return dist.Poisson{Lambda: 2, Loc: -2}
	case "uniform":
		return dist.Uniform{Lo: -0.5, Hi: 0.5}
	case "studentt":
		return dist.StudentT{Nu: 2, Loc: 0, Scale: 1}
	default:
		panic("workload: unknown tpch noise " + kind)
	}
}

// TPCH generates the data-integration workload. Each query has its own
// table (Table 3 varies the noise model and D per query). For each tuple and
// each stochastic attribute we materialize D source values — the original
// value plus a centered draw from the row's distribution — and a scenario
// samples one source uniformly at random (a discrete mixture).
func TPCH(cfg Config) *Instance {
	cfg = cfg.withDefaults()
	in := &Instance{Name: "tpch", Tables: map[string]*relation.Relation{}}
	bs := baseStream(cfg.Seed, 3)
	qtyBase := make([]float64, cfg.N)
	revBase := make([]float64, cfg.N)
	for i := 0; i < cfg.N; i++ {
		qtyBase[i] = float64(1 + bs.IntN(50))
		revBase[i] = 100 + 1900*bs.Float64()
	}

	for qi, row := range tpchRows {
		table := fmt.Sprintf("tpch_%s", row.id)
		rel := relation.New(table, cfg.N)
		n := cfg.N

		qb := append([]float64(nil), qtyBase...)
		if row.id == "Q8" {
			// Infeasibility calibration: Q8 demands SUM(quantity) ≤ 7 with
			// p = 0.95 while COUNT(*) ≥ 1. With every source value ≥ 8 the
			// constraint holds with probability 0 for every package, so the
			// query is infeasible by construction (Table 3 marks it "No").
			for i := range qb {
				qb[i] = float64(8 + bs.IntN(13))
			}
		}
		if err := rel.AddDet("base_quantity", qb); err != nil {
			panic(err)
		}
		if err := rel.AddDet("base_revenue", append([]float64(nil), revBase...)); err != nil {
			panic(err)
		}

		// Materialize the D integrated source values per tuple. For Q8 the
		// quantity noise is folded positive (|draw|) so every source value
		// stays at or above the ≥8 base, keeping the query infeasible by
		// construction. The values of one attribute share one pointer-free
		// array (see DESIGN.md § Memory model).
		srcStream := rng.NewStream(rng.Mix(cfg.Seed, 4, uint64(qi)))
		nd := noiseDist(row.noise)
		makeAttr := func(base []float64, scale float64, nonneg, positiveNoise bool) []dist.Dist {
			dists := make([]dist.Dist, n)
			choices := make([]dist.UniformChoice, n)
			values := make([]float64, n*row.d)
			for i := 0; i < n; i++ {
				variants := values[i*row.d : (i+1)*row.d : (i+1)*row.d]
				for dsrc := range variants {
					draw := nd.Sample(srcStream)
					if positiveNoise && draw < 0 {
						draw = -draw
					}
					v := base[i] + scale*draw
					if nonneg && v < 0 {
						v = 0
					}
					variants[dsrc] = v
				}
				choices[i].Values = variants
				dists[i] = &choices[i]
			}
			return dists
		}
		if err := rel.AddStoch("quantity", &relation.IndependentVG{
			AttrID: rng.Mix(0x79c4, uint64(qi), 1),
			Dists:  makeAttr(qb, 1, true, row.id == "Q8"),
		}); err != nil {
			panic(err)
		}
		// Revenue noise scales with the value magnitude so integration
		// disagreement is proportional, as in merged sales feeds.
		if err := rel.AddStoch("revenue", &relation.IndependentVG{
			AttrID: rng.Mix(0x79c4, uint64(qi), 2),
			Dists:  makeAttr(revBase, 40, true, false),
		}); err != nil {
			panic(err)
		}
		rel.ComputeMeans(rng.NewSource(rng.Mix(cfg.Seed, 5, uint64(qi))), cfg.MeansM)
		in.Tables[table] = rel

		in.Queries = append(in.Queries, Query{
			ID:       row.id,
			Table:    table,
			Feasible: row.feasible,
			FixedZ:   2,
			Description: fmt.Sprintf("%s noise, D=%d, p=%g, v=%g, independent objective",
				row.noise, row.d, row.p, row.v),
			SPaQL: fmt.Sprintf(`SELECT PACKAGE(*) FROM %s SUCH THAT
				COUNT(*) BETWEEN 1 AND 10 AND
				SUM(quantity) <= %g WITH PROBABILITY >= %g
				MAXIMIZE PROBABILITY OF SUM(revenue) >= 1000`, table, row.v, row.p),
		})
	}
	return in
}
