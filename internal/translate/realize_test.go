package translate

import (
	"context"
	"math"
	"testing"

	"spq/internal/dist"
	"spq/internal/relation"
	"spq/internal/rng"
	"spq/internal/spaql"
)

// realizeRelation has two deterministic and two stochastic attributes, one
// of them with a different distribution per tuple.
func realizeRelation(t *testing.T, n int) *relation.Relation {
	t.Helper()
	rel := relation.New("assets", n)
	price := make([]float64, n)
	vol := make([]float64, n)
	gain := make([]dist.Dist, n)
	risk := make([]dist.Dist, n)
	for i := 0; i < n; i++ {
		price[i] = float64(20 + 7*(i%11))
		vol[i] = float64(i%3) / 10
		gain[i] = dist.Normal{Mu: 0.5 + 0.3*float64(i%4), Sigma: 1 + float64(i%3)}
		risk[i] = dist.Exponential{Lambda: 1 / (0.5 + 0.1*float64(i%5))}
	}
	if err := rel.AddDet("price", price); err != nil {
		t.Fatal(err)
	}
	if err := rel.AddDet("vol", vol); err != nil {
		t.Fatal(err)
	}
	if err := rel.AddStoch("gain", &relation.IndependentVG{AttrID: 3, Dists: gain}); err != nil {
		t.Fatal(err)
	}
	if err := rel.AddStoch("risk", &relation.IndependentVG{AttrID: 4, Dists: risk}); err != nil {
		t.Fatal(err)
	}
	rel.ComputeMeans(rng.NewSource(8), 50)
	return rel
}

// perValueRow is one scenario row realized one Relation.Value at a time:
// per tuple, Const plus coef·value term by term, and exactly 0 at a tuple
// the mask excludes.
func perValueRow(t *testing.T, src rng.Source, rel *relation.Relation, e spaql.LinExpr, mask []bool, scen int) []float64 {
	t.Helper()
	row := make([]float64, rel.N())
	for i := range row {
		if mask != nil && !mask[i] {
			continue
		}
		row[i] = e.Const
		for _, term := range e.Terms {
			v, err := rel.Value(src, term.Attr, i, scen)
			if err != nil {
				t.Fatal(err)
			}
			row[i] += term.Coef * v
		}
	}
	return row
}

// TestRealizeRowsMatchesPerValue: the scenario rows Naïve formulates over
// equal the per-value realization bit for bit — through a WHERE filter's
// view, a general-form aggregate's mask, a mixed deterministic/stochastic
// expression with a constant, and a probability objective — for scenario
// counts on both sides of a row chunk, ranges that start past 0, and every
// worker count.
func TestRealizeRowsMatchesPerValue(t *testing.T) {
	rel := realizeRelation(t, 41)
	filtered := buildQuery(t, `SELECT PACKAGE(*) FROM assets WHERE price <= 75 SUCH THAT
		SUM(gain) >= -5 WITH PROBABILITY >= 0.9`, rel)
	filtered.ProbCons[0].Expr = spaql.LinExpr{Const: 0.25, Terms: []spaql.Term{
		{Coef: 1.5, Attr: "gain"}, {Coef: -0.01, Attr: "price"}, {Coef: 2, Attr: "risk"},
	}}
	silps := map[string]*SILP{
		"filtered": filtered,
		"masked": buildQuery(t, `SELECT PACKAGE(*) AS P FROM assets SUCH THAT
			(SELECT SUM(risk) WHERE vol >= 0.2 FROM P) <= 3 WITH PROBABILITY >= 0.6`, rel),
		"probability objective": buildQuery(t, `SELECT PACKAGE(*) FROM assets SUCH THAT
			SUM(risk) <= 3 WITH PROBABILITY >= 0.5
			MAXIMIZE PROBABILITY OF SUM(gain) >= 1`, rel),
	}
	if filtered.N >= rel.N() {
		t.Fatalf("WHERE kept all %d tuples", filtered.N)
	}
	if silps["masked"].ProbCons[0].Mask == nil {
		t.Fatal("general-form aggregate built no mask")
	}
	src := rng.NewSource(21)
	for name, s := range silps {
		type expr struct {
			e    spaql.LinExpr
			mask []bool
		}
		var exprs []expr
		for _, pc := range s.ProbCons {
			exprs = append(exprs, expr{pc.Expr, pc.Mask})
		}
		if s.ObjKind == ObjProbability {
			exprs = append(exprs, expr{s.ObjExpr, s.ObjMask})
		}
		for k, x := range exprs {
			for _, first := range []int{0, 3, 100} {
				for _, m := range []int{1, 255, 256, 257} {
					want := make([][]float64, m)
					for j := range want {
						want[j] = perValueRow(t, src, s.Rel, x.e, x.mask, first+j)
					}
					for _, workers := range []int{1, 2, 3, 8} {
						rows, err := s.realizeRows(context.Background(), src, x.e, x.mask, first, m, workers)
						if err != nil {
							t.Fatal(err)
						}
						if len(rows) != m {
							t.Fatalf("%s expr %d: %d rows, want %d", name, k, len(rows), m)
						}
						for j, row := range rows {
							if len(row) != s.N {
								t.Fatalf("%s expr %d: row %d has %d values, want %d", name, k, j, len(row), s.N)
							}
							for i, v := range row {
								if math.Float64bits(v) != math.Float64bits(want[j][i]) {
									t.Fatalf("%s expr %d first=%d m=%d workers=%d: row %d tuple %d = %v, want %v",
										name, k, first, m, workers, j, i, v, want[j][i])
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestRealizeRowsCancelled: a cancelled context stops realization with the
// context's error.
func TestRealizeRowsCancelled(t *testing.T) {
	s := buildQuery(t, `SELECT PACKAGE(*) FROM assets SUCH THAT
		SUM(gain) >= -5 WITH PROBABILITY >= 0.9`, realizeRelation(t, 9))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 2} {
		if _, _, err := s.GenerateSetsP(ctx, rng.NewSource(1), 0, 300, workers); err != context.Canceled {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
	}
}
