package translate

import (
	"context"
	"math"
	"testing"

	"spq/internal/milp"
	"spq/internal/rng"
	"spq/internal/spaql"
)

// Tests for general-form (filtered) aggregates flowing through translation.

func TestFilteredDeterministicConstraintMasksCoefficients(t *testing.T) {
	rel := portfolioRelation(t, 6) // vol = i%3 / 10
	s := buildQuery(t, `SELECT PACKAGE(*) AS P FROM stocks SUCH THAT
		(SELECT SUM(price) WHERE vol >= 0.2 FROM P) <= 100`, rel)
	c := s.DetCons[0]
	vol, _ := rel.Det("vol")
	price, _ := rel.Det("price")
	for i := range c.Coefs {
		want := 0.0
		if vol[i] >= 0.2 {
			want = price[i]
		}
		if c.Coefs[i] != want {
			t.Fatalf("coef[%d] = %v, want %v", i, c.Coefs[i], want)
		}
	}
}

func TestFilteredProbConstraintMask(t *testing.T) {
	rel := portfolioRelation(t, 6)
	s := buildQuery(t, `SELECT PACKAGE(*) AS P FROM stocks SUCH THAT
		(SELECT SUM(gain) WHERE vol >= 0.2 FROM P) >= -5 WITH PROBABILITY >= 0.9`, rel)
	pc := s.ProbCons[0]
	if pc.Mask == nil {
		t.Fatal("mask not built")
	}
	vol, _ := rel.Det("vol")
	for i, m := range pc.Mask {
		if m != (vol[i] >= 0.2) {
			t.Fatalf("mask[%d] = %v for vol %v", i, m, vol[i])
		}
	}
	// Generated scenario rows must be zero at masked-out tuples.
	sets, _, err := s.GenerateSetsP(context.Background(), rng.NewSource(1), 0, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 4; j++ {
		for i := range pc.Mask {
			v := sets[0].Row(j)[i]
			if !pc.Mask[i] && v != 0 {
				t.Fatalf("masked tuple %d has nonzero scenario value %v", i, v)
			}
			if pc.Mask[i] && v == 0 {
				t.Fatalf("unmasked tuple %d unexpectedly zero", i)
			}
		}
	}
}

func TestFilteredObjective(t *testing.T) {
	rel := portfolioRelation(t, 6)
	s := buildQuery(t, `SELECT PACKAGE(*) AS P FROM stocks SUCH THAT COUNT(*) <= 3
		MAXIMIZE EXPECTED (SELECT SUM(gain) WHERE vol >= 0.2 FROM P)`, rel)
	vol, _ := rel.Det("vol")
	for i, c := range s.ObjCoefs {
		if vol[i] < 0.2 && c != 0 {
			t.Fatalf("objective coef %d = %v for filtered-out tuple", i, c)
		}
		if vol[i] >= 0.2 && c == 0 {
			t.Fatalf("objective coef %d zero for included tuple", i)
		}
	}
}

func TestFilteredCountConstraintSolvesCorrectly(t *testing.T) {
	// COUNT of high-volatility tuples ≤ 1, but total count must be 3:
	// the solver must take at most 1 high-vol tuple.
	rel := portfolioRelation(t, 6)
	s := buildQuery(t, `SELECT PACKAGE(*) AS P FROM stocks REPEAT 0 SUCH THAT
		COUNT(*) = 3 AND
		(SELECT COUNT(*) WHERE vol >= 0.2 FROM P) <= 1
		MAXIMIZE EXPECTED SUM(gain)`, rel)
	model, vm, err := s.FormulateCSA(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := milp.Solve(model, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != milp.StatusOptimal {
		t.Fatalf("status = %v", res.Status)
	}
	pkg := vm.PackageOf(nil, res.X)
	vol, _ := rel.Det("vol")
	total, highVol := 0.0, 0.0
	for i, x := range pkg {
		total += x
		if vol[i] >= 0.2 {
			highVol += x
		}
	}
	if math.Abs(total-3) > 1e-9 {
		t.Fatalf("total count = %v, want 3", total)
	}
	if highVol > 1+1e-9 {
		t.Fatalf("high-volatility count = %v, want ≤ 1", highVol)
	}
}

func TestFilterOverWhereFilteredRelation(t *testing.T) {
	// The aggregate filter is evaluated on the relation AFTER the query
	// WHERE clause removed tuples.
	rel := portfolioRelation(t, 6)
	s := buildQuery(t, `SELECT PACKAGE(*) AS P FROM stocks WHERE price >= 70 SUCH THAT
		(SELECT SUM(gain) WHERE vol >= 0.2 FROM P) >= 0 WITH PROBABILITY >= 0.5`, rel)
	if s.N != 4 { // prices 70,80,90,100
		t.Fatalf("N = %d", s.N)
	}
	if len(s.ProbCons[0].Mask) != 4 {
		t.Fatalf("mask length %d, want view length 4", len(s.ProbCons[0].Mask))
	}
}

func TestExprEqualHelper(t *testing.T) {
	a := spaql.LinExpr{Terms: []spaql.Term{{Coef: 2, Attr: "x"}, {Coef: 1, Attr: "y"}}}
	b := spaql.LinExpr{Terms: []spaql.Term{{Coef: 1, Attr: "y"}, {Coef: 2, Attr: "x"}}}
	if !ExprEqual(a, b) {
		t.Fatal("order should not matter")
	}
	c := spaql.LinExpr{Terms: []spaql.Term{{Coef: 1, Attr: "x"}, {Coef: 1, Attr: "x"}, {Coef: 1, Attr: "y"}}}
	if !ExprEqual(a, c) {
		t.Fatal("duplicate terms should combine")
	}
	d := spaql.LinExpr{Terms: []spaql.Term{{Coef: 2, Attr: "x"}}}
	if ExprEqual(a, d) {
		t.Fatal("different attrs should differ")
	}
	e := spaql.LinExpr{Terms: a.Terms, Const: 1}
	if ExprEqual(a, e) {
		t.Fatal("different consts should differ")
	}
	zero := spaql.LinExpr{Terms: []spaql.Term{{Coef: 0, Attr: "z"}, {Coef: 2, Attr: "x"}, {Coef: 1, Attr: "y"}}}
	if !ExprEqual(a, zero) {
		t.Fatal("zero-coefficient terms should be ignored")
	}
}
