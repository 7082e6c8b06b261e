package spq

import (
	"math"
	"strings"
	"testing"
)

// testDB builds a DB with a small trades table.
func testDB(t *testing.T) *DB {
	t.Helper()
	db := NewDB()
	db.MeansM = 200
	const n = 12
	rel := NewRelation("trades", n)
	price := make([]float64, n)
	gains := make([]Dist, n)
	for i := 0; i < n; i++ {
		price[i] = float64(30 + 15*(i%5))
		gains[i] = Normal{Mu: 0.4 + 0.3*float64(i%4), Sigma: 1}
	}
	if err := rel.AddDet("price", price); err != nil {
		t.Fatal(err)
	}
	if err := rel.AddStoch("gain", &IndependentVG{AttrID: 1, Dists: gains}); err != nil {
		t.Fatal(err)
	}
	if err := db.Register(rel); err != nil {
		t.Fatal(err)
	}
	return db
}

func fastOptions() *Options {
	return &Options{Seed: 1, ValidationM: 800, InitialM: 10, IncrementM: 10, MaxM: 40}
}

const testQuery = `SELECT PACKAGE(*) FROM trades SUCH THAT
	SUM(price) <= 200 AND
	SUM(gain) >= -4 WITH PROBABILITY >= 0.8
	MAXIMIZE EXPECTED SUM(gain)`

func TestDBQueryEndToEnd(t *testing.T) {
	db := testDB(t)
	res, err := db.Query(testQuery, fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatalf("query infeasible: %+v", res.Solution)
	}
	mult := res.Multiplicities()
	if len(mult) == 0 {
		t.Fatal("empty package under a maximization objective")
	}
	price, _ := res.Rel.Det("price")
	total := 0.0
	for i, c := range mult {
		if c <= 0 {
			t.Fatalf("multiplicity %d for tuple %d", c, i)
		}
		total += price[i] * float64(c)
	}
	if total > 200+1e-9 {
		t.Fatalf("budget violated: %v", total)
	}
	if !strings.Contains(res.String(), "feasible") {
		t.Fatalf("String() = %q", res.String())
	}
}

func TestDBQueryNaive(t *testing.T) {
	db := testDB(t)
	res, err := db.QueryNaive(testQuery, fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatal("Naive infeasible on easy query")
	}
	if res.Z != 0 {
		t.Fatalf("Naive reported Z=%d", res.Z)
	}
}

func TestQueryAgainstUnknownTable(t *testing.T) {
	db := testDB(t)
	if _, err := db.Query(`SELECT PACKAGE(*) FROM nope SUCH THAT COUNT(*) = 1`, fastOptions()); err == nil {
		t.Fatal("unknown table accepted")
	}
}

func TestQuerySyntaxError(t *testing.T) {
	db := testDB(t)
	if _, err := db.Query(`SELECT STUFF`, fastOptions()); err == nil {
		t.Fatal("syntax error accepted")
	}
}

func TestRegisterDuplicate(t *testing.T) {
	db := testDB(t)
	rel := NewRelation("TRADES", 1)
	if err := db.Register(rel); err == nil {
		t.Fatal("duplicate (case-insensitive) registration accepted")
	}
}

// TestRegisterRejectsMeansMBelowOne: 0 scenarios would give NaN means (and a
// negative count zeros), so Register refuses both and registers nothing.
func TestRegisterRejectsMeansMBelowOne(t *testing.T) {
	for _, m := range []int{0, -3} {
		db := NewDB()
		db.MeansM = m
		if err := db.Register(NewRelation("t", 1)); err == nil {
			t.Fatalf("MeansM = %d accepted", m)
		}
		if _, ok := db.Table("t"); ok {
			t.Fatalf("MeansM = %d: table registered despite the error", m)
		}
	}
}

func TestTableLookupCaseInsensitive(t *testing.T) {
	db := testDB(t)
	if _, ok := db.Table("TrAdEs"); !ok {
		t.Fatal("case-insensitive lookup failed")
	}
}

func TestReadCSVIntoDB(t *testing.T) {
	db := NewDB()
	db.MeansM = 100
	rel, err := ReadCSV("prices", strings.NewReader("price,qty\n10,1\n20,2\n30,3\n"))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Register(rel); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query(`SELECT PACKAGE(*) FROM prices SUCH THAT
		COUNT(*) BETWEEN 1 AND 2 AND SUM(price) <= 30
		MAXIMIZE SUM(qty)`, fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatal("deterministic CSV query infeasible")
	}
	// Best: tuples with prices 10+20 → qty 3, or price 30 → qty 3.
	if math.Abs(res.Objective-3) > 1e-9 {
		t.Fatalf("objective = %v, want 3", res.Objective)
	}
}

func TestWhereClauseResultMapping(t *testing.T) {
	db := testDB(t)
	res, err := db.Query(`SELECT PACKAGE(*) FROM trades WHERE price >= 60 SUCH THAT
		COUNT(*) BETWEEN 1 AND 3 AND
		SUM(gain) >= -5 WITH PROBABILITY >= 0.5
		MAXIMIZE EXPECTED SUM(gain)`, fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatal("filtered query infeasible")
	}
	base, _ := db.Table("trades")
	basePrice, _ := base.Det("price")
	for idx := range res.Multiplicities() {
		if basePrice[idx] < 60 {
			t.Fatalf("package contains tuple %d with price %v violating WHERE", idx, basePrice[idx])
		}
	}
}

func TestExplain(t *testing.T) {
	db := testDB(t)
	out, err := db.Explain(testQuery, 100)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"tuples after WHERE: 12", "probabilistic constraints: 1", "maximize", "SAA DILP size", "CSA DILP size"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Explain missing %q:\n%s", want, out)
		}
	}
}

func TestParseQueryExported(t *testing.T) {
	q, err := ParseQuery(testQuery)
	if err != nil {
		t.Fatal(err)
	}
	if q.Table != "trades" {
		t.Fatalf("table = %q", q.Table)
	}
	if _, err := ParseQuery("garbage"); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestQuerySketch(t *testing.T) {
	db := NewDB()
	db.MeansM = 200
	const n = 300
	rel := NewRelation("big", n)
	price := make([]float64, n)
	gains := make([]Dist, n)
	for i := 0; i < n; i++ {
		price[i] = float64(25 + 10*(i%6))
		gains[i] = Normal{Mu: 0.3 + 0.2*float64(i%6), Sigma: 0.7}
	}
	if err := rel.AddDet("price", price); err != nil {
		t.Fatal(err)
	}
	if err := rel.AddStoch("gain", &IndependentVG{AttrID: 1, Dists: gains}); err != nil {
		t.Fatal(err)
	}
	if err := db.Register(rel); err != nil {
		t.Fatal(err)
	}
	res, stats, err := db.QuerySketch(`SELECT PACKAGE(*) FROM big SUCH THAT
		SUM(price) <= 250 AND
		SUM(gain) >= -4 WITH PROBABILITY >= 0.8
		MAXIMIZE EXPECTED SUM(gain)`, fastOptions(), &SketchOptions{GroupSize: 24, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatal("sketch query infeasible")
	}
	if stats.FellBack {
		t.Fatal("unexpected fallback")
	}
	if stats.Candidates >= n {
		t.Fatalf("no pruning: %d candidates", stats.Candidates)
	}
	total := 0.0
	for id, c := range res.Multiplicities() {
		total += price[id] * float64(c)
	}
	if total > 250+1e-9 {
		t.Fatalf("budget violated: %v", total)
	}
}

func TestInfeasibleDeterministicQuerySurfacesError(t *testing.T) {
	db := testDB(t)
	_, err := db.Query(`SELECT PACKAGE(*) FROM trades SUCH THAT
		COUNT(*) >= 3 AND COUNT(*) <= 1 AND
		SUM(gain) >= 0 WITH PROBABILITY >= 0.5`, fastOptions())
	if err == nil {
		t.Fatal("expected ErrInfeasible")
	}
}
