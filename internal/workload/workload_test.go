package workload

import (
	"math"
	"strings"
	"testing"

	"spq/internal/core"
	"spq/internal/rng"
	"spq/internal/spaql"
	"spq/internal/translate"
)

func cfg(n int) Config { return Config{N: n, Seed: 42, MeansM: 300} }

func TestGalaxyStructure(t *testing.T) {
	in := Galaxy(cfg(50))
	if len(in.Queries) != 8 {
		t.Fatalf("got %d queries, want 8", len(in.Queries))
	}
	if len(in.Tables) != 8 {
		t.Fatalf("got %d tables, want 8 (one noise model per query)", len(in.Tables))
	}
	for _, q := range in.Queries {
		rel := in.Table(q.Table)
		if rel.N() != 50 {
			t.Fatalf("%s: N = %d", q.ID, rel.N())
		}
		if !rel.IsStochastic("petromag_r") {
			t.Fatalf("%s: petromag_r not stochastic", q.ID)
		}
		if !q.Feasible {
			t.Fatalf("%s: all Galaxy queries are feasible in Table 3", q.ID)
		}
		if q.FixedZ != 1 {
			t.Fatalf("%s: FixedZ = %d, want 1", q.ID, q.FixedZ)
		}
	}
}

func TestGalaxyQueriesParseAndBuild(t *testing.T) {
	in := Galaxy(cfg(40))
	for _, q := range in.Queries {
		parsed, err := spaql.Parse(q.SPaQL)
		if err != nil {
			t.Fatalf("%s: parse: %v", q.ID, err)
		}
		if _, err := translate.Build(parsed, in.Table(q.Table), nil); err != nil {
			t.Fatalf("%s: build: %v", q.ID, err)
		}
	}
}

func TestGalaxyNoiseModels(t *testing.T) {
	in := Galaxy(cfg(30))
	src := rng.NewSource(7)
	// Pareto noise (Q5) must always push values above the base reading.
	q5 := in.Table("galaxy_Q5")
	base, _ := q5.Det("base_r")
	for j := 0; j < 20; j++ {
		for i := 0; i < q5.N(); i++ {
			v, err := q5.Value(src, "petromag_r", i, j)
			if err != nil {
				t.Fatal(err)
			}
			if v < base[i]+1 { // Pareto(1,1) support is [1, ∞)
				t.Fatalf("Q5 realization %v below base+scale %v", v, base[i]+1)
			}
		}
	}
	// Normal noise (Q1) must straddle the base.
	q1 := in.Table("galaxy_Q1")
	below, above := 0, 0
	for j := 0; j < 50; j++ {
		v, _ := q1.Value(src, "petromag_r", 0, j)
		if v < base[0] {
			below++
		} else {
			above++
		}
	}
	if below == 0 || above == 0 {
		t.Fatalf("Gaussian noise one-sided: %d below, %d above", below, above)
	}
}

func TestGalaxyDeterministicGeneration(t *testing.T) {
	a := Galaxy(cfg(20))
	b := Galaxy(cfg(20))
	ba, _ := a.Table("galaxy_Q1").Det("base_r")
	bb, _ := b.Table("galaxy_Q1").Det("base_r")
	for i := range ba {
		if ba[i] != bb[i] {
			t.Fatal("same seed produced different base data")
		}
	}
	diff := Galaxy(Config{N: 20, Seed: 43, MeansM: 300})
	bd, _ := diff.Table("galaxy_Q1").Det("base_r")
	same := true
	for i := range ba {
		if ba[i] != bd[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical base data")
	}
}

func TestPortfolioStructure(t *testing.T) {
	in := Portfolio(cfg(40)) // 40 stocks
	if len(in.Queries) != 8 {
		t.Fatalf("got %d queries", len(in.Queries))
	}
	all := in.Table("trades_2day_all")
	if all.N() != 80 { // 2 horizons per stock
		t.Fatalf("2day_all N = %d, want 80", all.N())
	}
	vol := in.Table("trades_2day_vol")
	if vol.N() != 24 { // 30% of 40 = 12 stocks × 2 horizons
		t.Fatalf("2day_vol N = %d, want 24", vol.N())
	}
	week := in.Table("trades_week_vol")
	if week.N() != 60 { // 12 stocks × 5 horizons
		t.Fatalf("week_vol N = %d, want 60", week.N())
	}
}

func TestPortfolioVolatileSubset(t *testing.T) {
	in := Portfolio(cfg(40))
	allVol, _ := in.Table("trades_2day_all").Det("volatility")
	subsetVol, _ := in.Table("trades_2day_vol").Det("volatility")
	minSubset := math.Inf(1)
	for _, v := range subsetVol {
		minSubset = math.Min(minSubset, v)
	}
	countAbove := 0
	for _, v := range allVol {
		if v > minSubset+1e-12 {
			countAbove++
		}
	}
	// Every stock more volatile than the subset minimum must be in the
	// subset: the subset has 24 tuples, so at most 24 tuples may exceed it.
	if countAbove > len(subsetVol) {
		t.Fatalf("%d tuples exceed the subset minimum volatility %v, subset has %d",
			countAbove, minSubset, len(subsetVol))
	}
}

func TestPortfolioSameStockCorrelation(t *testing.T) {
	in := Portfolio(cfg(20))
	rel := in.Table("trades_2day_all")
	stocks, _ := rel.Det("stock")
	sellIn, _ := rel.Det("sell_in")
	src := rng.NewSource(5)
	// Tuples 0 and 1 are the same stock at horizons 1 and 2: the horizon-2
	// price continues the same path, so gains must be highly correlated.
	if stocks[0] != stocks[1] || sellIn[0] == sellIn[1] {
		t.Fatalf("layout assumption broken: stock %v/%v sell %v/%v", stocks[0], stocks[1], sellIn[0], sellIn[1])
	}
	var sum0, sum1, sum00, sum11, sum01 float64
	const m = 4000
	for j := 0; j < m; j++ {
		g0, _ := rel.Value(src, "gain", 0, j)
		g1, _ := rel.Value(src, "gain", 1, j)
		sum0 += g0
		sum1 += g1
		sum00 += g0 * g0
		sum11 += g1 * g1
		sum01 += g0 * g1
	}
	cov := sum01/m - (sum0/m)*(sum1/m)
	sd0 := math.Sqrt(sum00/m - (sum0/m)*(sum0/m))
	sd1 := math.Sqrt(sum11/m - (sum1/m)*(sum1/m))
	corr := cov / (sd0 * sd1)
	if corr < 0.5 {
		t.Fatalf("same-stock horizon gains correlation = %v, want strong positive", corr)
	}
}

func TestPortfolioGainMeansMatchGBMClosedForm(t *testing.T) {
	in := Portfolio(cfg(10))
	rel := in.Table("trades_2day_all")
	price, _ := rel.Det("price")
	means, err := rel.Means("gain")
	if err != nil {
		t.Fatal(err)
	}
	// Means are exact (GroupedVG.Means): small positive drift ⇒ small
	// positive expected gain, magnitude well below price.
	for i, m := range means {
		if math.Abs(m) > price[i]*0.1 {
			t.Fatalf("mean gain %v implausible for price %v at short horizon", m, price[i])
		}
	}
}

func TestPortfolioQueriesParseAndBuild(t *testing.T) {
	in := Portfolio(cfg(20))
	for _, q := range in.Queries {
		parsed, err := spaql.Parse(q.SPaQL)
		if err != nil {
			t.Fatalf("%s: %v", q.ID, err)
		}
		if _, err := translate.Build(parsed, in.Table(q.Table), nil); err != nil {
			t.Fatalf("%s: %v", q.ID, err)
		}
	}
}

func TestTPCHStructure(t *testing.T) {
	in := TPCH(cfg(60))
	if len(in.Queries) != 8 || len(in.Tables) != 8 {
		t.Fatalf("queries=%d tables=%d", len(in.Queries), len(in.Tables))
	}
	for _, q := range in.Queries {
		rel := in.Table(q.Table)
		if !rel.IsStochastic("quantity") || !rel.IsStochastic("revenue") {
			t.Fatalf("%s: missing stochastic attributes", q.ID)
		}
		if q.FixedZ != 2 {
			t.Fatalf("%s: FixedZ = %d, want 2", q.ID, q.FixedZ)
		}
	}
	q8, ok := in.QueryByID("Q8")
	if !ok || q8.Feasible {
		t.Fatal("Q8 must exist and be marked infeasible")
	}
}

func TestTPCHDiscreteSourceValues(t *testing.T) {
	in := TPCH(cfg(30))
	rel := in.Table("tpch_Q1") // D = 3
	src := rng.NewSource(11)
	// Each tuple's quantity can only take D distinct values.
	for i := 0; i < 10; i++ {
		seen := map[float64]bool{}
		for j := 0; j < 200; j++ {
			v, err := rel.Value(src, "quantity", i, j)
			if err != nil {
				t.Fatal(err)
			}
			seen[v] = true
		}
		if len(seen) > 3 {
			t.Fatalf("tuple %d quantity took %d distinct values, want ≤ D=3", i, len(seen))
		}
		if len(seen) < 2 {
			t.Logf("tuple %d: only %d distinct source values (sources may coincide)", i, len(seen))
		}
	}
}

func TestTPCHQ8StructurallyInfeasible(t *testing.T) {
	in := TPCH(cfg(50))
	rel := in.Table("tpch_Q8")
	src := rng.NewSource(13)
	// Every realization of every tuple's quantity must exceed 7, making
	// SUM(quantity) ≤ 7 with COUNT ≥ 1 impossible.
	for i := 0; i < rel.N(); i++ {
		for j := 0; j < 30; j++ {
			v, err := rel.Value(src, "quantity", i, j)
			if err != nil {
				t.Fatal(err)
			}
			if v <= 7 {
				t.Fatalf("tuple %d scenario %d quantity %v ≤ 7; Q8 would be feasible", i, j, v)
			}
		}
	}
}

func TestTPCHQueriesParseAndBuild(t *testing.T) {
	in := TPCH(cfg(40))
	for _, q := range in.Queries {
		parsed, err := spaql.Parse(q.SPaQL)
		if err != nil {
			t.Fatalf("%s: %v", q.ID, err)
		}
		if !strings.Contains(q.SPaQL, "PROBABILITY OF") {
			t.Fatalf("%s: TPC-H objective must be a probability", q.ID)
		}
		if _, err := translate.Build(parsed, in.Table(q.Table), nil); err != nil {
			t.Fatalf("%s: %v", q.ID, err)
		}
	}
}

// End-to-end smoke: SummarySearch solves one representative query from each
// workload at small scale.
func TestWorkloadsSolvableBySummarySearch(t *testing.T) {
	opts := &core.Options{Seed: 1, ValidationM: 800, InitialM: 10, IncrementM: 10, MaxM: 40}
	cases := []struct {
		in  *Instance
		qid string
	}{
		{Galaxy(cfg(40)), "Q1"},
		{Portfolio(cfg(30)), "Q1"},
		{TPCH(cfg(40)), "Q1"},
	}
	for _, c := range cases {
		q, ok := c.in.QueryByID(c.qid)
		if !ok {
			t.Fatalf("%s: no %s", c.in.Name, c.qid)
		}
		parsed := spaql.MustParse(q.SPaQL)
		silp, err := translate.Build(parsed, c.in.Table(q.Table), nil)
		if err != nil {
			t.Fatalf("%s/%s: %v", c.in.Name, q.ID, err)
		}
		o := *opts
		o.FixedZ = q.FixedZ
		sol, err := core.SummarySearch(silp, &o)
		if err != nil {
			t.Fatalf("%s/%s: %v", c.in.Name, q.ID, err)
		}
		if !sol.Feasible {
			t.Fatalf("%s/%s: SummarySearch infeasible (surpluses %v)", c.in.Name, q.ID, sol.Surpluses)
		}
	}
}

func TestByName(t *testing.T) {
	for _, tc := range []struct {
		name   string
		tables int
	}{
		{"galaxy", 8},
		{"portfolio", 3},
		{"tpch", 8},
	} {
		in, err := ByName(tc.name, Config{N: 20, Seed: 1, MeansM: 50})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if in.Name != tc.name || len(in.Tables) != tc.tables || len(in.Queries) != 8 {
			t.Fatalf("%s: got %q with %d tables and %d queries", tc.name, in.Name, len(in.Tables), len(in.Queries))
		}
	}
	_, err := ByName("nope", Config{N: 20})
	if err == nil {
		t.Fatal("unknown workload accepted")
	}
	for _, want := range []string{`"nope"`, "galaxy", "portfolio", "tpch"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not name %s", err, want)
		}
	}
}

// TestNamesResolve: every name Names lists is one ByName generates, under
// that name, and Names lists each once.
func TestNamesResolve(t *testing.T) {
	names := Names()
	if len(names) == 0 {
		t.Fatal("no workload listed")
	}
	seen := map[string]bool{}
	for _, name := range names {
		if seen[name] {
			t.Fatalf("%s listed twice", name)
		}
		seen[name] = true
		in, err := ByName(name, Config{N: 20, Seed: 1, MeansM: 50})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if in.Name != name {
			t.Fatalf("%s generates instance %q", name, in.Name)
		}
	}
}
