package spq_test

import (
	"fmt"
	"maps"
	"slices"

	"spq"
)

// Example walks through Figure 1 of the paper: a tiny Stock_Investments
// table with an uncertain Gain attribute, the sPaQL query from the
// introduction, its plan, and the resulting investment package.
func Example() {
	// The Figure 1 table: six possible trades over three stocks, each with
	// a known current price and an uncertain future gain. Gains of trades
	// on the same stock are correlated: they read the same simulated price
	// path (a geometric Brownian motion per stock).
	stocks := []struct {
		name  string
		price float64
		vol   float64 // annualized volatility
	}{
		{"AAPL", 234, 0.30},
		{"MSFT", 140, 0.22},
		{"TSLA", 258, 0.55},
	}
	horizons := []int{1, 5} // sell in 1 day or in 1 week (5 trading days)

	n := len(stocks) * len(horizons)
	rel := spq.NewRelation("stock_investments", n)

	price := make([]float64, n)
	sellIn := make([]float64, n)
	group := make([]int, n)
	horizon := make([]int, n)
	for i := 0; i < n; i++ {
		s := i / len(horizons)
		h := horizons[i%len(horizons)]
		price[i] = stocks[s].price
		sellIn[i] = float64(h)
		group[i] = s
		horizon[i] = h
	}
	if err := rel.AddDet("price", price); err != nil {
		panic(err)
	}
	if err := rel.AddDet("sell_in", sellIn); err != nil {
		panic(err)
	}

	// The VG function: one GBM path per stock per scenario; each trade's
	// gain is the path value at its horizon minus the purchase price.
	const dt = 1.0 / 252
	vg := &spq.GroupedVG{
		AttrID: 1,
		Group:  group,
		Eval: func(st *spq.Stream, tuple int) float64 {
			s := group[tuple]
			g := spq.GBM{S0: stocks[s].price, Mu: 0.08, Sigma: stocks[s].vol, Dt: dt}
			path := make([]float64, 5)
			g.Path(st, path)
			return path[horizon[tuple]-1] - stocks[s].price
		},
	}
	if err := rel.AddStoch("gain", vg); err != nil {
		panic(err)
	}

	db := spq.NewDB()
	if err := db.Register(rel); err != nil {
		panic(err)
	}

	// The paper's introductory query: invest at most $1000, keep the loss
	// under $10 with 95% probability, maximize the expected gain.
	const query = `
		SELECT PACKAGE(*) AS Portfolio FROM stock_investments
		SUCH THAT
			SUM(price) <= 1000 AND
			SUM(gain) >= -10 WITH PROBABILITY >= 0.95
		MAXIMIZE EXPECTED SUM(gain)`

	plan, err := db.Explain(query, 100)
	if err != nil {
		panic(err)
	}
	fmt.Print(plan)

	res, err := db.Query(query, &spq.Options{
		Seed:        7,
		ValidationM: 20000, // out-of-sample validation scenarios
		InitialM:    50,
		MaxM:        400,
	})
	if err != nil {
		panic(err)
	}

	fmt.Println("result:", res)
	fmt.Printf("loss < $10 with probability %.1f%% (target 95%%)\n",
		100*(0.95+res.Surpluses[0]))
	fmt.Println("portfolio:")
	names := []string{"AAPL", "MSFT", "TSLA"}
	mult := res.Multiplicities()
	for _, id := range slices.Sorted(maps.Keys(mult)) {
		fmt.Printf("  buy %d share(s) of %s, sell in %g day(s) — price $%.0f each\n",
			mult[id], names[group[id]], sellIn[id], price[id])
	}
	// Output:
	// query: SELECT PACKAGE(*) AS Portfolio FROM stock_investments SUCH THAT SUM(price) <= 1000 AND SUM(gain) >= -10 WITH PROBABILITY >= 0.95 MAXIMIZE EXPECTED SUM(gain)
	// tuples after WHERE: 6
	// deterministic/expectation constraints: 1
	// probabilistic constraints: 1
	//   c2: Pr(SUM(gain) >= -10) >= 0.95  [summary direction: min]
	// objective: maximize expected linear sum
	// SAA DILP size at M=100: ~600 coefficients (Θ(NMK))
	// CSA DILP size at Z=1: ~6 coefficients (Θ(NZK))
	// result: package: feasible, 1 distinct tuples, size 1, objective 0.373071 (M=50, Z=1)
	// loss < $10 with probability 99.2% (target 95%)
	// portfolio:
	//   buy 1 share(s) of MSFT, sell in 5 day(s) — price $140 each
}
