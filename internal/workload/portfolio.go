package workload

import (
	"fmt"
	"math"
	"sort"

	"spq/internal/dist"
	"spq/internal/relation"
	"spq/internal/rng"
)

// tradingDt is one trading day in years.
const tradingDt = 1.0 / 252

// maxHorizon is the longest sell-in horizon of any Portfolio table, in
// trading days (the 1-week tables).
const maxHorizon = 5

// portfolioRow describes one Table 3 Portfolio query.
type portfolioRow struct {
	id       string
	p        float64
	v        float64
	week     bool // 1-week predictions (else 2-day)
	volatile bool // restrict to the 30% most volatile stocks
}

// portfolioRows reproduces Table 3 (Portfolio): objective MAXIMIZE EXPECTED
// SUM(gain) under SUM(price) ≤ 1000, supported by the VaR constraint
// SUM(gain) ≥ v WITH PROBABILITY ≥ p.
var portfolioRows = []portfolioRow{
	{"Q1", 0.90, -10, false, false},
	{"Q2", 0.95, -10, false, false},
	{"Q3", 0.90, -10, false, true},
	{"Q4", 0.95, -10, false, true},
	{"Q5", 0.90, -1, false, true},
	{"Q6", 0.95, -1, false, true},
	{"Q7", 0.90, -10, true, true},
	{"Q8", 0.90, -1, true, true},
}

// Portfolio generates the financial-prediction workload. Config.N is the
// number of stocks; each stock contributes one tuple per sell horizon
// (2 horizons for the 2-day tables, 5 trading days for the 1-week tables),
// and all tuples of one stock share a single GBM price path per scenario,
// reproducing the intra-stock correlation of Figure 1.
func Portfolio(cfg Config) *Instance {
	cfg = cfg.withDefaults()
	in := &Instance{Name: "portfolio", Tables: map[string]*relation.Relation{}}

	bs := baseStream(cfg.Seed, 2)
	nStocks := cfg.N
	price := make([]float64, nStocks)
	volat := make([]float64, nStocks)
	drift := make([]float64, nStocks)
	for s := 0; s < nStocks; s++ {
		price[s] = math.Exp(3.5 + 1.2*bs.Norm()) // lognormal prices ≈ $10–$300
		if price[s] < 5 {
			price[s] = 5
		}
		if price[s] > 900 {
			price[s] = 900
		}
		volat[s] = 0.15 + 0.75*bs.Float64() // annualized volatility
		drift[s] = 0.04 + 0.03*bs.Norm()    // annualized drift
	}
	// The 30% most volatile stocks (descending volatility).
	order := make([]int, nStocks)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return volat[order[a]] > volat[order[b]] })
	cut := nStocks * 3 / 10
	if cut < 1 {
		cut = 1
	}
	volatileSet := make(map[int]bool, cut)
	for _, s := range order[:cut] {
		volatileSet[s] = true
	}

	build := func(table string, week bool, volatileOnly bool, attrID uint64) *relation.Relation {
		horizons := []int{1, 2}
		if week {
			horizons = []int{1, 2, 3, 4, 5}
		}
		var stocks []int
		for s := 0; s < nStocks; s++ {
			if volatileOnly && !volatileSet[s] {
				continue
			}
			stocks = append(stocks, s)
		}
		n := len(stocks) * len(horizons)
		rel := relation.New(table, n)
		tPrice := make([]float64, n)
		tHorizon := make([]float64, n)
		tStock := make([]float64, n)
		tVol := make([]float64, n)
		group := make([]int, n)
		horizon := make([]int, n)
		means := make([]float64, n)
		for k := 0; k < n; k++ {
			s := stocks[k/len(horizons)]
			h := horizons[k%len(horizons)]
			tPrice[k] = price[s]
			tHorizon[k] = float64(h)
			tStock[k] = float64(s)
			tVol[k] = volat[s]
			group[k] = s
			horizon[k] = h
			g := dist.GBM{S0: price[s], Mu: drift[s], Sigma: volat[s], Dt: tradingDt}
			means[k] = g.MeanAt(h) - price[s]
		}
		if err := rel.AddDet("price", tPrice); err != nil {
			panic(err)
		}
		if err := rel.AddDet("sell_in", tHorizon); err != nil {
			panic(err)
		}
		if err := rel.AddDet("stock", tStock); err != nil {
			panic(err)
		}
		if err := rel.AddDet("volatility", tVol); err != nil {
			panic(err)
		}
		// One shared GBM path per (stock, scenario): Eval regenerates the
		// path deterministically from the shared stream, up to the tuple's
		// horizon only (the path is sequential, so the prefix is the same).
		vg := &relation.GroupedVG{
			AttrID: attrID,
			Group:  group,
			Means:  means,
			Eval: func(st *rng.Stream, tuple int) float64 {
				s := group[tuple]
				g := dist.GBM{S0: price[s], Mu: drift[s], Sigma: volat[s], Dt: tradingDt}
				var buf [maxHorizon]float64 // on the stack: one path per realized value
				path := buf[:horizon[tuple]]
				g.Path(st, path)
				return path[len(path)-1] - price[s]
			},
		}
		if err := rel.AddStoch("gain", vg); err != nil {
			panic(err)
		}
		rel.ComputeMeans(rng.NewSource(rng.Mix(cfg.Seed, attrID)), cfg.MeansM)
		return rel
	}

	in.Tables["trades_2day_all"] = build("trades_2day_all", false, false, 0x90f1)
	in.Tables["trades_2day_vol"] = build("trades_2day_vol", false, true, 0x90f2)
	in.Tables["trades_week_vol"] = build("trades_week_vol", true, true, 0x90f3)

	for _, row := range portfolioRows {
		table := "trades_2day_all"
		switch {
		case row.week:
			table = "trades_week_vol"
		case row.volatile:
			table = "trades_2day_vol"
		}
		span := "2-day"
		if row.week {
			span = "1-week"
		}
		universe := "all stocks"
		if row.volatile {
			universe = "most volatile 30%"
		}
		in.Queries = append(in.Queries, Query{
			ID:       row.id,
			Table:    table,
			Feasible: true,
			FixedZ:   1,
			Description: fmt.Sprintf("GBM, supported objective, p=%g, v=%g, %s, %s",
				row.p, row.v, span, universe),
			SPaQL: fmt.Sprintf(`SELECT PACKAGE(*) FROM %s SUCH THAT
				SUM(price) <= 1000 AND
				SUM(gain) >= %g WITH PROBABILITY >= %g
				MAXIMIZE EXPECTED SUM(gain)`, table, row.v, row.p),
		})
	}
	return in
}
