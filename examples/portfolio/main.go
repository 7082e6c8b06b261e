// The portfolio example reproduces the paper's financial workload (§6.1) at
// interactive scale: a synthetic stock universe with GBM price forecasts,
// evaluated across a risk sweep — increasing Value-at-Risk probability p and
// tightening loss thresholds v — comparing SummarySearch with the Naïve SAA
// baseline on each setting.
//
// Run with:
//
//	go run ./examples/portfolio
package main

import (
	"fmt"
	"log"
	"time"

	"spq"
	"spq/internal/workload"
)

func main() {
	inst := workload.Portfolio(workload.Config{N: 120, Seed: 2024})
	db := spq.NewDB()
	for _, name := range inst.TableNames() {
		if err := db.Register(inst.Tables[name]); err != nil {
			log.Fatal(err)
		}
	}
	rel := inst.Table("trades_2day_all")
	fmt.Printf("universe: %d trade tuples over %d stocks (2-day horizon)\n\n", rel.N(), 120)

	sweep := []struct {
		p float64
		v float64
	}{
		{0.80, -25},
		{0.90, -10},
		{0.95, -10},
		{0.95, -1},
	}
	fmt.Printf("%-18s %-14s %10s %10s %12s %8s\n", "risk setting", "method", "feasible", "E[gain]", "Pr(ok)", "time")
	for _, s := range sweep {
		query := fmt.Sprintf(`SELECT PACKAGE(*) FROM trades_2day_all SUCH THAT
			SUM(price) <= 1000 AND
			SUM(gain) >= %g WITH PROBABILITY >= %g
			MAXIMIZE EXPECTED SUM(gain)`, s.v, s.p)
		for _, method := range []string{"SummarySearch", "Naive"} {
			opts := &spq.Options{
				Seed:        9,
				ValidationM: 4000,
				InitialM:    20,
				MaxM:        60,
				FixedZ:      1,
				TimeLimit:   20 * time.Second,
			}
			var res *spq.Result
			var err error
			start := time.Now()
			if method == "Naive" {
				res, err = db.QueryNaive(query, opts)
			} else {
				res, err = db.Query(query, opts)
			}
			elapsed := time.Since(start)
			if err != nil {
				log.Fatalf("%s: %v", method, err)
			}
			feas := "no"
			if res.Feasible {
				feas = "yes"
			}
			prOK := "-"
			if len(res.Surpluses) > 0 {
				prOK = fmt.Sprintf("%.1f%%", 100*(s.p+res.Surpluses[0]))
			}
			fmt.Printf("p=%.2f v=%-8g %-14s %10s %10.3f %12s %8s\n",
				s.p, s.v, method, feas, res.Objective,
				prOK, elapsed.Round(time.Millisecond))
		}
	}

	fmt.Println("\nhigher p / tighter v = harder risk constraints;")
	fmt.Println("SummarySearch stays feasible where the SAA baseline starts missing the target.")
}
