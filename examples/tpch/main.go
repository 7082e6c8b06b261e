// The tpch example runs the paper's data-integration workload (§6.1): a
// lineitem-like table whose quantity and revenue columns disagree across D
// integrated sources, queried with a probability objective — maximize the
// chance that total revenue exceeds $1000 while keeping total quantity small
// with high probability. It also demonstrates infeasibility reporting on the
// workload's impossible query (Q8).
//
// Run with:
//
//	go run ./examples/tpch
package main

import (
	"errors"
	"fmt"
	"log"

	"spq"
	"spq/internal/workload"
)

func main() {
	inst := workload.TPCH(workload.Config{N: 200, Seed: 5})
	db := spq.NewDB()
	for _, name := range inst.TableNames() {
		if err := db.Register(inst.Tables[name]); err != nil {
			log.Fatal(err)
		}
	}

	opts := func(z int) *spq.Options {
		return &spq.Options{
			Seed:        1,
			ValidationM: 3000,
			InitialM:    15,
			MaxM:        60,
			FixedZ:      z,
		}
	}

	// Q1: feasible, exponential source noise, D = 3.
	q1, _ := inst.QueryByID("Q1")
	fmt.Printf("Q1 — %s\n", q1.Description)
	res, err := db.Query(q1.SPaQL, opts(q1.FixedZ))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  %s\n", res)
	fmt.Printf("  Pr(revenue ≥ 1000) ≈ %.1f%%, Pr(quantity ≤ 15) ≈ %.1f%% (target 90%%)\n\n",
		100*res.Objective, 100*(0.9+res.Surpluses[0]))

	// Q8: infeasible by construction — every integrated source reports
	// quantity above the threshold.
	q8, _ := inst.QueryByID("Q8")
	fmt.Printf("Q8 — %s (expected: INFEASIBLE)\n", q8.Description)
	res8, err := db.Query(q8.SPaQL, opts(q8.FixedZ))
	switch {
	case errors.Is(err, spq.ErrInfeasible):
		fmt.Println("  infeasible (deterministic constraints)")
	case err != nil:
		log.Fatal(err)
	case res8.Feasible:
		log.Fatal("Q8 unexpectedly feasible")
	default:
		fmt.Printf("  declared infeasible after exhausting M=%d scenarios ", res8.M)
		fmt.Printf("(best surplus %.3f < 0)\n", maxSurplus(res8))
	}
}

func maxSurplus(res *spq.Result) float64 {
	if len(res.Surpluses) == 0 {
		return -1
	}
	best := res.Surpluses[0]
	for _, s := range res.Surpluses[1:] {
		if s > best {
			best = s
		}
	}
	return best
}
