// The galaxy example runs the paper's noisy-sensor workload (§6.1): pick 5
// to 10 sky regions minimizing expected total radiation flux while keeping
// the realized total above/below a threshold with high probability. It
// demonstrates the two objective-constraint interactions of Definition 2 —
// counteracted (Pr(SUM ≥ v), pushing against the minimization) and supported
// (Pr(SUM ≤ v), pushing with it) — and how the ε′ approximation bound
// behaves on each.
//
// Run with:
//
//	go run ./examples/galaxy
package main

import (
	"fmt"
	"log"
	"math"

	"spq"
	"spq/internal/workload"
)

func main() {
	inst := workload.Galaxy(workload.Config{N: 250, Seed: 11})
	db := spq.NewDB()
	for _, name := range inst.TableNames() {
		if err := db.Register(inst.Tables[name]); err != nil {
			log.Fatal(err)
		}
	}

	for _, qid := range []string{"Q1", "Q3", "Q5"} {
		q, ok := inst.QueryByID(qid)
		if !ok {
			log.Fatalf("no query %s", qid)
		}
		fmt.Printf("%s — %s\n", q.ID, q.Description)
		res, err := db.Query(q.SPaQL, &spq.Options{
			Seed:        3,
			ValidationM: 4000,
			InitialM:    15,
			MaxM:        90,
			FixedZ:      q.FixedZ,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %s\n", res)
		if math.IsInf(res.EpsUpper, 1) {
			fmt.Println("  approximation bound: none available (loose value range)")
		} else {
			fmt.Printf("  approximation bound: objective within (1+%.3f)x of optimal\n", res.EpsUpper)
		}
		fmt.Printf("  constraint satisfied with probability %.1f%% (target 90%%)\n\n",
			100*(0.9+res.Surpluses[0]))
	}
}
