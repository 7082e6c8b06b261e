// The server example shows the concurrent execution engine serving sPaQL
// query traffic over HTTP: it starts the same engine the spqd daemon runs
// (in-process, on a random local port), then fires a burst of concurrent
// clients at it. The output shows admission waits, plan-cache hits on
// repeated queries, and the /stats counters after the burst.
//
// Run with:
//
//	go run ./examples/server
//
// To run against a standalone daemon instead, start one in another
// terminal (`go run ./cmd/spqd -workload portfolio -n 120`) and submit the
// same requests to its POST /v1/queries with curl.
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net"
	"net/http"
	"sync"
	"time"

	"spq"
	"spq/client"
	"spq/internal/rng"
	"spq/internal/workload"
)

func main() {
	// Load the Portfolio workload and stand up the engine's HTTP API —
	// exactly what `spqd -workload portfolio` serves.
	db := spq.NewDB()
	db.MeansM = 500
	inst := workload.Portfolio(workload.Config{N: 60, Seed: 42, MeansM: 500})
	for _, name := range inst.TableNames() {
		if err := db.Register(inst.Tables[name]); err != nil {
			log.Fatal(err)
		}
	}
	eng := spq.NewEngine(db, &spq.EngineOptions{
		MaxInFlight:    4,
		DefaultTimeout: 30 * time.Second,
	})

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	srv := &http.Server{Handler: eng.Handler()}
	go func() {
		if err := srv.Serve(ln); err != http.ErrServerClosed {
			log.Fatal(err)
		}
	}()
	base := "http://" + ln.Addr().String()
	fmt.Printf("spqd-style server on %s\n\n", base)

	// A small query mix over the workload's VaR constraint: two distinct
	// plans, issued repeatedly, so the burst exercises both the solver
	// concurrency and the plan cache.
	queries := []string{
		`SELECT PACKAGE(*) FROM trades_2day_all SUCH THAT
			SUM(price) <= 1000 AND
			SUM(gain) >= -20 WITH PROBABILITY >= 0.9
			MAXIMIZE EXPECTED SUM(gain)`,
		`SELECT PACKAGE(*) FROM trades_2day_all SUCH THAT
			SUM(price) <= 500 AND
			SUM(gain) >= -5 WITH PROBABILITY >= 0.95
			MAXIMIZE EXPECTED SUM(gain)`,
	}

	// One independent optimization-seed substream per plan, derived with
	// the rng split API; clients issuing the same plan share its seed, so
	// their answers are comparable (the engine is deterministic per seed).
	planSeeds := rng.NewSource(42).Split(len(queries))

	cl, err := client.New(base)
	if err != nil {
		log.Fatal(err)
	}
	const clients = 8
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			start := time.Now()
			// Run submits the query to POST /v1/queries and long-polls the
			// job until it is terminal.
			job, err := cl.Run(context.Background(), client.SubmitRequest{
				Query:     queries[c%len(queries)],
				TimeoutMS: 20000,
				Options: &client.SolveOptions{
					Seed:        planSeeds[c%len(queries)].Base(),
					ValidationM: 1000,
					InitialM:    10,
					MaxM:        40,
					FixedZ:      1,
				},
			})
			if err == nil {
				err = job.Err()
			}
			if err != nil {
				log.Printf("client %d: %v", c, err)
				return
			}
			r := job.Result
			fmt.Printf("client %d: plan %d feasible=%v objective=%.4f size=%.0f (M=%d, Z=%d) plan_cache_hit=%v wait=%dms total=%dms\n",
				c, c%len(queries), r.Feasible, r.Objective, r.PackageSize,
				r.M, r.Z, r.PlanCacheHit, r.WaitMS, time.Since(start).Milliseconds())
		}(c)
	}
	wg.Wait()

	// Engine counters after the burst: expect 8 queries and plan-cache
	// hits for every re-issued query text.
	resp, err := http.Get(base + "/stats")
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	var stats map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		log.Fatal(err)
	}
	out, _ := json.MarshalIndent(stats, "", "  ")
	fmt.Printf("\n/stats after burst:\n%s\n", out)
}
