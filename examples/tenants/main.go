// The tenants example demonstrates (and asserts — it exits non-zero on any
// violation, so CI runs it as the tenant smoke test) the engine's
// multi-tenant serving behaviour:
//
//  1. Weighted-fair admission. Two tenants, gold (weight 3) and bronze
//     (weight 1), flood a one-slot engine with identical cheap queries.
//     While both lanes stay backlogged, the deficit-round-robin scheduler
//     must admit them in a 3:1 ratio — the example measures a steady-state
//     window from /stats and requires the gold share of admissions to land
//     within 10% of the configured 75%.
//
//  2. Deadline-aware degradation. A query made effectively unbounded
//     (epsilon 1e-9, no scenario ceiling) under a tight request deadline
//     must come back degraded=true with a feasible anytime package and its
//     achieved gap — not a timeout error.
//
// Run with:
//
//	go run ./examples/tenants
package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"math"
	"net"
	"net/http"
	"sync"
	"time"

	"spq"
	"spq/client"
	"spq/internal/workload"
)

const (
	goldWeight   = 3
	bronzeWeight = 1
	goldShare    = float64(goldWeight) / float64(goldWeight+bronzeWeight)
	shareSlack   = 0.10 * goldShare // "within 10%" of the configured share

	workersPerTenant = 8
	warmupAdmissions = 16  // skip the ramp while both lanes fill
	windowAdmissions = 120 // 30 full 3:1 DRR cycles — edge effects < 3%
)

// cheapQuery is the fairness-phase workload: small enough to finish in
// milliseconds, so the measurement window holds hundreds of admissions.
const cheapQuery = `SELECT PACKAGE(*) FROM trades_2day_all SUCH THAT
	SUM(price) <= 800 AND
	SUM(gain) >= -10 WITH PROBABILITY >= 0.9
	MAXIMIZE EXPECTED SUM(gain)`

// tenantRow is the slice of /stats this example reads per tenant.
type tenantRow struct {
	Weight   int   `json:"weight"`
	InFlight int   `json:"in_flight"`
	Waiting  int   `json:"waiting"`
	Admitted int64 `json:"admitted"`
	Rejected int64 `json:"rejected"`
}

type statsBody struct {
	Degraded int64                `json:"degraded"`
	Tenants  map[string]tenantRow `json:"tenants"`
}

func getStats(base string) (statsBody, error) {
	var s statsBody
	resp, err := http.Get(base + "/stats")
	if err != nil {
		return s, err
	}
	defer resp.Body.Close()
	return s, json.NewDecoder(resp.Body).Decode(&s)
}

func main() {
	// One solve slot makes the weighted-fair schedule directly observable:
	// every admission is a scheduler decision. The result cache is disabled
	// so each request really solves (cache hits bypass admission).
	db := spq.NewDB()
	db.MeansM = 300
	inst := workload.Portfolio(workload.Config{N: 40, Seed: 42, MeansM: 300})
	for _, name := range inst.TableNames() {
		if err := db.Register(inst.Tables[name]); err != nil {
			log.Fatal(err)
		}
	}
	eng := spq.NewEngine(db, &spq.EngineOptions{
		MaxInFlight:     1,
		MaxQueue:        256,
		MaxJobs:         2048,
		Parallelism:     1,
		ResultCacheSize: -1,
		DefaultTimeout:  30 * time.Second,
		Tenants: []spq.TenantConfig{
			{Name: "gold", Weight: goldWeight},
			{Name: "bronze", Weight: bronzeWeight},
		},
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
	fmt.Printf("two-tenant engine (gold:%d, bronze:%d) on %s\n\n", goldWeight, bronzeWeight, base)

	// ---- Phase 1: weighted-fair admission under sustained overload ----

	cl, err := client.New(base)
	if err != nil {
		log.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, tenant := range []string{"gold", "bronze"} {
		for w := 0; w < workersPerTenant; w++ {
			wg.Add(1)
			go func(tenant string) {
				defer wg.Done()
				sub := client.SubmitRequest{
					Query:     cheapQuery,
					Tenant:    tenant,
					TimeoutMS: 20000,
					Options: &client.SolveOptions{
						Seed:        7,
						ValidationM: 200,
						InitialM:    10,
						MaxM:        20,
						FixedZ:      1,
					},
				}
				// A closed loop: one job in flight per worker (submit, wait,
				// repeat). The client retries a submit-time 429; a job that
				// admission rejected is simply submitted again.
				for {
					select {
					case <-stop:
						return
					default:
					}
					if _, err := cl.Run(context.Background(), sub); err != nil {
						var apiErr *client.Error
						if !errors.As(err, &apiErr) {
							return // listener closed during shutdown
						}
					}
				}
			}(tenant)
		}
	}

	// Wait until both lanes are saturated past the ramp, snapshot, then
	// measure a steady-state admission window.
	waitStats := func(what string, cond func(statsBody) bool) statsBody {
		deadline := time.Now().Add(2 * time.Minute)
		for {
			s, err := getStats(base)
			if err == nil && cond(s) {
				return s
			}
			if time.Now().After(deadline) {
				close(stop)
				log.Fatalf("timed out waiting for %s (stats: %+v, err: %v)", what, s, err)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	admitted := func(s statsBody) int64 { return s.Tenants["gold"].Admitted + s.Tenants["bronze"].Admitted }
	t0 := waitStats("warmup", func(s statsBody) bool {
		return admitted(s) >= warmupAdmissions &&
			s.Tenants["gold"].Waiting > 0 && s.Tenants["bronze"].Waiting > 0
	})
	t1 := waitStats("measurement window", func(s statsBody) bool {
		return admitted(s)-admitted(t0) >= windowAdmissions
	})
	close(stop)
	wg.Wait()

	dGold := t1.Tenants["gold"].Admitted - t0.Tenants["gold"].Admitted
	dBronze := t1.Tenants["bronze"].Admitted - t0.Tenants["bronze"].Admitted
	share := float64(dGold) / float64(dGold+dBronze)
	fmt.Printf("steady-state window: gold %d admissions, bronze %d — gold share %.3f (want %.2f ± %.3f)\n",
		dGold, dBronze, share, goldShare, shareSlack)
	if math.Abs(share-goldShare) > shareSlack {
		log.Fatalf("FAIL: admission share %.3f outside %.2f ± %.3f", share, goldShare, shareSlack)
	}
	if dBronze == 0 {
		log.Fatal("FAIL: bronze tenant starved")
	}

	// ---- Phase 2: deadline-aware degradation through the v1 job API ----

	job, err := cl.Run(context.Background(), client.SubmitRequest{
		Query:     cheapQuery,
		Tenant:    "gold",
		TimeoutMS: 800,
		Options: &client.SolveOptions{
			Seed:        7,
			ValidationM: 1000,
			InitialM:    10,
			IncrementM:  10,
			MaxM:        1 << 20,
			Epsilon:     1e-9, // unreachable gap: only the deadline can stop this
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	if job.State != client.JobSucceeded || job.Result == nil {
		log.Fatalf("FAIL: deadline-bound job did not degrade gracefully: state=%s error=%+v", job.State, job.Error)
	}
	res := job.Result
	if !res.Degraded || !res.Feasible || len(res.Package) == 0 {
		log.Fatalf("FAIL: want degraded feasible package, got degraded=%v feasible=%v |package|=%d",
			res.Degraded, res.Feasible, len(res.Package))
	}
	fmt.Printf("degraded response: feasible=%v objective=%.4f gap=%.4f |package|=%d solve=%dms\n",
		res.Feasible, res.Objective, res.Gap, len(res.Package), res.SolveMS)

	final, err := getStats(base)
	if err != nil {
		log.Fatal(err)
	}
	if final.Degraded < 1 {
		log.Fatalf("FAIL: /stats degraded = %d, want >= 1", final.Degraded)
	}
	fmt.Printf("\n/stats: degraded=%d gold=%+v bronze=%+v\n", final.Degraded, final.Tenants["gold"], final.Tenants["bronze"])
	fmt.Println("PASS: weighted shares within 10% and degraded responses served")

	srv.Close()
}
