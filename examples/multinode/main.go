// The multinode example runs a three-daemon fleet in one process — one
// coordinator and two workers, the same topology `spqd -workers` deploys
// across machines — and shows the two multi-node mechanisms working:
//
//  1. Remote solving: the coordinator evaluates a sketch query whose shard
//     sub-solves are dispatched to the workers as v1 jobs (the "remote"
//     solver behind the core.Solver seam), and the result is verified
//     bit-identical to solving everything locally.
//  2. Result-cache replication: the workers are peers; a query solved on
//     one is answered by the other from its replicated cache without
//     solving.
//  3. Fleet-wide observability: the dispatched query produces ONE trace —
//     the workers adopt the coordinator's trace ID from the X-Spq-Trace
//     header and their span trees come back grafted under the dispatch
//     spans — and every daemon's /metrics endpoint exports phase-latency
//     histograms that agree with its own counters.
//
// Every node loads the portfolio workload from the same seed — the
// shared-data assumption a real fleet meets the same way. Run with:
//
//	go run ./examples/multinode
//
// See OPERATIONS.md for the corresponding spqd invocations on real hosts.
package main

import (
	"bufio"
	"context"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"time"

	"spq"
	"spq/client"
	"spq/internal/obs"
	"spq/internal/resultcache"
	"spq/internal/workload"
)

const query = `SELECT PACKAGE(*) FROM trades_2day_all SUCH THAT
	SUM(price) <= 600 AND
	SUM(gain) >= -10 WITH PROBABILITY >= 0.8
	MAXIMIZE EXPECTED SUM(gain)`

// newDB loads the shared workload; every fleet member calls it with the
// same configuration, which is what makes their answers interchangeable.
func newDB() *spq.DB {
	db := spq.NewDB()
	db.MeansM = 500
	inst := workload.Portfolio(workload.Config{N: 120, Seed: 42, MeansM: 500})
	for _, name := range inst.TableNames() {
		if err := db.Register(inst.Tables[name]); err != nil {
			log.Fatal(err)
		}
	}
	return db
}

// serve starts one daemon on a random local port and returns its base URL.
func serve(eng *spq.Engine) string {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go http.Serve(ln, eng.Handler())
	return "http://" + ln.Addr().String()
}

func options() *spq.Options {
	return &spq.Options{Seed: 7, ValidationM: 1000, InitialM: 10, IncrementM: 10, MaxM: 40}
}

func request() spq.EngineRequest {
	return spq.EngineRequest{
		Query:   query,
		Method:  "sketch",
		Options: options(),
		Sketch:  &spq.SketchOptions{GroupSize: 8, MaxCandidates: 32, Shards: 2, Seed: 3},
	}
}

func main() {
	fail := func(format string, args ...any) {
		fmt.Printf("FAIL: "+format+"\n", args...)
		os.Exit(1)
	}

	// Two worker daemons, peered with each other so their result caches
	// replicate (mirrors `spqd -peers`).
	lnA, _ := net.Listen("tcp", "127.0.0.1:0")
	lnB, _ := net.Listen("tcp", "127.0.0.1:0")
	urlA := "http://" + lnA.Addr().String()
	urlB := "http://" + lnB.Addr().String()

	storeA := resultcache.NewReplicating(resultcache.NewMemory(256), []string{urlB}, nil)
	storeB := resultcache.NewReplicating(resultcache.NewMemory(256), []string{urlA}, nil)
	workerA := spq.NewEngine(newDB(), &spq.EngineOptions{ResultCache: storeA})
	workerB := spq.NewEngine(newDB(), &spq.EngineOptions{ResultCache: storeB})
	go http.Serve(lnA, workerA.Handler())
	go http.Serve(lnB, workerB.Handler())
	fmt.Printf("workers up: %s %s\n", urlA, urlB)

	// The coordinator daemon dispatches sketch sub-solves to the workers
	// (mirrors `spqd -workers ... -solver remote`).
	rs, err := spq.NewRemoteSolver(spq.RemoteSolverOptions{
		Workers: []string{urlA, urlB},
		Logf:    log.Printf,
	})
	if err != nil {
		log.Fatal(err)
	}
	coordinator := spq.NewEngine(newDB(), &spq.EngineOptions{
		SketchSolver: rs,
		RemoteStats:  rs.Stats,
	})
	coordURL := serve(coordinator)
	fmt.Printf("coordinator up: %s\n", coordURL)

	// A pure-local reference engine computes the answer the fleet must
	// reproduce bit-for-bit.
	local := spq.NewEngine(newDB(), nil)
	ctx := context.Background()

	// --- 1. result-cache replication ---
	// (Run first: once remote dispatch starts, sub-solve entries replicate
	// between the workers too, and this demo wants a quiet wire.)
	simple := spq.EngineRequest{Query: query, Options: options()}
	if _, err := workerA.Query(ctx, simple); err != nil {
		log.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for workerB.Stats().CacheReceived == 0 {
		if time.Now().After(deadline) {
			fail("worker B never received the replicated entry: %+v", storeA.Counters())
		}
		time.Sleep(10 * time.Millisecond)
	}
	hit, err := workerB.Query(ctx, simple)
	if err != nil {
		log.Fatal(err)
	}
	if !hit.ResultCacheHit {
		fail("worker B solved a query worker A already solved")
	}
	fmt.Printf("\ncache replication: worker B answered worker A's query from the replicated cache ✓\n")
	fmt.Printf("  worker A pushed %d, worker B received %d\n",
		storeA.Counters().Replicated, workerB.Stats().CacheReceived)

	// --- 2. remote solving ---
	// Sketch shards report concurrently.
	var phasesMu sync.Mutex
	phases := map[string]int{}
	req := request()
	req.Progress = func(p spq.Progress) {
		phasesMu.Lock()
		phases[p.Phase]++
		phasesMu.Unlock()
	}
	start := time.Now()
	distributed, err := coordinator.Query(ctx, req)
	if err != nil {
		log.Fatal(err)
	}
	reference, err := local.Query(ctx, request())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsketch query across the fleet: objective %.6g, package size %.0f (%s)\n",
		distributed.Objective, distributed.PackageSize(), time.Since(start).Round(time.Millisecond))
	for phase, n := range phases {
		fmt.Printf("  progress from %-14s %d events\n", phase+":", n)
	}
	st := rs.Stats()
	fmt.Printf("  remote dispatches: %d (fallbacks %d, failures %d)\n", st.Dispatched, st.Fallbacks, st.Failures)
	if st.Dispatched == 0 {
		fail("no sub-solves were dispatched to the workers")
	}
	if distributed.Objective != reference.Objective ||
		distributed.Feasible != reference.Feasible ||
		!reflect.DeepEqual(distributed.Solution.X, reference.Solution.X) {
		fail("distributed result differs from local (obj %v vs %v)", distributed.Objective, reference.Objective)
	}
	fmt.Println("  distributed ≡ local: bit-identical ✓")

	// --- 3. one trace across the fleet ---
	// The coordinator minted the trace; each dispatch carried its ID to a
	// worker in the X-Spq-Trace header, and the worker's span tree came back
	// grafted under the remote/dispatch span. One trace ID, three daemons.
	tr := distributed.Trace
	if tr == nil {
		fail("coordinator query returned no trace")
	}
	spans := 0
	workersSeen := map[string]bool{}
	grafted := 0
	phaseSpans := map[string]int{}
	tr.Walk(func(d *client.TraceSpan) {
		spans++
		phaseSpans[obs.PhaseName(d.Name)]++
		if d.Name != "remote/dispatch" {
			return
		}
		workersSeen[d.Attrs["worker"]] = true
		for _, c := range d.Children {
			if c.Name == "query" {
				grafted++
				if c.TraceID != tr.TraceID {
					fail("worker trace id %q != coordinator %q", c.TraceID, tr.TraceID)
				}
			}
		}
	})
	fmt.Printf("\nfleet trace %s: %d spans, %d dispatches to %d worker(s), %d grafted worker trees\n",
		tr.TraceID, spans, phaseSpans["remote/dispatch"], len(workersSeen), grafted)
	for _, phase := range []string{"sketch/shard", "refine", "solve"} {
		if phaseSpans[phase] == 0 {
			fail("trace has no %s spans: %v", phase, phaseSpans)
		}
	}
	if grafted != phaseSpans["remote/dispatch"] {
		fail("%d dispatches but %d grafted worker trees", phaseSpans["remote/dispatch"], grafted)
	}
	fmt.Printf("  phases observed: sketch/shard ×%d, refine ×%d, solve ×%d — all under one trace ID ✓\n",
		phaseSpans["sketch/shard"], phaseSpans["refine"], phaseSpans["solve"])

	// Every daemon exports /metrics; the phase histograms must agree with
	// the counters the same daemon reports on /stats (shared registry).
	for _, node := range []struct {
		name string
		url  string
		eng  *spq.Engine
	}{{"worker A", urlA, workerA}, {"worker B", urlB, workerB}} {
		solves := scrapeInt(fail, node.url, `spq_phase_latency_seconds_count{phase="solve"}`)
		if want := node.eng.Stats().MilpSolves; solves != want {
			fail("%s: /metrics solve-phase count %d != %d MILP solves on /stats", node.name, solves, want)
		}
		queries := scrapeInt(fail, node.url, `spq_queries_total`)
		if queries != node.eng.Stats().Queries {
			fail("%s: /metrics queries %d != /stats %d", node.name, queries, node.eng.Stats().Queries)
		}
		fmt.Printf("  %s /metrics: %d queries, %d solve-phase observations ≡ /stats ✓\n",
			node.name, queries, solves)
	}
	// The coordinator ran no MILP itself — every solve was dispatched — so
	// its histograms show the sketch phases it drove, not solver time.
	shards := scrapeInt(fail, coordURL, `spq_phase_latency_seconds_count{phase="sketch/shard"}`)
	if shards != int64(phaseSpans["sketch/shard"]) {
		fail("coordinator: /metrics shard-phase count %d != %d shard spans in the trace",
			shards, phaseSpans["sketch/shard"])
	}
	fmt.Printf("  coordinator /metrics: %d sketch/shard observations ≡ trace ✓\n", shards)

	fmt.Println("\nPASS")
}

// scrapeInt fetches a daemon's /metrics and returns one sample's integer
// value, the way a Prometheus scrape would read it. A labelled series that
// was never observed is absent from the exposition and reads as 0: a worker
// the coordinator sent no dispatch has no solve-phase series.
func scrapeInt(fail func(string, ...any), base, sample string) int64 {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		fail("scrape %s: %v", base, err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, sample+" "); ok {
			v, err := strconv.ParseInt(rest, 10, 64)
			if err != nil {
				fail("bad sample %q: %v", line, err)
			}
			return v
		}
	}
	if err := sc.Err(); err != nil {
		fail("scrape %s: %v", base, err)
	}
	return 0
}
