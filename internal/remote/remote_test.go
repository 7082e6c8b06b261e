package remote_test

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"spq/client"
	"spq/internal/core"
	"spq/internal/dist"
	"spq/internal/engine"
	"spq/internal/obs"
	"spq/internal/relation"
	"spq/internal/remote"
	"spq/internal/rng"
	"spq/internal/sketch"
	"spq/internal/spaql"
	"spq/internal/translate"
)

// The tests run in the external test package so they can stand up real
// worker daemons (internal/engine HTTP handlers) — the same topology a
// deployment has, minus the network.

type catalog map[string]*relation.Relation

func (c catalog) Table(name string) (*relation.Relation, bool) {
	rel, ok := c[strings.ToLower(name)]
	return rel, ok
}

// newCatalog builds the deterministic stocks table every node of a test
// fleet loads: identical construction stands in for the shared workload
// seeds of a real deployment.
func newCatalog(t testing.TB, n int) catalog {
	t.Helper()
	rel := relation.New("stocks", n)
	price := make([]float64, n)
	gains := make([]dist.Dist, n)
	for i := 0; i < n; i++ {
		price[i] = float64(40 + 7*(i%9))
		gains[i] = dist.Normal{Mu: 0.5 + float64(i%5)*0.4, Sigma: 0.5 + float64(i%3)*0.5}
	}
	if err := rel.AddDet("price", price); err != nil {
		t.Fatal(err)
	}
	if err := rel.AddStoch("gain", &relation.IndependentVG{AttrID: 1, Dists: gains}); err != nil {
		t.Fatal(err)
	}
	rel.ComputeMeans(rng.NewSource(7), 200)
	return catalog{"stocks": rel}
}

const testQuery = `SELECT PACKAGE(*) FROM stocks SUCH THAT
	SUM(price) <= 300 AND
	SUM(gain) >= -5 WITH PROBABILITY >= 0.8
	MAXIMIZE EXPECTED SUM(gain)`

func coreOptions() *core.Options {
	return &core.Options{Seed: 1, ValidationM: 1000, InitialM: 10, IncrementM: 10, MaxM: 40}
}

func sketchOptions() *sketch.Options {
	return &sketch.Options{GroupSize: 8, MaxCandidates: 32, Shards: 2, Seed: 3}
}

// startWorkers spins k in-process worker daemons over identical catalogs
// and returns their base URLs.
func startWorkers(t *testing.T, k, n int) []string {
	t.Helper()
	urls := make([]string, k)
	for i := 0; i < k; i++ {
		e := engine.New(newCatalog(t, n), &engine.Options{Parallelism: 1})
		srv := httptest.NewServer(e.Handler())
		t.Cleanup(srv.Close)
		urls[i] = srv.URL
	}
	return urls
}

// runSketch evaluates the test query through a fresh coordinator engine
// with the given sketch sub-problem solver (nil = local default).
func runSketch(t *testing.T, solver core.Solver, n int) *engine.Result {
	t.Helper()
	e := engine.New(newCatalog(t, n), &engine.Options{
		ResultCacheSize: -1, // compare solves, not cache hits
		Parallelism:     1,
		SketchSolver:    solver,
	})
	res, err := e.Query(context.Background(), engine.Request{
		Query:   testQuery,
		Method:  "sketch",
		Options: coreOptions(),
		Sketch:  sketchOptions(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestRemoteDeterminismMatrix is the acceptance matrix: the coordinator's
// sketch result must be bit-identical (Feasible/Objective/X, and M/Z) to
// pure-local solving for worker pools of size 0, 1, and 2.
func TestRemoteDeterminismMatrix(t *testing.T) {
	const n = 96
	baseline := runSketch(t, nil, n)
	if baseline.Sketch == nil || baseline.Sketch.FellBack {
		t.Fatalf("baseline did not exercise the sketch pipeline: %+v", baseline.Sketch)
	}

	for _, pool := range []int{0, 1, 2} {
		t.Run(fmt.Sprintf("workers=%d", pool), func(t *testing.T) {
			rs, err := remote.New(remote.Options{Workers: startWorkers(t, pool, n)})
			if err != nil {
				t.Fatal(err)
			}
			res := runSketch(t, rs, n)
			assertSameSolution(t, baseline, res)
			st := rs.Stats()
			if pool == 0 && st.Dispatched != 0 {
				t.Fatalf("empty pool dispatched %d sub-solves", st.Dispatched)
			}
			if pool > 0 {
				// 2 shard sketches + 1 refine, all through the solver seam.
				if st.Dispatched != 3 {
					t.Fatalf("dispatched = %d, want 3 (2 shards + refine)", st.Dispatched)
				}
				if st.Fallbacks != 0 || st.Failures != 0 {
					t.Fatalf("healthy pool reported fallbacks/failures: %+v", st)
				}
				assertDispatchSpansNested(t, res)
			}
		})
	}
}

// assertDispatchSpansNested checks the observability contract of a dispatch:
// every sub-solve shows up in the coordinator's trace as a remote/dispatch
// span carrying the worker's grafted span tree — a worker "query" root that
// adopted the coordinator's trace ID (via the X-Spq-Trace header) and ran a
// real solve. Structure and names only; timings are wall-clock and free.
func assertDispatchSpansNested(t *testing.T, res *engine.Result) {
	t.Helper()
	if res.Trace == nil {
		t.Fatal("coordinator query returned no trace")
	}
	var dispatches []*client.TraceSpan
	res.Trace.Walk(func(d *client.TraceSpan) {
		if d.Name == "remote/dispatch" {
			dispatches = append(dispatches, d)
		}
	})
	if len(dispatches) != 3 {
		t.Fatalf("trace has %d remote/dispatch spans, want 3:\n%s", len(dispatches), res.Trace.Render())
	}
	for _, d := range dispatches {
		if d.Attrs["worker"] == "" {
			t.Fatalf("dispatch span has no worker attr: %v", d.Attrs)
		}
		var graft *client.TraceSpan
		for _, c := range d.Children {
			if c.Name == "query" {
				graft = c
			}
		}
		if graft == nil {
			t.Fatalf("dispatch span carries no grafted worker tree:\n%s", res.Trace.Render())
		}
		if graft.TraceID != res.Trace.TraceID {
			t.Fatalf("worker root trace id = %q, coordinator = %q: header propagation broken",
				graft.TraceID, res.Trace.TraceID)
		}
		solves := 0
		graft.Walk(func(s *client.TraceSpan) {
			if obs.PhaseName(s.Name) == "solve" {
				solves++
			}
		})
		if solves == 0 {
			t.Fatalf("grafted worker tree shows no solve spans:\n%s", graft.Render())
		}
	}
}

func assertSameSolution(t *testing.T, want, got *engine.Result) {
	t.Helper()
	if got.Feasible != want.Feasible {
		t.Fatalf("feasible = %v, want %v", got.Feasible, want.Feasible)
	}
	if got.Objective != want.Objective {
		t.Fatalf("objective = %v, want %v (diff %g)", got.Objective, want.Objective, got.Objective-want.Objective)
	}
	if got.M != want.M || got.Z != want.Z {
		t.Fatalf("M/Z = %d/%d, want %d/%d", got.M, got.Z, want.M, want.Z)
	}
	if !reflect.DeepEqual(got.X, want.X) {
		t.Fatalf("packages differ:\n got %v\nwant %v", got.X, want.X)
	}
}

// TestRemoteDirectSolve checks the solver seam below the engine: a direct
// RemoteSolver.Solve on a translated problem matches the local solver
// bit-for-bit and forwards the worker's streamed progress.
func TestRemoteDirectSolve(t *testing.T) {
	const n = 24
	cat := newCatalog(t, n)
	q, err := spaql.Parse(testQuery)
	if err != nil {
		t.Fatal(err)
	}
	silp, err := translate.Build(q, cat["stocks"], nil)
	if err != nil {
		t.Fatal(err)
	}

	opts := coreOptions()
	local, err := core.SummarySearchSolver.Solve(context.Background(), silp, opts)
	if err != nil {
		t.Fatal(err)
	}

	rs, err := remote.New(remote.Options{Workers: startWorkers(t, 1, n)})
	if err != nil {
		t.Fatal(err)
	}
	var events atomic.Int64
	ropts := *opts
	ropts.Progress = func(p core.Progress) {
		if p.X != nil || p.Rel != nil {
			t.Error("forwarded wire progress should carry no candidate package")
		}
		events.Add(1)
	}
	got, err := rs.Solve(context.Background(), silp, &ropts)
	if err != nil {
		t.Fatal(err)
	}
	if got.Feasible != local.Feasible || got.Objective != local.Objective || !reflect.DeepEqual(got.X, local.X) {
		t.Fatalf("remote solve differs from local:\n got %+v\nwant %+v", got, local)
	}
	if got.M != local.M || got.Z != local.Z || len(got.Iterations) != len(local.Iterations) {
		t.Fatalf("history differs: M/Z/iters %d/%d/%d vs %d/%d/%d",
			got.M, got.Z, len(got.Iterations), local.M, local.Z, len(local.Iterations))
	}
	if events.Load() == 0 {
		t.Fatal("no progress events forwarded from the worker")
	}
}

// TestRemoteWorkerFailureFallback kills the worker mid-solve (submissions
// succeed, every poll afterwards breaks) and checks the coordinator falls
// back to a bit-identical local solve.
func TestRemoteWorkerFailureFallback(t *testing.T) {
	const n = 24
	cat := newCatalog(t, n)
	q, _ := spaql.Parse(testQuery)
	silp, err := translate.Build(q, cat["stocks"], nil)
	if err != nil {
		t.Fatal(err)
	}
	opts := coreOptions()
	local, err := core.SummarySearchSolver.Solve(context.Background(), silp, opts)
	if err != nil {
		t.Fatal(err)
	}

	// A worker that accepts the job, then dies: submits proxy to a real
	// engine, polls all fail (as if the process was killed mid-solve).
	worker := engine.New(newCatalog(t, n), &engine.Options{Parallelism: 1})
	h := worker.Handler()
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			h.ServeHTTP(w, r)
			return
		}
		http.Error(w, "worker killed", http.StatusInternalServerError)
	}))
	defer flaky.Close()

	rs, err := remote.New(remote.Options{Workers: []string{flaky.URL}})
	if err != nil {
		t.Fatal(err)
	}
	got, err := rs.Solve(context.Background(), silp, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got.Feasible != local.Feasible || got.Objective != local.Objective || !reflect.DeepEqual(got.X, local.X) {
		t.Fatalf("fallback solve differs from local:\n got %+v\nwant %+v", got, local)
	}
	st := rs.Stats()
	if st.Fallbacks != 1 || st.Failures != 1 {
		t.Fatalf("stats = %+v, want 1 fallback / 1 failure", st)
	}
	if st.WorkersDown != 1 {
		t.Fatalf("failed worker not in backoff: %+v", st)
	}

	// Dead-from-the-start worker (connection refused) falls back too.
	closed := httptest.NewServer(http.NotFoundHandler())
	closed.Close()
	rs2, err := remote.New(remote.Options{Workers: []string{closed.URL}})
	if err != nil {
		t.Fatal(err)
	}
	got2, err := rs2.Solve(context.Background(), silp, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got2.X, local.X) {
		t.Fatal("fallback after connection failure differs from local")
	}
}

// TestRemoteInfeasiblePropagation: a deterministically infeasible
// sub-problem must come back as core.ErrInfeasible — recognized by
// errors.Is across the dispatch boundary — without burning a local
// fallback solve and without penalizing the (healthy) worker.
func TestRemoteInfeasiblePropagation(t *testing.T) {
	const n = 16
	cat := newCatalog(t, n)
	q, err := spaql.Parse(`SELECT PACKAGE(*) FROM stocks SUCH THAT
		COUNT(*) >= 5 AND COUNT(*) <= 2 AND
		SUM(gain) >= 0 WITH PROBABILITY >= 0.5`)
	if err != nil {
		t.Fatal(err)
	}
	silp, err := translate.Build(q, cat["stocks"], nil)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := remote.New(remote.Options{Workers: startWorkers(t, 1, n)})
	if err != nil {
		t.Fatal(err)
	}
	_, err = rs.Solve(context.Background(), silp, coreOptions())
	if !errors.Is(err, core.ErrInfeasible) {
		t.Fatalf("err = %v, want core.ErrInfeasible", err)
	}
	st := rs.Stats()
	if st.Dispatched != 1 || st.Fallbacks != 0 || st.Failures != 0 || st.WorkersDown != 0 {
		t.Fatalf("infeasibility mis-accounted: %+v", st)
	}
}

// TestRemoteErrorCodePropagation: with fallback disabled, a worker-side
// structured error must surface end-to-end with its stable code — the
// coordinator's job error used to collapse everything to "internal".
func TestRemoteErrorCodePropagation(t *testing.T) {
	const n = 16
	// A worker that rejects every submission with a structured timeout.
	sick := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusGatewayTimeout)
		fmt.Fprint(w, `{"error":{"code":"timeout","message":"worker deadline exceeded"}}`)
	}))
	defer sick.Close()

	rs, err := remote.New(remote.Options{Workers: []string{sick.URL}, NoFallback: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := core.RegisterSolver(rs); err != nil {
		t.Fatal(err)
	}

	e := engine.New(newCatalog(t, n), &engine.Options{Parallelism: 1, ResultCacheSize: -1})
	job, err := e.Submit(engine.Request{Query: testQuery, Method: "remote", Options: coreOptions()})
	if err != nil {
		t.Fatal(err)
	}
	<-job.Done()
	snap := job.Snapshot(0)
	if snap.State != client.JobFailed {
		t.Fatalf("job state = %s, want failed", snap.State)
	}
	if snap.Error == nil || snap.Error.Code != client.CodeTimeout {
		t.Fatalf("job error = %+v, want code %q end-to-end", snap.Error, client.CodeTimeout)
	}
	if !strings.Contains(snap.Error.Message, "worker deadline exceeded") {
		t.Fatalf("worker message lost: %q", snap.Error.Message)
	}
}

// TestRendezvousAssignment: identical sub-problems map to the same worker
// — and actually hit that worker's result cache, which requires dispatch
// requests to be byte-stable (no per-dispatch timeouts or other jitter in
// the submission) — while different keys spread over the pool.
func TestRendezvousAssignment(t *testing.T) {
	const n = 24
	var hits [2]atomic.Int64
	engines := make([]*engine.Engine, 2)
	urls := make([]string, 2)
	for i := 0; i < 2; i++ {
		i := i
		engines[i] = engine.New(newCatalog(t, n), &engine.Options{Parallelism: 1})
		h := engines[i].Handler()
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodPost {
				hits[i].Add(1)
			}
			h.ServeHTTP(w, r)
		}))
		t.Cleanup(srv.Close)
		urls[i] = srv.URL
	}
	cat := newCatalog(t, n)
	q, _ := spaql.Parse(testQuery)
	silp, err := translate.Build(q, cat["stocks"], nil)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := remote.New(remote.Options{Workers: urls})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		// A fresh deadline per call, as the engine's per-query timeout
		// gives every real dispatch: the remaining budget differs by
		// scheduling jitter, and the submission must stay byte-stable
		// anyway for the worker's result cache to hit.
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		_, err := rs.Solve(ctx, silp, coreOptions())
		cancel()
		if err != nil {
			t.Fatal(err)
		}
	}
	a, b := hits[0].Load(), hits[1].Load()
	if a+b != 3 || (a != 0 && b != 0) {
		t.Fatalf("identical sub-problems spread across workers: %d/%d", a, b)
	}
	cacheHits := engines[0].Stats().ResultCacheHits + engines[1].Stats().ResultCacheHits
	if cacheHits != 2 {
		t.Fatalf("worker result-cache hits = %d, want 2 (repeat dispatches must be byte-stable)", cacheHits)
	}
	// A different seed is a different sub-problem key; over several seeds
	// both workers should see traffic (rendezvous spreads by key).
	for seed := uint64(2); seed < 12; seed++ {
		o := coreOptions()
		o.Seed = seed
		if _, err := rs.Solve(context.Background(), silp, o); err != nil {
			t.Fatal(err)
		}
	}
	if hits[0].Load() == a || hits[1].Load() == b {
		t.Fatalf("varying keys never reached one of the workers: %d/%d", hits[0].Load(), hits[1].Load())
	}
}

// TestRemoteCacheKeyName: a remote solver keys result caches as its inner
// method, so a coordinator and a locally solving peer derive the same
// sketch cache key for the same computation (replicated entries stay
// shareable across heterogeneously configured fleet nodes).
func TestRemoteCacheKeyName(t *testing.T) {
	rs, err := remote.New(remote.Options{Workers: []string{"http://w1:1"}})
	if err != nil {
		t.Fatal(err)
	}
	localKey := (&sketch.Options{GroupSize: 8, Shards: 2}).Key()
	remoteKey := (&sketch.Options{GroupSize: 8, Shards: 2, Solver: rs}).Key()
	if localKey != remoteKey {
		t.Fatalf("sketch cache keys diverge by solver config:\n local %s\nremote %s", localKey, remoteKey)
	}
	naiveRS, err := remote.New(remote.Options{Workers: []string{"http://w1:1"}, Inner: "naive"})
	if err != nil {
		t.Fatal(err)
	}
	naiveKey := (&sketch.Options{GroupSize: 8, Shards: 2, Solver: naiveRS}).Key()
	if naiveKey == localKey {
		t.Fatal("remote(naive) must not share a key with summarysearch")
	}
}
