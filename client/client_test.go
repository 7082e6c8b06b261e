package client_test

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"spq/client"
	"spq/internal/core"
	"spq/internal/dist"
	"spq/internal/engine"
	"spq/internal/relation"
	"spq/internal/rng"
)

// catalog is a minimal engine.Catalog over a name → relation map.
type catalog map[string]*relation.Relation

func (c catalog) Table(name string) (*relation.Relation, bool) {
	rel, ok := c[strings.ToLower(name)]
	return rel, ok
}

// newStocks builds the small tractable stocks table the engine tests use.
func newStocks(n int) catalog {
	rel := relation.New("stocks", n)
	price := make([]float64, n)
	gains := make([]dist.Dist, n)
	for i := 0; i < n; i++ {
		price[i] = float64(40 + 7*(i%9))
		gains[i] = dist.Normal{Mu: 0.5 + float64(i%5)*0.4, Sigma: 0.5 + float64(i%3)*0.5}
	}
	if err := rel.AddDet("price", price); err != nil {
		panic(err)
	}
	if err := rel.AddStoch("gain", &relation.IndependentVG{AttrID: 1, Dists: gains}); err != nil {
		panic(err)
	}
	rel.ComputeMeans(rng.NewSource(7), 200)
	return catalog{"stocks": rel}
}

const testQuery = `SELECT PACKAGE(*) FROM stocks SUCH THAT
	SUM(price) <= 300 AND
	SUM(gain) >= -5 WITH PROBABILITY >= 0.8
	MAXIMIZE EXPECTED SUM(gain)`

func testServer(t *testing.T, e *engine.Engine) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(e.Handler())
	t.Cleanup(srv.Close)
	return srv
}

func smallOptions() *client.SolveOptions {
	return &client.SolveOptions{Seed: 1, ValidationM: 1500, InitialM: 10, IncrementM: 10, MaxM: 60}
}

// TestClientSubmitStreamParity is the end-to-end acceptance check: a
// SummarySearch query submitted via client.Submit streams at least one
// intermediate progress update (iteration count + best objective) before
// the terminal state is delivered, and the final result matches the
// synchronous Engine.Query path bit-for-bit.
func TestClientSubmitStreamParity(t *testing.T) {
	e := engine.New(newStocks(15), &engine.Options{ResultCacheSize: -1})
	srv := testServer(t, e)
	c, err := client.New(srv.URL, client.WithPollInterval(200*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	job, err := c.Submit(ctx, client.SubmitRequest{Query: testQuery, Options: smallOptions()})
	if err != nil {
		t.Fatal(err)
	}

	var events []client.Progress
	final, err := c.Stream(ctx, job.ID, func(p client.Progress) {
		events = append(events, p)
	})
	if err != nil {
		t.Fatal(err)
	}
	if final.State != client.JobSucceeded {
		t.Fatalf("state = %q (error %+v)", final.State, final.Error)
	}
	if err := final.Err(); err != nil {
		t.Fatalf("Err() = %v on a succeeded job", err)
	}
	if len(events) == 0 {
		t.Fatal("Stream delivered no progress events before completion")
	}
	for _, ev := range events {
		if ev.Iteration < 1 {
			t.Fatalf("progress event without iteration count: %+v", ev)
		}
	}
	if last := events[len(events)-1]; last.BestObjective != final.Result.Objective {
		t.Fatalf("streamed best objective %v != final objective %v", last.BestObjective, final.Result.Objective)
	}

	// Bit-identical to the synchronous path for the same seed.
	sres, err := e.Query(ctx, engine.Request{
		Query:   testQuery,
		Options: &core.Options{Seed: 1, ValidationM: 1500, InitialM: 10, IncrementM: 10, MaxM: 60},
	})
	if err != nil {
		t.Fatal(err)
	}
	if final.Result.Objective != sres.Objective || final.Result.M != sres.M || final.Result.Z != sres.Z {
		t.Fatalf("async (obj=%v M=%d Z=%d) != sync (obj=%v M=%d Z=%d)",
			final.Result.Objective, final.Result.M, final.Result.Z, sres.Objective, sres.M, sres.Z)
	}
	want := sres.Multiplicities()
	if len(final.Result.Package) != len(want) {
		t.Fatalf("package = %v, want %v", final.Result.Package, want)
	}
	for _, pt := range final.Result.Package {
		if want[pt.Tuple] != pt.Count {
			t.Fatalf("package tuple %d count %d, want %d", pt.Tuple, pt.Count, want[pt.Tuple])
		}
	}
}

// TestClientCancel cancels a long-running job through the client.
func TestClientCancel(t *testing.T) {
	e := engine.New(newStocks(40), &engine.Options{Parallelism: 1})
	srv := testServer(t, e)
	c, err := client.New(srv.URL, client.WithPollInterval(100*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	job, err := c.Submit(ctx, client.SubmitRequest{
		Query: `SELECT PACKAGE(*) FROM stocks SUCH THAT
			SUM(price) <= 2000 AND
			SUM(gain) >= 500 WITH PROBABILITY >= 0.99
			MAXIMIZE EXPECTED SUM(gain)`,
		Options: &client.SolveOptions{Seed: 1, ValidationM: 500000, InitialM: 50, IncrementM: 50, MaxM: 1000},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Cancel(ctx, job.ID); err != nil {
		t.Fatal(err)
	}
	final, err := c.Wait(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != client.JobCancelled {
		t.Fatalf("state = %q, want cancelled", final.State)
	}
	var apiErr *client.Error
	if err := final.Err(); !errors.As(err, &apiErr) || apiErr.Code != client.CodeCancelled {
		t.Fatalf("Err() = %v, want code cancelled", err)
	}
}

// TestClientRetries429: the client retries overload rejections with the
// server-suggested backoff and succeeds once capacity frees up.
func TestClientRetries429(t *testing.T) {
	e := engine.New(newStocks(15), nil)
	inner := e.Handler()
	var attempts atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == "/v1/queries" && attempts.Add(1) <= 2 {
			w.Header().Set("Retry-After", "0") // force the envelope's ms hint
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusTooManyRequests)
			_ = json.NewEncoder(w).Encode(client.ErrorEnvelope{Error: &client.Error{
				Code: client.CodeOverloaded, Message: "synthetic overload", RetryAfterMS: 5,
			}})
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer srv.Close()

	c, err := client.New(srv.URL, client.WithRetries(3), client.WithPollInterval(100*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	job, err := c.Run(ctx, client.SubmitRequest{Query: testQuery, Options: smallOptions()})
	if err != nil {
		t.Fatalf("Run failed despite retries: %v", err)
	}
	if job.State != client.JobSucceeded {
		t.Fatalf("state = %q", job.State)
	}
	if got := attempts.Load(); got != 3 {
		t.Fatalf("submit attempts = %d, want 3 (two 429s then success)", got)
	}

	// With retries disabled the synthetic overload surfaces as *Error.
	attempts.Store(0)
	c2, err := client.New(srv.URL, client.WithRetries(0))
	if err != nil {
		t.Fatal(err)
	}
	_, err = c2.Submit(ctx, client.SubmitRequest{Query: testQuery, Options: smallOptions()})
	var apiErr *client.Error
	if !errors.As(err, &apiErr) || apiErr.Code != client.CodeOverloaded || apiErr.HTTPStatus != http.StatusTooManyRequests {
		t.Fatalf("err = %v, want overloaded *client.Error", err)
	}
}

// TestClientRunTerminalSubmit: when POST /v1/queries answers with a
// terminal job (a result-cache hit), Run returns it after that one request;
// a queued job is polled as before.
func TestClientRunTerminalSubmit(t *testing.T) {
	var requests atomic.Int64
	var submitState atomic.Value
	done := client.Job{ID: "q-1", State: client.JobSucceeded, Result: &client.QueryResult{Feasible: true, Objective: 4.5, ResultCacheHit: true}}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		w.Header().Set("Content-Type", "application/json")
		switch {
		case r.Method == http.MethodPost && r.URL.Path == "/v1/queries":
			job := done
			job.State = submitState.Load().(client.JobState)
			if !job.State.Terminal() {
				job.Result = nil
			}
			w.WriteHeader(http.StatusAccepted)
			_ = json.NewEncoder(w).Encode(job)
		case r.Method == http.MethodGet && r.URL.Path == "/v1/queries/q-1":
			_ = json.NewEncoder(w).Encode(done)
		default:
			w.WriteHeader(http.StatusNotFound)
		}
	}))
	defer srv.Close()

	c, err := client.New(srv.URL, client.WithHTTPClient(srv.Client()), client.WithRetries(0))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		submit   client.JobState
		requests int64
	}{
		{client.JobSucceeded, 1},
		{client.JobQueued, 2},
	} {
		requests.Store(0)
		submitState.Store(tc.submit)
		job, err := c.Run(context.Background(), client.SubmitRequest{Query: testQuery})
		if err != nil {
			t.Fatal(err)
		}
		if job.State != client.JobSucceeded || job.Result == nil || job.Result.Objective != 4.5 {
			t.Fatalf("submit %q: Run returned %+v, want the succeeded job", tc.submit, job)
		}
		if got := requests.Load(); got != tc.requests {
			t.Fatalf("submit %q: Run made %d requests, want %d", tc.submit, got, tc.requests)
		}
	}
}

// TestClientBatchAndList covers the remaining verbs over the wire.
func TestClientBatchAndList(t *testing.T) {
	e := engine.New(newStocks(15), nil)
	srv := testServer(t, e)
	c, err := client.New(srv.URL, client.WithPollInterval(100*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	items, err := c.SubmitBatch(ctx, []client.SubmitRequest{
		{Query: testQuery, Options: smallOptions()},
		{Query: "SELECT NONSENSE"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 2 || items[0].Job == nil || items[1].Error == nil {
		t.Fatalf("batch = %+v", items)
	}
	if items[1].Error.Code != client.CodeInvalidQuery {
		t.Fatalf("batch error code = %q", items[1].Error.Code)
	}
	if _, err := c.Wait(ctx, items[0].Job.ID); err != nil {
		t.Fatal(err)
	}
	jobs, err := c.List(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 || jobs[0].ID != items[0].Job.ID {
		t.Fatalf("list = %+v", jobs)
	}
	if _, err := c.Get(ctx, "no-such-job"); err == nil {
		t.Fatal("Get of unknown job succeeded")
	}
}
