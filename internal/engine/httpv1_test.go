package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"spq/client"
)

func v1Server(t *testing.T, e *Engine) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(e.Handler())
	t.Cleanup(srv.Close)
	return srv
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeJob(t *testing.T, resp *http.Response, wantStatus int) *client.Job {
	t.Helper()
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("status = %d, want %d", resp.StatusCode, wantStatus)
	}
	var job client.Job
	if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
		t.Fatal(err)
	}
	return &job
}

// waitJob long-polls a submitted job until it is terminal.
func waitJob(t *testing.T, srv *httptest.Server, job *client.Job) *client.Job {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for !job.State.Terminal() {
		if time.Now().After(deadline) {
			t.Fatalf("job %s never finished", job.ID)
		}
		resp, err := http.Get(srv.URL + "/v1/queries/" + job.ID + "?wait_ms=1000")
		if err != nil {
			t.Fatal(err)
		}
		job = decodeJob(t, resp, http.StatusOK)
	}
	return job
}

func decodeEnvelope(t *testing.T, resp *http.Response, wantStatus int, wantCode string) *client.Error {
	t.Helper()
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("status = %d, want %d", resp.StatusCode, wantStatus)
	}
	var env client.ErrorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatalf("error body is not the envelope: %v", err)
	}
	if env.Error == nil || env.Error.Code != wantCode {
		t.Fatalf("error = %+v, want code %q", env.Error, wantCode)
	}
	return env.Error
}

// TestV1SubmitPollResult drives the happy path over the wire: typed
// submission, long-poll to completion, progress events, result payload.
func TestV1SubmitPollResult(t *testing.T) {
	e := New(newCatalog(t, 15), &Options{ResultCacheSize: -1})
	srv := v1Server(t, e)

	job := decodeJob(t, postJSON(t, srv.URL+"/v1/queries", client.SubmitRequest{
		Query:   testQuery,
		Options: &client.SolveOptions{Seed: 1, ValidationM: 1500, InitialM: 10, IncrementM: 10, MaxM: 60},
	}), http.StatusAccepted)
	if job.ID == "" || job.State.Terminal() && job.State != client.JobSucceeded {
		t.Fatalf("bad submit response: %+v", job)
	}

	job = waitJob(t, srv, job)
	if job.State != client.JobSucceeded {
		t.Fatalf("state = %q (err %+v), want succeeded", job.State, job.Error)
	}
	if job.Result == nil || !job.Result.Feasible || len(job.Result.Package) == 0 {
		t.Fatalf("bad result: %+v", job.Result)
	}
	// since=0 poll returns the full event history even after completion.
	resp, err := http.Get(srv.URL + "/v1/queries/" + job.ID)
	if err != nil {
		t.Fatal(err)
	}
	job = decodeJob(t, resp, http.StatusOK)
	if len(job.Events) == 0 || job.Events[0].Iteration < 1 {
		t.Fatalf("no usable progress events: %+v", job.Events)
	}
	if len(job.BestPackage) == 0 || job.BestObjective != job.Result.Objective {
		t.Fatalf("best-so-far not exposed: best=%v obj=%v", job.BestPackage, job.BestObjective)
	}

	// The listing shows the job without event bodies.
	resp, err = http.Get(srv.URL + "/v1/queries")
	if err != nil {
		t.Fatal(err)
	}
	var list client.ListResponse
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list.Jobs) != 1 || list.Jobs[0].ID != job.ID || len(list.Jobs[0].Events) != 0 {
		t.Fatalf("bad listing: %+v", list.Jobs)
	}
}

// TestV1CancelEndpoint cancels a running job over the wire.
func TestV1CancelEndpoint(t *testing.T) {
	e := New(newCatalog(t, 40), &Options{Parallelism: 1})
	srv := v1Server(t, e)

	job := decodeJob(t, postJSON(t, srv.URL+"/v1/queries", client.SubmitRequest{
		Query: hardRequest().Query,
		Options: &client.SolveOptions{
			Seed: 1, ValidationM: 500000, InitialM: 50, IncrementM: 50, MaxM: 1000,
		},
	}), http.StatusAccepted)

	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/queries/"+job.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	got := decodeJob(t, resp, http.StatusOK)
	deadline := time.Now().Add(30 * time.Second)
	for !got.State.Terminal() {
		if time.Now().After(deadline) {
			t.Fatal("cancelled job never terminal")
		}
		r2, err := http.Get(srv.URL + "/v1/queries/" + job.ID + "?wait_ms=500")
		if err != nil {
			t.Fatal(err)
		}
		got = decodeJob(t, r2, http.StatusOK)
	}
	if got.State != client.JobCancelled {
		t.Fatalf("state = %q, want cancelled", got.State)
	}
	if got.Error == nil || got.Error.Code != client.CodeCancelled {
		t.Fatalf("error = %+v, want code cancelled", got.Error)
	}
}

// TestV1Batch submits a mixed batch: items succeed or fail independently.
func TestV1Batch(t *testing.T) {
	e := New(newCatalog(t, 15), nil)
	srv := v1Server(t, e)

	resp := postJSON(t, srv.URL+"/v1/queries:batch", client.BatchRequest{
		Queries: []client.SubmitRequest{
			{Query: testQuery, Options: &client.SolveOptions{Seed: 1, ValidationM: 1500, InitialM: 10, MaxM: 60}},
			{Query: "SELECT NONSENSE"},
			{Query: testQuery, Method: "quantum"},
		},
	})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status = %d, want 202", resp.StatusCode)
	}
	var out client.BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Jobs) != 3 {
		t.Fatalf("items = %d, want 3", len(out.Jobs))
	}
	if out.Jobs[0].Job == nil || out.Jobs[0].Error != nil {
		t.Fatalf("item 0 = %+v, want job", out.Jobs[0])
	}
	if out.Jobs[1].Error == nil || out.Jobs[1].Error.Code != client.CodeInvalidQuery {
		t.Fatalf("item 1 = %+v, want invalid_query", out.Jobs[1])
	}
	if out.Jobs[2].Error == nil || out.Jobs[2].Error.Code != client.CodeUnknownMethod {
		t.Fatalf("item 2 = %+v, want unknown_method", out.Jobs[2])
	}
}

// TestBatchTraceHeader: X-Spq-Trace on a batch submission roots every
// item's span tree under the caller's trace ID, as it does for a single
// submission.
func TestBatchTraceHeader(t *testing.T) {
	e := New(newCatalog(t, 15), &Options{ResultCacheSize: -1})
	srv := v1Server(t, e)

	body, err := json.Marshal(client.BatchRequest{
		Queries: []client.SubmitRequest{
			{Query: testQuery, Options: &client.SolveOptions{Seed: 1, ValidationM: 1500, InitialM: 10, MaxM: 60}},
			{Query: testQuery, Options: &client.SolveOptions{Seed: 2, ValidationM: 1500, InitialM: 10, MaxM: 60}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, srv.URL+"/v1/queries:batch", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(client.TraceHeader, "feedc0de00000003/batch")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out client.BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Jobs) != 2 {
		t.Fatalf("items = %d, want 2", len(out.Jobs))
	}
	for i, it := range out.Jobs {
		if it.Job == nil {
			t.Fatalf("item %d = %+v, want job", i, it)
		}
		job := waitJob(t, srv, it.Job)
		if job.Trace == nil || job.Trace.TraceID != "feedc0de00000003" || job.Trace.Attrs["parent"] != "batch" {
			t.Fatalf("item %d trace = %+v, want the caller's trace id and parent", i, job.Trace)
		}
	}
}

// getStats reads the engine's counters over GET /stats.
func getStats(t *testing.T, srv *httptest.Server) Stats {
	t.Helper()
	resp, err := http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// sameAnswer fails unless two wire results carry the same answer: objective
// bits, package, M, Z and surpluses.
func sameAnswer(t *testing.T, what string, got, want *client.QueryResult) {
	t.Helper()
	if got == nil || want == nil {
		t.Fatalf("%s: result %+v, want %+v", what, got, want)
	}
	if math.Float64bits(got.Objective) != math.Float64bits(want.Objective) ||
		got.M != want.M || got.Z != want.Z ||
		!reflect.DeepEqual(got.Package, want.Package) || !reflect.DeepEqual(got.Surpluses, want.Surpluses) {
		t.Fatalf("%s: answer (obj=%v M=%d Z=%d pkg=%v surp=%v) != (obj=%v M=%d Z=%d pkg=%v surp=%v)", what,
			got.Objective, got.M, got.Z, got.Package, got.Surpluses,
			want.Objective, want.M, want.Z, want.Package, want.Surpluses)
	}
}

// TestV1ResultCacheHitAnsweredInline: a repeated submission is answered
// inside POST /v1/queries. The 202 body is the succeeded Job with the
// cached answer, the job never runs, and it is counted exactly once — also
// in a batch, and also while MaxJobs jobs are active.
func TestV1ResultCacheHitAnsweredInline(t *testing.T) {
	e := New(newCatalog(t, 15), &Options{MaxInFlight: 1, MaxQueue: 1, MaxJobs: 1, Parallelism: 1})
	srv := v1Server(t, e)
	body := client.SubmitRequest{
		Query:   testQuery,
		Options: &client.SolveOptions{Seed: 1, ValidationM: 1500, InitialM: 10, IncrementM: 10, MaxM: 60},
	}

	first := waitJob(t, srv, decodeJob(t, postJSON(t, srv.URL+"/v1/queries", body), http.StatusAccepted))
	if first.State != client.JobSucceeded || first.Result.ResultCacheHit {
		t.Fatalf("first job = %q (hit %v), want a solved success", first.State, first.Result != nil && first.Result.ResultCacheHit)
	}
	// A poller sees the job terminal a moment before it stops counting
	// against MaxJobs; Done closes after both.
	if j, ok := e.JobByID(first.ID); ok {
		<-j.Done()
	}

	before := getStats(t, srv)
	hit := decodeJob(t, postJSON(t, srv.URL+"/v1/queries", body), http.StatusAccepted)
	after := getStats(t, srv)
	if hit.State != client.JobSucceeded || hit.Result == nil || !hit.Result.ResultCacheHit {
		t.Fatalf("repeated POST = %q %+v, want a succeeded result-cache hit", hit.State, hit.Result)
	}
	if hit.ID == first.ID || hit.StartedAt != nil || hit.FinishedAt == nil {
		t.Fatalf("hit job id %q started %v finished %v: want a new job that never ran", hit.ID, hit.StartedAt, hit.FinishedAt)
	}
	sameAnswer(t, "inline hit", hit.Result, first.Result)
	if hit.Trace == nil || hit.Trace.Attrs["result_cache"] != "hit" {
		t.Fatalf("hit trace = %+v, want a result_cache=hit root", hit.Trace)
	}

	resp, err := http.Get(srv.URL + "/v1/queries/" + hit.ID)
	if err != nil {
		t.Fatal(err)
	}
	polled := decodeJob(t, resp, http.StatusOK)
	if polled.State != client.JobSucceeded {
		t.Fatalf("GET of the hit = %q, want succeeded", polled.State)
	}
	sameAnswer(t, "polled hit", polled.Result, first.Result)

	for _, c := range []struct {
		name      string
		got, want int64
	}{
		{"queries", after.Queries - before.Queries, 1},
		{"result_cache_hits", after.ResultCacheHits - before.ResultCacheHits, 1},
		{"result_cache_misses", after.ResultCacheMisses - before.ResultCacheMisses, 0},
		{"jobs_submitted", after.JobsSubmitted - before.JobsSubmitted, 1},
		{"jobs_completed", after.JobsCompleted - before.JobsCompleted, 1},
		{"jobs_running", after.JobsRunning, 0},
	} {
		if c.got != c.want {
			t.Fatalf("%s moved by %d, want %d", c.name, c.got, c.want)
		}
	}

	// A batch item is answered inline too.
	resp = postJSON(t, srv.URL+"/v1/queries:batch", client.BatchRequest{Queries: []client.SubmitRequest{body}})
	var batch client.BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&batch); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(batch.Jobs) != 1 || batch.Jobs[0].Job == nil || batch.Jobs[0].Job.State != client.JobSucceeded {
		t.Fatalf("batch = %+v, want one succeeded item", batch.Jobs)
	}
	sameAnswer(t, "batch hit", batch.Jobs[0].Job.Result, first.Result)

	// With the solve slot held, a miss stays queued and fills MaxJobs. A hit
	// is still answered; another miss is turned away.
	if err := e.sched.Acquire(context.Background(), ""); err != nil {
		t.Fatal(err)
	}
	other := *body.Options
	other.Seed = 2
	queued := decodeJob(t, postJSON(t, srv.URL+"/v1/queries", client.SubmitRequest{Query: testQuery, Options: &other}), http.StatusAccepted)
	if queued.State != client.JobQueued {
		t.Fatalf("miss behind a held slot = %q, want queued", queued.State)
	}
	busy := decodeJob(t, postJSON(t, srv.URL+"/v1/queries", body), http.StatusAccepted)
	if busy.State != client.JobSucceeded || !busy.Result.ResultCacheHit {
		t.Fatalf("hit with MaxJobs active = %q, want a succeeded hit", busy.State)
	}
	third := other
	third.Seed = 3
	decodeEnvelope(t, postJSON(t, srv.URL+"/v1/queries", client.SubmitRequest{Query: testQuery, Options: &third}),
		http.StatusTooManyRequests, client.CodeOverloaded)
	if st := getStats(t, srv); st.JobsRunning != 0 {
		t.Fatalf("jobs_running = %d with the slot held, want 0", st.JobsRunning)
	}
	e.sched.Release("")
	if done := waitJob(t, srv, queued); done.State != client.JobSucceeded {
		t.Fatalf("queued miss ended %q (err %+v), want succeeded", done.State, done.Error)
	}
}

// TestV1SubmitMissCountsOnce: a submitted miss is prepared and looked up
// once, so it moves queries and result_cache_misses by exactly one each, and
// its answer is the one Engine.Query gives on a fresh engine.
func TestV1SubmitMissCountsOnce(t *testing.T) {
	cat := newCatalog(t, 15)
	e := New(cat, nil)
	srv := v1Server(t, e)

	before := getStats(t, srv)
	job := waitJob(t, srv, decodeJob(t, postJSON(t, srv.URL+"/v1/queries", client.SubmitRequest{
		Query:   testQuery,
		Options: &client.SolveOptions{Seed: 1, ValidationM: 1500, InitialM: 10, IncrementM: 10, MaxM: 60},
	}), http.StatusAccepted))
	after := getStats(t, srv)
	if job.State != client.JobSucceeded || job.Result.ResultCacheHit {
		t.Fatalf("job = %q %+v, want a solved success", job.State, job.Result)
	}
	if d := after.Queries - before.Queries; d != 1 {
		t.Fatalf("queries moved by %d, want 1", d)
	}
	if d := after.ResultCacheMisses - before.ResultCacheMisses; d != 1 {
		t.Fatalf("result_cache_misses moved by %d, want 1", d)
	}
	if d := after.ResultCacheHits - before.ResultCacheHits; d != 0 {
		t.Fatalf("result_cache_hits moved by %d, want 0", d)
	}

	res, err := New(cat, nil).Query(context.Background(), Request{Query: testQuery, Options: smallCoreOptions()})
	if err != nil {
		t.Fatal(err)
	}
	sameAnswer(t, "submitted miss vs Engine.Query", job.Result, resultToWire(res, 0))
}

// TestV1ErrorEnvelope checks that every HTTP failure path answers with the
// structured envelope and its stable code (no ad-hoc text bodies), and
// that 429 carries Retry-After.
func TestV1ErrorEnvelope(t *testing.T) {
	e := New(newCatalog(t, 40), &Options{MaxJobs: 1, MaxInFlight: 1, Parallelism: 1})
	srv := v1Server(t, e)

	// Malformed JSON body.
	resp, err := http.Post(srv.URL+"/v1/queries", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	decodeEnvelope(t, resp, http.StatusBadRequest, client.CodeBadRequest)

	// Missing query.
	decodeEnvelope(t, postJSON(t, srv.URL+"/v1/queries", client.SubmitRequest{}),
		http.StatusBadRequest, client.CodeBadRequest)

	// Unparsable query.
	decodeEnvelope(t, postJSON(t, srv.URL+"/v1/queries", client.SubmitRequest{Query: "SELECT NONSENSE"}),
		http.StatusBadRequest, client.CodeInvalidQuery)

	// Unknown method.
	decodeEnvelope(t, postJSON(t, srv.URL+"/v1/queries", client.SubmitRequest{Query: testQuery, Method: "quantum"}),
		http.StatusBadRequest, client.CodeUnknownMethod)

	// Unknown sketch strategy.
	decodeEnvelope(t, postJSON(t, srv.URL+"/v1/queries", map[string]any{
		"query": testQuery, "method": "sketch", "sketch": map[string]any{"strategy": "voronoi"},
	}), http.StatusBadRequest, client.CodeBadRequest)

	// Unknown route.
	resp, err = http.Get(srv.URL + "/nope")
	if err != nil {
		t.Fatal(err)
	}
	decodeEnvelope(t, resp, http.StatusNotFound, client.CodeNotFound)

	// Unknown job id.
	resp, err = http.Get(srv.URL + "/v1/queries/zzz")
	if err != nil {
		t.Fatal(err)
	}
	decodeEnvelope(t, resp, http.StatusNotFound, client.CodeNotFound)

	// Disallowed HTTP method on a known route.
	req, _ := http.NewRequest(http.MethodPut, srv.URL+"/v1/queries", strings.NewReader("{}"))
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Header.Get("Allow") == "" {
		t.Fatal("405 response missing Allow header")
	}
	decodeEnvelope(t, resp, http.StatusMethodNotAllowed, client.CodeMethodNotAllowed)

	// Overload: one active job allowed; the second submission gets 429
	// with Retry-After.
	job := decodeJob(t, postJSON(t, srv.URL+"/v1/queries", client.SubmitRequest{
		Query:   hardRequest().Query,
		Options: &client.SolveOptions{Seed: 1, ValidationM: 500000, InitialM: 50, MaxM: 1000},
	}), http.StatusAccepted)
	resp = postJSON(t, srv.URL+"/v1/queries", client.SubmitRequest{Query: testQuery})
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 response missing Retry-After")
	}
	apiErr := decodeEnvelope(t, resp, http.StatusTooManyRequests, client.CodeOverloaded)
	if apiErr.RetryAfterMS <= 0 {
		t.Fatalf("429 envelope retry_after_ms = %d, want > 0", apiErr.RetryAfterMS)
	}

	req, _ = http.NewRequest(http.MethodDelete, srv.URL+"/v1/queries/"+job.ID, nil)
	if resp, err := http.DefaultClient.Do(req); err == nil {
		resp.Body.Close()
	}
}

// TestRetiredQueryRoute: the pre-v1 synchronous POST /query is gone, and a
// stale client posting to it gets the stable not_found envelope from the
// catch-all route, not a plain-text body.
func TestRetiredQueryRoute(t *testing.T) {
	srv := v1Server(t, New(newCatalog(t, 15), nil))
	resp := postJSON(t, srv.URL+"/query", map[string]any{"query": testQuery, "seed": 1})
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type = %q, want application/json", ct)
	}
	decodeEnvelope(t, resp, http.StatusNotFound, client.CodeNotFound)
}

// TestV1IgnoresRemovedMaxResidentScenarios pins wire compatibility for
// removed options: a body that still carries "max_resident_scenarios" (here
// -1, which once asked the server to materialize every scenario matrix) and
// "parallelism" (a per-request worker count) is accepted and answered with
// the same package as the body without them.
func TestV1IgnoresRemovedMaxResidentScenarios(t *testing.T) {
	e := New(newCatalog(t, 15), &Options{ResultCacheSize: -1})
	srv := v1Server(t, e)
	solve := func(options map[string]any) *client.QueryResult {
		t.Helper()
		job := decodeJob(t, postJSON(t, srv.URL+"/v1/queries", map[string]any{
			"query":   testQuery,
			"options": options,
		}), http.StatusAccepted)
		job = waitJob(t, srv, job)
		if job.State != client.JobSucceeded || job.Result == nil {
			t.Fatalf("state = %q (err %+v), want succeeded", job.State, job.Error)
		}
		return job.Result
	}
	base := map[string]any{"seed": 1, "validation_m": 1500, "initial_m": 10, "increment_m": 10, "max_m": 60}
	want := solve(base)
	old := map[string]any{"max_resident_scenarios": -1, "parallelism": 3}
	for k, v := range base {
		old[k] = v
	}
	got := solve(old)
	if got.ResultCacheHit || got.Objective != want.Objective || got.Feasible != want.Feasible || got.M != want.M ||
		!reflect.DeepEqual(got.Package, want.Package) {
		t.Fatalf("with removed options: %+v\nwithout: %+v", got, want)
	}
}

// TestV1OversizedBody: a body beyond the 1 MiB cap is refused with 400
// bad_request on every endpoint that reads one, before anything runs: no
// job is created, no delta applied, no query counted. Each body would be
// valid but for its 2 MiB of padding.
func TestV1OversizedBody(t *testing.T) {
	e := New(newCatalog(t, 15), nil)
	srv := v1Server(t, e)
	pad := strings.Repeat(" ", 2<<20)

	c, err := client.New(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Submit(context.Background(), client.SubmitRequest{Query: testQuery + pad})
	if want := "spqd: bad_request: bad request body: http: request body too large"; err == nil || err.Error() != want {
		t.Fatalf("Submit: err = %v, want %q", err, want)
	}
	for path, body := range map[string]string{
		"/v1/queries:batch":        `{"queries":[{"query":"x"}],"pad":"` + pad + `"}`,
		"/v1/tables/stocks/deltas": `{"set":{"price":{"2":90}},"pad":"` + pad + `"}`,
	} {
		resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		decodeEnvelope(t, resp, http.StatusBadRequest, client.CodeBadRequest)
	}

	resp, err := http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Queries != 0 || st.JobsSubmitted != 0 || st.DeltasApplied != 0 {
		t.Fatalf("after refused bodies: queries %d, jobs %d, deltas %d; want all 0", st.Queries, st.JobsSubmitted, st.DeltasApplied)
	}
	if jobs, err := c.List(context.Background()); err != nil || len(jobs) != 0 {
		t.Fatalf("jobs listed: %d (err %v), want none", len(jobs), err)
	}
}
