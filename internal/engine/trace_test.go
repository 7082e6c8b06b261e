package engine

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"spq/client"
	"spq/internal/obs"
)

// TestQueryTrace: a direct Query with no ambient span mints a trace, returns
// it on the result, and the span tree covers every phase the engine walked
// through — parse, admission wait, plan, and the method span wrapping the
// solve.
func TestQueryTrace(t *testing.T) {
	e := New(newCatalog(t, 15), &Options{ResultCacheSize: -1})
	res, err := e.Query(context.Background(), Request{
		Query:       testQuery,
		Options:     smallCoreOptions(),
		TraceParent: "feedc0de00000001/coordinator-span",
	})
	if err != nil {
		t.Fatal(err)
	}
	qt := res.Trace()
	if qt == nil {
		t.Fatal("direct query returned no trace")
	}
	if qt.TraceID != "feedc0de00000001" {
		t.Fatalf("trace id = %q, want the upstream id from TraceParent", qt.TraceID)
	}
	if qt.Name != "query" || qt.Attrs["parent"] != "coordinator-span" {
		t.Fatalf("bad root span: name=%q attrs=%v", qt.Name, qt.Attrs)
	}
	phases := map[string]int{}
	qt.Walk(func(d *client.TraceSpan) {
		phases[obs.PhaseName(d.Name)]++
		if d != qt && d.DurationUS < 0 {
			t.Fatalf("span %s has negative duration %d", d.Name, d.DurationUS)
		}
	})
	for _, want := range []string{"query", "parse", "wait", "plan", "summarysearch", "solve", "validate", "probe"} {
		if phases[want] == 0 {
			t.Fatalf("phase %q missing from trace (got %v)", want, phases)
		}
	}
	// The /metrics phase label set stays the fixed vocabulary above plus
	// summarize: no span name carries a per-query value.
	for name := range phases {
		switch name {
		case "query", "parse", "wait", "plan", "summarysearch", "summarize", "solve", "validate", "probe":
		default:
			t.Fatalf("unexpected phase label %q", name)
		}
	}
	// The ε′ probe runs once per evaluation, inside the first validation,
	// and says how much it realized.
	probes := 0
	qt.Walk(func(d *client.TraceSpan) {
		for _, c := range d.Children {
			if c.Name != "probe" {
				continue
			}
			probes++
			if d.Name != "validate" || c.Attrs["n"] != "15" || c.Attrs["scenarios"] != "64" {
				t.Fatalf("probe span under %q with attrs %v, want under validate with n=15 scenarios=64", d.Name, c.Attrs)
			}
		}
	})
	if probes != 1 {
		t.Fatalf("%d probe spans, want 1", probes)
	}
	// Every solve span times its root presolve and counts the variables
	// its formulation pinned.
	qt.Walk(func(d *client.TraceSpan) {
		if d.Name != "solve" {
			return
		}
		for _, key := range []string{"presolve_us", "pinned_cols"} {
			if _, err := strconv.Atoi(d.Attrs[key]); err != nil {
				t.Fatalf("solve span attrs %v: %s is not a count", d.Attrs, key)
			}
		}
	})

	// A caller that already carries a span gets instrumented into the
	// caller's trace instead of minting a fresh one: no Result.Trace.
	tr := obs.NewTrace("", "outer")
	res2, err := e.Query(obs.ContextWithSpan(context.Background(), tr.Root()), Request{
		Query:   testQuery,
		Options: smallCoreOptions(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Trace() != nil {
		t.Fatal("ambient-span query must not mint its own trace")
	}
	tr.Root().End()
	var names, memos []string
	tr.Data().Walk(func(d *client.TraceSpan) {
		names = append(names, obs.PhaseName(d.Name))
		if d.Name == "memo" {
			memos = append(memos, d.Attrs["kind"])
		}
	})
	if !contains(names, "parse") || !contains(names, "plan") {
		t.Fatalf("engine phases not nested under caller span: %v", names)
	}
	// The second query reuses the cached plan's SILP, and with it x(0) and
	// the verdict on the package it validates: "memo" spans stand where the
	// unconstrained solve and the validation ran the first time. A memoised
	// verdict never reaches the probe, so neither runs.
	if len(memos) != 2 || !contains(memos, "unconstrained") || !contains(memos, "validate") ||
		contains(names, "validate") || contains(names, "probe") {
		t.Fatalf("plan-cache hit: memo spans %v among %v, want one each for unconstrained and validate and no validate or probe", memos, names)
	}
}

func contains(xs []string, want string) bool {
	for _, x := range xs {
		if x == want {
			return true
		}
	}
	return false
}

// promLine matches one Prometheus text-format sample: name{labels} value.
// The hand-rolled exporter must never emit empty label braces, NaN, or
// malformed floats — this is the no-dependency stand-in for promtext lint.
var promLine = regexp.MustCompile(`^[a-z_]+[a-z0-9_]*(\{[a-zA-Z_]+="[^"]*"(,[a-zA-Z_]+="[^"]*")*\})? (-?[0-9][0-9.e+-]*|\+Inf)$`)

// TestV1TraceEndpointAndMetrics drives the full operator surface over HTTP:
// submit with an upstream trace header, fetch the span tree from
// /v1/queries/{id}/trace, and check /metrics agrees with /stats and emits
// parseable Prometheus text with populated phase histograms.
func TestV1TraceEndpointAndMetrics(t *testing.T) {
	e := New(newCatalog(t, 15), &Options{ResultCacheSize: -1})
	srv := v1Server(t, e)

	body, _ := json.Marshal(client.SubmitRequest{
		Query:   testQuery,
		Options: &client.SolveOptions{Seed: 1, ValidationM: 1500, InitialM: 10, IncrementM: 10, MaxM: 60},
	})
	req, err := http.NewRequest(http.MethodPost, srv.URL+"/v1/queries", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(client.TraceHeader, "feedc0de00000002/remote/dispatch")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	job := decodeJob(t, resp, http.StatusAccepted)

	job = waitJob(t, srv, job)
	if job.State != client.JobSucceeded {
		t.Fatalf("state = %q (%+v)", job.State, job.Error)
	}
	// The terminal job carries no tree (decodeJob checks); the endpoint
	// serves it.
	tr := fetchTrace(t, srv, job.ID)
	if tr.TraceID != "feedc0de00000002" || tr.Name != "query" {
		t.Fatalf("trace root = %q/%q, want query under the upstream id", tr.TraceID, tr.Name)
	}
	if tr.Attrs["parent"] != "remote/dispatch" || tr.Attrs["job"] != job.ID {
		t.Fatalf("root attrs = %v, want parent and job stamped", tr.Attrs)
	}
	var phases []string
	tr.Walk(func(s *client.TraceSpan) { phases = append(phases, s.Name) })
	for _, want := range []string{"parse", "plan", "summarysearch", "solve", "validate"} {
		if !contains(phases, want) {
			t.Fatalf("phase %q missing from served trace: %v", want, phases)
		}
	}
	if _, err := http.Get(srv.URL + "/v1/queries/nope/trace"); err != nil {
		t.Fatal(err)
	}

	// /metrics: parseable text, phase histograms populated, counters agreeing
	// with /stats (both render one sample of the instrument table).
	mr, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mr.Body.Close()
	if ct := mr.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metrics content type = %q", ct)
	}
	raw, err := io.ReadAll(mr.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !promLine.MatchString(line) {
			t.Fatalf("unparseable metrics line: %q", line)
		}
	}
	for _, want := range []string{
		`spq_queries_total 1`,
		`spq_jobs_completed_total 1`,
		`spq_phase_latency_seconds_bucket{phase="solve",le="+Inf"}`,
		`spq_phase_latency_seconds_bucket{phase="validate",le="+Inf"}`,
		`spq_solve_seconds_count 1`,
		`spq_admission_wait_seconds_count 1`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics output missing %q:\n%s", want, text)
		}
	}
	stats := e.Stats()
	if stats.Queries != 1 {
		t.Fatalf("stats.Queries = %d, want 1", stats.Queries)
	}
	// The solve-phase histogram count equals the result's iteration count:
	// one "solve" span per MILP solve the search ran.
	solveCount := regexp.MustCompile(`spq_phase_latency_seconds_count\{phase="solve"\} (\d+)`).FindStringSubmatch(text)
	if solveCount == nil {
		t.Fatalf("no solve-phase histogram count in:\n%s", text)
	}
	if want := int64(job.Result.Iterations); atoi(t, solveCount[1]) < want {
		t.Fatalf("solve-phase count %s < %d result iterations", solveCount[1], want)
	}
}

func atoi(t *testing.T, s string) int64 {
	t.Helper()
	var v int64
	for _, c := range s {
		v = v*10 + int64(c-'0')
	}
	return v
}

// TestSlowQueryLogRendersTrace: the slow-query event carries the trace ID
// and the span tree rendered by client.TraceSpan.Render, root first.
func TestSlowQueryLogRendersTrace(t *testing.T) {
	var buf strings.Builder
	logger, err := obs.NewLogger(&buf, "json")
	if err != nil {
		t.Fatal(err)
	}
	e := New(newCatalog(t, 15), &Options{ResultCacheSize: -1, Logger: logger, SlowQuery: time.Nanosecond})
	res, err := e.Query(context.Background(), Request{Query: testQuery, Options: smallCoreOptions()})
	if err != nil {
		t.Fatal(err)
	}
	var ev map[string]any
	if err := json.Unmarshal([]byte(buf.String()), &ev); err != nil {
		t.Fatalf("slow-query log %q: %v", buf.String(), err)
	}
	tree, _ := ev["trace"].(string)
	id := res.Trace().TraceID
	if ev["event"] != "slow_query" || ev["trace_id"] != id {
		t.Fatalf("slow-query event %v, want trace %s", ev, id)
	}
	if !strings.HasPrefix(tree, "trace "+id+"\nquery  ") || !strings.Contains(tree, "\n  parse  ") {
		t.Fatalf("slow-query tree:\n%s", tree)
	}
}
