package engine

import (
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"

	"spq/client"
)

// TestRetiredFleetSurface: the sub-problem wire and the replication
// endpoint are gone, and each answers with a stable error instead of
// quietly answering a different problem. A body carrying a "solve" spec
// would otherwise decode without it and get back a package over the whole
// table. (Method "remote" is one more input of TestSubmitValidation.)
func TestRetiredFleetSurface(t *testing.T) {
	e := New(newCatalog(t, 15), &Options{MaxInFlight: 1, Parallelism: 1})
	srv := v1Server(t, e)
	query := strconv.Quote(testQuery)
	post := func(path, body string) *http.Response {
		t.Helper()
		resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	t.Run("solve", func(t *testing.T) {
		resp := post("/v1/queries", `{"query":`+query+`,"solve":{"subset":[0,1,2]}}`)
		decodeEnvelope(t, resp, http.StatusBadRequest, client.CodeBadRequest)
	})

	t.Run("batch_solve", func(t *testing.T) {
		resp := post("/v1/queries:batch", `{"queries":[`+
			`{"query":`+query+`,"solve":{"subset":[0,1,2]}},`+
			`{"query":`+query+`,"solve":null,"options":{"seed":1,"validation_m":1500,"initial_m":10,"max_m":60}}]}`)
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("status = %d, want 202", resp.StatusCode)
		}
		var out client.BatchResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		if len(out.Jobs) != 2 {
			t.Fatalf("items = %d, want 2", len(out.Jobs))
		}
		if it := out.Jobs[0]; it.Job != nil || it.Error == nil || it.Error.Code != client.CodeBadRequest {
			t.Fatalf("item 0 = %+v, want bad_request", it)
		}
		if it := out.Jobs[1]; it.Job == nil || it.Error != nil {
			t.Fatalf("item 1 = %+v, want a job (a null solve is no spec)", it)
		}
		waitJob(t, srv, out.Jobs[1].Job)
	})

	t.Run("no_peer_endpoint", func(t *testing.T) {
		resp := post("/v1/cache", `{}`)
		decodeEnvelope(t, resp, http.StatusNotFound, client.CodeNotFound)
	})

	t.Run("no_fleet_counters", func(t *testing.T) {
		for _, path := range []string{"/stats", "/metrics"} {
			resp, err := http.Get(srv.URL + path)
			if err != nil {
				t.Fatal(err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			for _, name := range []string{"remote_", "cache_replicated", "cache_received", "cache_push_errors", "cache_repl_dropped"} {
				if strings.Contains(string(body), name) {
					t.Errorf("%s still reports %q", path, name)
				}
			}
		}
	})
}

// TestSketchStrategyWire: k-means is the only grouping. A sketch body with
// no strategy or "kmeans" (any case) is solved; "hash", "range" or any
// other strategy is refused with bad_request, single and per batch item,
// and never run as k-means.
func TestSketchStrategyWire(t *testing.T) {
	e := New(newCatalog(t, 30), &Options{MaxInFlight: 1, Parallelism: 1})
	srv := v1Server(t, e)
	body := func(strategy string) string {
		sk := `{"group_size":8,"max_candidates":24`
		if strategy != "" {
			sk += `,"strategy":` + strconv.Quote(strategy)
		}
		return `{"query":` + strconv.Quote(testQuery) + `,"method":"sketch","sketch":` + sk + `},` +
			`"options":{"seed":1,"validation_m":1500,"initial_m":10,"max_m":60}}`
	}
	post := func(path, body string) *http.Response {
		t.Helper()
		resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	for _, strategy := range []string{"hash", "range", "HASH", "voronoi"} {
		decodeEnvelope(t, post("/v1/queries", body(strategy)), http.StatusBadRequest, client.CodeBadRequest)
		resp := post("/v1/queries:batch", `{"queries":[`+body(strategy)+`]}`)
		var out client.BatchResponse
		err := json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if len(out.Jobs) != 1 || out.Jobs[0].Job != nil || out.Jobs[0].Error == nil || out.Jobs[0].Error.Code != client.CodeBadRequest {
			t.Fatalf("batch item with strategy %q = %+v, want bad_request", strategy, out.Jobs)
		}
	}
	var objective *float64
	for _, strategy := range []string{"", "kmeans", "KMeans"} {
		job := waitJob(t, srv, decodeJob(t, post("/v1/queries", body(strategy)), http.StatusAccepted))
		if job.State != client.JobSucceeded || job.Result == nil {
			t.Fatalf("strategy %q: job ended %s (%+v)", strategy, job.State, job.Error)
		}
		if objective == nil {
			objective = &job.Result.Objective
		} else if job.Result.Objective != *objective {
			t.Fatalf("strategy %q: objective %v, want %v", strategy, job.Result.Objective, *objective)
		}
	}
}
