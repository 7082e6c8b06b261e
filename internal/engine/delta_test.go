package engine

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"sync"
	"testing"
	"time"

	"spq/client"
	"spq/internal/core"
	"spq/internal/dist"
	"spq/internal/relation"
	"spq/internal/rng"
	"spq/internal/translate"
)

// deltaCatalog builds the mutable stocks table the delta tests share: price
// and gain as in newCatalog, but with gain variance growing with the mean so
// deltaQuery's probabilistic constraint binds (the warm re-solve needs real
// CSA iterations to shortcut), plus a "fee" column no query below reads —
// the footprint-miss column retention keys off.
func deltaCatalog(t *testing.T, n int) testCatalog {
	t.Helper()
	rel := relation.New("stocks", n)
	price := make([]float64, n)
	fee := make([]float64, n)
	gains := make([]dist.Dist, n)
	for i := 0; i < n; i++ {
		price[i] = float64(40 + 7*(i%9))
		fee[i] = float64(i % 4)
		mu := 0.5 + float64(i%5)*0.4
		gains[i] = dist.Normal{Mu: mu, Sigma: 0.3 + 1.8*mu}
	}
	if err := rel.AddDet("price", price); err != nil {
		t.Fatal(err)
	}
	if err := rel.AddDet("fee", fee); err != nil {
		t.Fatal(err)
	}
	if err := rel.AddStoch("gain", &relation.IndependentVG{AttrID: 1, Dists: gains}); err != nil {
		t.Fatal(err)
	}
	rel.ComputeMeans(rng.NewSource(7), 200)
	return testCatalog{"stocks": rel}
}

// deltaQuery reads price and gain but never fee.
const deltaQuery = `SELECT PACKAGE(*) FROM stocks SUCH THAT
	SUM(price) <= 300 AND
	SUM(gain) >= -2 WITH PROBABILITY >= 0.95
	MAXIMIZE EXPECTED SUM(gain)`

func deltaCoreOptions() *core.Options {
	return &core.Options{Seed: 3, ValidationM: 1500, InitialM: 10, IncrementM: 10, MaxM: 60}
}

// TestDeltaResultRetentionAndInvalidation pins the delta-scoped split: a
// delta outside the query's column footprint keeps the cached result alive
// (rebased to the new version, bit-identical answer, no solve), while one
// touching a read column drops it and forces a re-solve.
func TestDeltaResultRetentionAndInvalidation(t *testing.T) {
	cat := deltaCatalog(t, 15)
	e := New(cat, nil)

	first, err := e.Query(context.Background(), Request{Query: deltaQuery, Options: deltaCoreOptions()})
	if err != nil {
		t.Fatal(err)
	}
	if !first.Feasible {
		t.Fatalf("query infeasible: %+v", first.Solution)
	}

	// Mutate fee: not in the query footprint, membership unchanged.
	if _, err := e.ApplyDelta("stocks", &relation.Delta{
		Set: map[string]map[int]float64{"fee": {0: 9, 3: 9}},
	}); err != nil {
		t.Fatal(err)
	}
	second, err := e.Query(context.Background(), Request{Query: deltaQuery, Options: deltaCoreOptions()})
	if err != nil {
		t.Fatal(err)
	}
	if !second.ResultCacheHit {
		t.Fatal("result was not retained across a footprint-miss delta")
	}
	if math.Float64bits(second.Objective) != math.Float64bits(first.Objective) {
		t.Fatalf("retained result changed the answer: %v vs %v", second.Objective, first.Objective)
	}

	// Mutate price: in the footprint — the entry must die and re-solve.
	if _, err := e.ApplyDelta("stocks", &relation.Delta{
		Set: map[string]map[int]float64{"price": {0: 1000}},
	}); err != nil {
		t.Fatal(err)
	}
	third, err := e.Query(context.Background(), Request{Query: deltaQuery, Options: deltaCoreOptions()})
	if err != nil {
		t.Fatal(err)
	}
	if third.ResultCacheHit {
		t.Fatal("result survived a delta touching a read column")
	}

	st := e.Stats()
	if st.DeltasApplied != 2 {
		t.Fatalf("deltas applied = %d, want 2", st.DeltasApplied)
	}
	if st.ResultsRetained != 1 {
		t.Fatalf("results retained = %d, want 1", st.ResultsRetained)
	}
	if st.ResultsInvalidated != 1 {
		t.Fatalf("results invalidated = %d, want 1", st.ResultsInvalidated)
	}
}

// TestDeltaBooleanWhereFootprint: a column read only under OR and NOT in
// the WHERE clause is part of the query's footprint, so a delta patching it
// drops the cached result, while a delta on a column the query never reads
// keeps it.
func TestDeltaBooleanWhereFootprint(t *testing.T) {
	cat := deltaCatalog(t, 15)
	for _, col := range []string{"a", "b", "c"} {
		vals := make([]float64, 15)
		for i := range vals {
			vals[i] = float64(i % 3)
		}
		if err := cat["stocks"].AddDet(col, vals); err != nil {
			t.Fatal(err)
		}
	}
	e := New(cat, nil)
	query := `SELECT PACKAGE(*) FROM stocks
		WHERE a >= 0 AND (b <= 1 OR NOT c >= 2)
		SUCH THAT SUM(price) <= 300 AND SUM(gain) >= -2 WITH PROBABILITY >= 0.95
		MAXIMIZE EXPECTED SUM(gain)`
	ask := func() *Result {
		t.Helper()
		res, err := e.Query(context.Background(), Request{Query: query, Options: deltaCoreOptions()})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	patch := func(col string) {
		t.Helper()
		if _, err := e.ApplyDelta("stocks", &relation.Delta{
			Set: map[string]map[int]float64{col: {1: 5}},
		}); err != nil {
			t.Fatal(err)
		}
	}

	ask()
	patch("fee")
	if !ask().ResultCacheHit {
		t.Fatal("result dropped by a delta on a column the query does not read")
	}
	patch("c")
	if ask().ResultCacheHit {
		t.Fatal("result survived a delta on a column read under OR NOT")
	}
	if st := e.Stats(); st.ResultsRetained != 1 || st.ResultsInvalidated != 1 {
		t.Fatalf("retained/invalidated = %d/%d, want 1/1", st.ResultsRetained, st.ResultsInvalidated)
	}
}

// TestDeltaPlanRebase pins the plan-cache analogue: with the result cache
// off, a footprint-miss delta must not cost a re-translation — the cached
// plan is carried to the new version and reported as a plan-cache hit.
func TestDeltaPlanRebase(t *testing.T) {
	cat := deltaCatalog(t, 15)
	e := New(cat, &Options{ResultCacheSize: -1})

	if _, err := e.Query(context.Background(), Request{Query: deltaQuery, Options: deltaCoreOptions()}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.ApplyDelta("stocks", &relation.Delta{
		Set: map[string]map[int]float64{"fee": {1: 5}},
	}); err != nil {
		t.Fatal(err)
	}
	res, err := e.Query(context.Background(), Request{Query: deltaQuery, Options: deltaCoreOptions()})
	if err != nil {
		t.Fatal(err)
	}
	if !res.CacheHit {
		t.Fatal("plan was not rebased across a footprint-miss delta")
	}
	if st := e.Stats(); st.PlansRebased != 1 {
		t.Fatalf("plans rebased = %d, want 1", st.PlansRebased)
	}

	// A delta touching price must rebuild the plan over the new snapshot.
	if _, err := e.ApplyDelta("stocks", &relation.Delta{
		Set: map[string]map[int]float64{"price": {1: 41}},
	}); err != nil {
		t.Fatal(err)
	}
	res, err = e.Query(context.Background(), Request{Query: deltaQuery, Options: deltaCoreOptions()})
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheHit {
		t.Fatal("plan survived a delta touching a read column")
	}
}

// TestDeltaWarmResolve drives the full warm path end to end: a cached result
// is invalidated by a price delta, its warm-start state is stashed, and the
// re-issued request re-solves warm — same bit-identical objective as a cold
// post-delta solve, reported by the warm_resolves counter.
func TestDeltaWarmResolve(t *testing.T) {
	const n = 15
	cat := deltaCatalog(t, n)
	e := New(cat, nil)

	first, err := e.Query(context.Background(), Request{Query: deltaQuery, Options: deltaCoreOptions()})
	if err != nil {
		t.Fatal(err)
	}
	if !first.Feasible {
		t.Fatalf("cold solve infeasible: %+v", first.Solution)
	}

	// Push three non-package tuples far over the budget: the optimum package
	// is untouched, so the warm re-solve converges without falling back.
	patch := map[int]float64{}
	for i := n - 1; i >= 0 && len(patch) < 3; i-- {
		if first.X[i] == 0 {
			patch[i] = 1000
		}
	}
	if len(patch) < 3 {
		t.Fatalf("package covers too much of the relation to perturb around: %v", first.X)
	}
	if _, err := e.ApplyDelta("stocks", &relation.Delta{
		Set: map[string]map[int]float64{"price": patch},
	}); err != nil {
		t.Fatal(err)
	}

	warm, err := e.Query(context.Background(), Request{Query: deltaQuery, Options: deltaCoreOptions()})
	if err != nil {
		t.Fatal(err)
	}
	if warm.ResultCacheHit {
		t.Fatal("invalidated entry served a stale result")
	}
	if !warm.WarmResolve {
		t.Fatal("re-issued request fell back to the cold path")
	}
	if st := e.Stats(); st.WarmResolves != 1 || st.ResultsInvalidated != 1 {
		t.Fatalf("stats = %+v, want 1 warm re-solve and 1 invalidation", st)
	}

	// A cold engine over the same (post-delta) relation must agree bit for bit.
	cold := New(cat, &Options{ResultCacheSize: -1})
	ref, err := cold.Query(context.Background(), Request{Query: deltaQuery, Options: deltaCoreOptions()})
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(warm.Objective) != math.Float64bits(ref.Objective) {
		t.Fatalf("warm objective %v != cold %v", warm.Objective, ref.Objective)
	}
	for i := range ref.X {
		if warm.X[i] != ref.X[i] {
			t.Fatalf("tuple %d: warm multiplicity %v, cold %v", i, warm.X[i], ref.X[i])
		}
	}
}

// TestDeltaKeepsJobWireResult pins that a finished job is served from its
// rendered wire answer alone: it holds no package vector or pinned snapshot,
// and a delta on its table leaves every poll unchanged.
func TestDeltaKeepsJobWireResult(t *testing.T) {
	cat := deltaCatalog(t, 15)
	e := New(cat, &Options{ResultCacheSize: -1})

	j, err := e.Submit(Request{Query: deltaQuery, Options: deltaCoreOptions()})
	if err != nil {
		t.Fatal(err)
	}
	<-j.Done()
	before := j.Snapshot(0)
	if err := before.Err(); err != nil {
		t.Fatalf("job failed: %v", err)
	}
	if before.Result == nil || len(before.BestPackage) == 0 {
		t.Fatalf("finished job has no package: %+v", before)
	}
	if j.bestX != nil || j.bestRel != nil {
		t.Fatal("succeeded job still pins its package vector or relation")
	}

	if _, err := e.ApplyDelta("stocks", &relation.Delta{
		Set: map[string]map[int]float64{"fee": {2: 7}},
	}); err != nil {
		t.Fatal(err)
	}

	// The wire rendering still answers polls, package included.
	after := j.Snapshot(0)
	if after.Result == nil {
		t.Fatal("delta dropped the wire result")
	}
	if len(after.BestPackage) != len(before.BestPackage) {
		t.Fatalf("snapshot lost the package: %d vs %d tuples",
			len(after.BestPackage), len(before.BestPackage))
	}
	if after.BestObjective != before.BestObjective {
		t.Fatalf("snapshot changed the objective: %v vs %v",
			after.BestObjective, before.BestObjective)
	}
}

// TestConcurrentDeltasDeterministicSnapshots races a mutator applying deltas
// against concurrent queries and pins snapshot isolation: every query result
// must be bit-identical to a from-scratch core re-solve of the exact snapshot
// the engine admitted it against, no matter which version the mutator had
// reached. Run with -race this is the data-race check for the COW delta
// spine + engine combination the acceptance criteria name.
func TestConcurrentDeltasDeterministicSnapshots(t *testing.T) {
	const n = 15
	cat := deltaCatalog(t, n)
	// Result cache off: each query must pin and solve its own snapshot.
	e := New(cat, &Options{ResultCacheSize: -1, MaxInFlight: 4})

	stop := make(chan struct{})
	var mut sync.WaitGroup
	mut.Add(1)
	go func() {
		defer mut.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			col := "price"
			if i%2 == 1 {
				col = "fee"
			}
			if _, err := e.ApplyDelta("stocks", &relation.Delta{
				Set: map[string]map[int]float64{col: {i % n: float64(40 + i%60)}},
			}); err != nil {
				t.Error(err)
				return
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()

	const workers, per = 3, 4
	results := make([]*Result, workers*per)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for q := 0; q < per; q++ {
				res, err := e.Query(context.Background(), Request{Query: deltaQuery, Options: deltaCoreOptions()})
				if err != nil {
					t.Error(err)
					return
				}
				results[w*per+q] = res
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	mut.Wait()
	if t.Failed() {
		t.FailNow()
	}

	// res.Rel is the admitted snapshot (no WHERE clause): rebuilding the SILP
	// over it and solving cold must reproduce the result bit for bit.
	for i, res := range results {
		silp, err := translate.Build(res.Query, res.Rel, nil)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := core.SummarySearch(silp, deltaCoreOptions())
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(res.Objective) != math.Float64bits(ref.Objective) {
			t.Fatalf("query %d: objective %v != snapshot re-solve %v", i, res.Objective, ref.Objective)
		}
		if len(res.X) != len(ref.X) {
			t.Fatalf("query %d: package length %d != %d", i, len(res.X), len(ref.X))
		}
		for j := range ref.X {
			if res.X[j] != ref.X[j] {
				t.Fatalf("query %d tuple %d: multiplicity %v != %v", i, j, res.X[j], ref.X[j])
			}
		}
	}
}

// TestDeltaEndpoint drives POST /v1/tables/{name}/deltas over the wire:
// happy path, unknown table, empty body, and the read-only refusal.
func TestDeltaEndpoint(t *testing.T) {
	cat := deltaCatalog(t, 15)
	e := New(cat, nil)
	srv := v1Server(t, e)

	resp := postJSON(t, srv.URL+"/v1/tables/stocks/deltas", client.DeltaRequest{
		Set: map[string]map[int]float64{"fee": {0: 3, 5: 4}},
	})
	var dr client.DeltaResponse
	decodeInto(t, resp, http.StatusOK, &dr)
	if dr.Table != "stocks" || dr.Version != dr.FromVersion+1 {
		t.Fatalf("bad delta response: %+v", dr)
	}
	if dr.TuplesSet != 2 || len(dr.Cols) != 1 || dr.Cols[0] != "fee" {
		t.Fatalf("bad footprint: %+v", dr)
	}

	decodeEnvelope(t, postJSON(t, srv.URL+"/v1/tables/nope/deltas", client.DeltaRequest{
		Set: map[string]map[int]float64{"fee": {0: 1}},
	}), http.StatusNotFound, client.CodeNotFound)

	decodeEnvelope(t, postJSON(t, srv.URL+"/v1/tables/stocks/deltas", client.DeltaRequest{}),
		http.StatusBadRequest, client.CodeBadRequest)

	ro := New(cat, &Options{ReadOnly: true})
	rosrv := v1Server(t, ro)
	decodeEnvelope(t, postJSON(t, rosrv.URL+"/v1/tables/stocks/deltas", client.DeltaRequest{
		Set: map[string]map[int]float64{"fee": {0: 1}},
	}), http.StatusMethodNotAllowed, client.CodeMethodNotAllowed)
}

func decodeInto(t *testing.T, resp *http.Response, wantStatus int, v any) {
	t.Helper()
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("status = %d, want %d", resp.StatusCode, wantStatus)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}
